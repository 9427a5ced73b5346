"""Run one ``lorenz`` command under the span tracer.

Usage: ``python -X importtime perfbench/cli_launcher.py SPANS JOB -- ARGS...``

Imports ``lorenz_hulls.cli`` first, so the import times it reports are the
command's own, then installs the tracer, calls ``lorenz_hulls.cli.main``
with ARGS, and writes the spans to SPANS whether or not the command
raises.  The exit code and any traceback are the command's.
"""

import sys
from pathlib import Path

import lorenz_hulls
import lorenz_hulls.cli

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer, dump_spans  # noqa: E402


def launch(spans_path: str, job: str, argv: list) -> int:
    tracer = Tracer()
    tracer.job = job
    tracer.install(lorenz_hulls)
    try:
        return lorenz_hulls.cli.main(argv)
    finally:
        tracer.uninstall()
        dump_spans(tracer.spans, spans_path)


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: cli_launcher.py SPANS JOB -- ARGS...")
    sys.exit(launch(sys.argv[1], sys.argv[2], sys.argv[4:]))

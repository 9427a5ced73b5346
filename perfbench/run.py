"""The lorenz-hulls benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {planar,spatial,cli} --seed N \\
        --seconds S --trace {0,1}

Workloads (see RATIONALE.md for why each exists):

- ``planar``: 2-D products, discretization, exact planar Hausdorff
  distances, inclusion and shape queries at m = 1 000, 3 162 and 10 000.
- ``spatial``: LP-exact Hausdorff distances, containment, skeletons and
  sampled n = 5 queries at m = 4, 7 and 10 generators.
- ``cli``: cold ``python -m lorenz_hulls.cli`` subprocesses, one at a time.

One client runs one job at a time (closed loop).  Set-up is timed in this
process and in fresh child processes, and ``setup_s`` is their median.  The
timed passes repeat a fixed job list until ``--seconds`` of pass time has
been measured.  Every output is checked after its pass, outside the timed
region.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs
every job set (or command) once untraced and once traced, right after each
other and in alternating order, and prints the per-layer metrics, which
come from spans recorded by wrappers installed from this directory; the
package itself is not modified.

The last line of standard output is the result object; the line before
it holds the environment fingerprint, sample counts, the named cli metrics
and any failures.  Both, and the spans of a traced run, are also written
under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("planar", "spatial", "cli")
SETUP_SAMPLES = 3
CALL_TIMEOUT_S = 120
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("tier1_s", "s"),
    ("tier2_s", "s"),
    ("tier3_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, workdir: Path):
    """Import the package, make the seeded inputs, run the warm-up.

    Returns (seconds, job list or invocations, warm-up records).
    """
    start = time.perf_counter()
    import lorenz_hulls

    if SRC.resolve() not in Path(lorenz_hulls.__file__).resolve().parents:
        raise SystemExit(f"imported lorenz_hulls from {lorenz_hulls.__file__}, not {SRC}")
    if workload == "cli":
        import cli_workload

        plan = cli_workload.invocations(cli_workload.write_inputs(workdir, seed), seed)
        warm = []
    else:
        import library

        plan = library.build(workload, seed)
        _, warm = library_pass([(0, library.warm_up_jobs(workload, seed))])
        for record in warm:
            record.label = "warm-up/" + record.label
    return time.perf_counter() - start, plan, warm


def _setup_in_child(args, workdir: Path) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    child = spawn(cmd, workdir)
    if child.code != 0:
        raise SystemExit(f"set-up in a child process failed:\n{child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# library workloads


@dataclass
class JobRecord:
    label: str
    tier: int
    instance: int
    seconds: float
    problems: list


def library_pass(plan, tracer=None, first_instance=0):
    """Run every job set once; check outputs after the clock stops."""
    done = []
    start = time.perf_counter()
    for instance, (tier, jobs) in enumerate(plan, first_instance):
        for job in jobs:
            label = f"t{tier + 1}/i{instance}/{job.name}"
            if tracer is not None:
                tracer.job = label
            begin = time.perf_counter()
            try:
                output, error = job.timed(), None
            except Exception:
                output, error = None, traceback.format_exc(limit=-2)
            done.append((JobRecord(label, tier, instance, time.perf_counter() - begin, []),
                         job, output, error))
    wall = time.perf_counter() - start
    for record, job, output, error in done:
        try:
            record.problems = [error] if error else job.check(output)
        except Exception:
            record.problems = [traceback.format_exc(limit=-2)]
    return wall, [record for record, *_ in done]


def run_library(args, plan, tally):
    if args.trace:
        return traced_library(args, plan, tally)
    walls, per_instance = [], []
    while not walls or sum(walls) < args.seconds:
        wall, records = library_pass(plan)
        walls.append(wall)
        tally.add(records)
        sums = {}
        for r in records:
            sums[(r.tier, r.instance)] = sums.get((r.tier, r.instance), 0.0) + r.seconds
        per_instance += [(tier, s) for (tier, _), s in sums.items()]
    tiers = [statistics.median(s for t, s in per_instance if t == tier) for tier in range(3)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"passes": len(walls),
               "instance_s": [[s for t, s in per_instance if t == k] for k in range(3)]}
    return _end_to_end(walls, tiers, rss_mb), samples, {}


def _pair_order(index: int) -> tuple:
    """(untraced, traced) for even pairs and the reverse for odd ones, so that
    neither side of a pair always runs on warmer caches."""
    return (False, True) if index % 2 == 0 else (True, False)


def traced_library(args, plan, tally):
    """Each job set untraced and traced back to back; the overhead is the
    median of the per-pair time ratios, so that machine-speed drift over
    the run cancels within each pair."""
    import lorenz_hulls
    from layers import layer_metrics
    from tracer import Tracer, dump_spans

    tracer = Tracer()
    ratios = []
    for index, entry in enumerate(plan):
        wall = {}
        for traced in _pair_order(index):
            if traced:
                tracer.install(lorenz_hulls)
            try:
                wall[traced], records = library_pass([entry], tracer if traced else None, index)
            finally:
                tracer.uninstall()
            tally.add(records)
        ratios.append(wall[True] / wall[False])
    dump_spans(tracer.spans, OUT / f"spans-{args.workload}-s{args.seed}.jsonl")
    metrics = layer_metrics(tracer.spans, statistics.median(ratios) - 1.0)
    return metrics, {"pairs": len(ratios), "spans": len(tracer.spans)}, {}


# ---------------------------------------------------------------------------
# cli workload


@dataclass
class Child:
    seconds: float
    code: int
    stdout: str
    stderr: str
    rss_mb: float


def spawn(cmd, workdir: Path) -> Child:
    """Run ``cmd`` to completion from the checkout root.

    ``os.wait4`` reaps the child so that its own peak RSS can be read;
    output goes through files in ``workdir`` so that no pipe can fill.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        begin = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=_child_env())
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - begin
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, proc.returncode, out_path.read_text(encoding="utf-8"),
                 err_path.read_text(encoding="utf-8"), usage.ru_maxrss / 1024.0)


def cli_pass(plan, workdir: Path, span_dir=None):
    """Run every invocation once, each in a fresh interpreter."""
    children = []
    start = time.perf_counter()
    for inv in plan:
        if span_dir is None:
            cmd = [sys.executable, "-m", "lorenz_hulls.cli", *inv.args]
        else:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_launcher.py"),
                   str(span_dir / f"{inv.label}.jsonl"), inv.label, "--", *inv.args]
        children.append(spawn(cmd, workdir))
    wall = time.perf_counter() - start
    checked = []
    for inv, child in zip(plan, children):
        if child.code != inv.expect_code:
            last = (child.stderr.strip().splitlines() or [""])[-1]
            problems = [f"exit {child.code}, expected {inv.expect_code}: {last}"]
        else:
            try:
                problems = inv.check(child.stdout, child.stderr)
            except Exception:
                problems = [traceback.format_exc(limit=-2)]
        checked.append((inv, JobRecord(inv.label, 0, 0, child.seconds, problems), child))
    return wall, checked


def run_cli(args, plan, tally, workdir):
    from cli_workload import VERIFY

    if args.trace:
        return traced_cli(args, plan, tally, workdir)
    walls, cold, verify, rss = [], [], {1: [], 2: []}, []
    while not walls or sum(walls) < args.seconds:
        wall, checked = cli_pass(plan, workdir)
        walls.append(wall)
        tally.add_cli(checked)
        for inv, _, child in checked:
            if inv.group == VERIFY:
                verify[int(inv.args[-1])].append(child.seconds)
            else:
                cold.append(child.seconds)
                rss.append(child.rss_mb)
    tiers = [statistics.median(cold), statistics.median(verify[1]), statistics.median(verify[2])]
    samples = {"passes": len(walls), "cold_s": cold, "verify_w1_s": verify[1],
               "verify_w2_s": verify[2]}
    named = {"cold_p50_s": tiers[0], "verify_w1_s": tiers[1], "verify_w2_s": tiers[2]}
    return _end_to_end(walls, tiers, max(rss)), samples, named


def traced_cli(args, plan, tally, workdir):
    """Each command untraced and traced back to back, as in ``traced_library``."""
    from layers import import_seconds, layer_metrics
    from tracer import dump_spans, load_spans

    span_dir = workdir / "spans"
    span_dir.mkdir()
    traced_runs, ratios = [], []
    for index, inv in enumerate(plan):
        seconds = {}
        for traced in _pair_order(index):
            _, checked = cli_pass([inv], workdir, span_dir if traced else None)
            tally.add_cli(checked)
            seconds[traced] = checked[0][2].seconds
            if traced:
                traced_runs += checked
        ratios.append(seconds[True] / seconds[False])
    spans, imports = [], []
    for inv, _, child in traced_runs:
        imports.append(import_seconds(child.stderr))
        path = span_dir / f"{inv.label}.jsonl"
        if path.exists():
            offset = max([0] + [s.id for s in spans])  # ids restart in every process
            for span in load_spans(path):
                span.id += offset
                span.parent = None if span.parent is None else span.parent + offset
                spans.append(span)
    dump_spans(spans, OUT / f"spans-cli-s{args.seed}.jsonl")
    metrics = layer_metrics(spans, statistics.median(ratios) - 1.0, imports)
    return metrics, {"pairs": len(ratios), "spans": len(spans)}, {}


# ---------------------------------------------------------------------------
# results


def _end_to_end(walls, tiers, rss_mb) -> dict:
    return {
        "wall_s": statistics.median(walls),
        "tier1_s": tiers[0],
        "tier2_s": tiers[1],
        "tier3_s": tiers[2],
        "peak_rss_mb": rss_mb,
    }


class Tally:
    """Attempted and failed jobs; documented defects are kept apart."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []
        self.known = {"attempted": 0, "failed": 0, "defects": {}}

    def add(self, records) -> None:
        for record in records:
            self.attempted += 1
            if record.problems:
                self.failures.append({"job": record.label, "problems": record.problems[:3]})

    def add_cli(self, checked) -> None:
        for inv, record, _ in checked:
            if inv.known_defect:
                self.known["attempted"] += 1
                if record.problems:
                    self.known["failed"] += 1
                    self.known["defects"][inv.label] = [inv.known_defect] + record.problems
            else:
                self.add([record])

    def fail_frac(self) -> float:
        failed = len(self.failures) + self.known["failed"]
        return failed / max(1, self.attempted + self.known["attempted"])


def _git_commit():
    """HEAD of the checkout, or None where it is not a git repository.

    The search stops at the checkout root, so an enclosing repository is
    never reported.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lorenz_hulls").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count the loaded OpenBLAS reports; read, never set."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint(seed: int) -> dict:
    import numpy
    import scipy

    thread_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "LORENZ_THREADS")
    return {
        "git_commit": _git_commit(),
        "src_sha256_16": _source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads_found": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in thread_env if k in os.environ},
        "computed_not_measured": ["hulls.reach_many.gflops", "measures.json_bytes_in",
                                  "measures.json_bytes_out"],
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="lorenz-hulls benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # internal: time one set-up in this fresh process and exit
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lorenz_hulls" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/lorenz_hulls not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        if args.setup_only:
            seconds, _, _ = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        workdir.mkdir()
        setups = [_setup_in_child(args, workdir) for _ in range(SETUP_SAMPLES - 1)]
        seconds, plan, warm = setup(args.workload, args.seed, workdir)
        setups.append(seconds)
        tally = Tally()
        tally.add(warm)
        if args.workload == "cli":
            metrics, samples, named = run_cli(args, plan, tally, workdir)
        else:
            metrics, samples, named = run_library(args, plan, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    samples["setup_s"] = setups
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "fingerprint": fingerprint(args.seed),
        "samples": samples,
        "named": dict(named, fail_frac=tally.fail_frac()),
        "known_defects": tally.known,
        "failures": tally.failures[:20],
    }
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    stem = f"result-{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"details": details, "result": result}, indent=1))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's tracer.  Run: python3 -m pytest perfbench/tests -q"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import lorenz_hulls  # noqa: E402
from layers import PER_LAYER, import_seconds  # noqa: E402
from tracer import METHODS, MODULES, Span, Tracer, self_times  # noqa: E402


def _bindings():
    """Every module-level and patched-class binding the tracer may touch."""
    owners = [lorenz_hulls] + [importlib.import_module(f"lorenz_hulls.{m}") for m in MODULES]
    for short, cls, _ in METHODS:
        owners.append(getattr(importlib.import_module(f"lorenz_hulls.{short}"), cls))
    return {(owner.__name__, attr): value
            for owner in owners for attr, value in vars(owner).items()}


def test_every_patched_binding_is_restored():
    before = _bindings()
    tracer = Tracer()
    tracer.install(lorenz_hulls)
    try:
        during = _bindings()
        for module in ("lorenz_hulls", "lorenz_hulls.hulls", "lorenz_hulls.ops",
                       "lorenz_hulls.suites", "lorenz_hulls.cli"):
            assert during[(module, "reach_many")] is not before[(module, "reach_many")]
        assert during[("lorenz_hulls.hulls", "linprog")] is not before[("lorenz_hulls.hulls", "linprog")]
        assert during[("ZonogonSupport", "eval")] is not before[("ZonogonSupport", "eval")]
        # private helpers and classes are left alone
        assert during[("lorenz_hulls.hulls", "_merged_generators_2d")] is before[
            ("lorenz_hulls.hulls", "_merged_generators_2d")]
        assert during[("lorenz_hulls.hulls", "Zonotope")] is before[("lorenz_hulls.hulls", "Zonotope")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_calls_through_any_binding_nest_under_their_caller():
    tracer = Tracer()
    tracer.install(lorenz_hulls)
    try:
        outer = lorenz_hulls.Zonotope(2, np.array([[1.0, 0.0], [0.0, 1.0]]))
        inner = lorenz_hulls.Zonotope(2, np.array([[0.5, 0.0]]))
        assert lorenz_hulls.includes(inner, outer).verdict == "included"
    finally:
        tracer.uninstall()
    top = [s for s in tracer.spans if s.name == "hulls.includes"]
    assert len(top) == 1 and top[0].parent is None
    reach = [s for s in tracer.spans if s.name == "hulls.reach_many"]
    assert len(reach) == 2 and all(s.parent == top[0].id for s in reach)
    assert {s.sizes["k"] for s in reach} == {4} and all(s.sizes["n"] == 2 for s in reach)


def test_spans_are_recorded_when_the_call_raises():
    tracer = Tracer()
    tracer.install(lorenz_hulls)
    try:
        lorenz_hulls.reach(lorenz_hulls.Zonotope(2, np.ones((1, 2))), [1.0, 2.0, 3.0])
    except lorenz_hulls.DimensionMismatch:
        pass
    finally:
        tracer.uninstall()
    assert [(s.name, s.error) for s in tracer.spans] == [("hulls.reach", "DimensionMismatch")]


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, None, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, 1),
        _span(3, 3.0, 6.0, 1),  # overlaps span 2, as a child from another thread may
        _span(4, 5.0, 9.0, 1),
        _span(5, 6.0, 7.0, 4),
        _span(6, 8.5, 12.0, 4),  # runs past its parent: clipped at 9
    ]
    own = self_times(spans)
    assert own[1] == 2.0  # children cover [1, 9]
    assert own[2] == 3.0 and own[3] == 3.0
    assert own[4] == 4.0 - 1.0 - 0.5
    assert own[5] == 1.0 and own[6] == 3.5


def test_import_seconds_reads_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy.sparse",
        "import time:       400 |        450 |     scipy.optimize",
        "import time:       100 |        850 |   lorenz_hulls.hulls",
        "import time:        10 |        860 | lorenz_hulls",
        "import time:        20 |         20 | lorenz_hulls.cli",
    ])
    got = import_seconds(text)
    assert abs(got["lorenz_hulls"] - 880e-6) < 1e-12
    assert abs(got["numpy"] - 300e-6) < 1e-12
    assert abs(got["scipy"] - 450e-6) < 1e-12


def test_benchmark_json_lists_the_printed_metrics():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


_SMALL_RUN = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import library, run
library.INSTANCES, library.PLANAR_TIERS = (1, 1, 1), (100, 200, 400)
assert run.main(["--workload", "planar", "--seed", "3", "--seconds", "0", "--trace", {trace!r}]) == 0
print(sorted(m for m in ("tracer", "layers") if m in sys.modules))
"""


def _modules_after_run(trace: str) -> list:
    code = _SMALL_RUN.format(bench=str(BENCH), src=str(ROOT / "src"), trace=trace)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-2])
    assert result["correct"] and result["attempted"] > 0
    return json.loads(proc.stdout.splitlines()[-1].replace("'", '"'))


def test_untraced_runs_never_import_the_tracer():
    assert _modules_after_run("0") == []
    assert _modules_after_run("1") == ["layers", "tracer"]

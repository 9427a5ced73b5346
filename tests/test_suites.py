"""``run_suites`` across worker processes, and the errors that cross them."""

import concurrent.futures
import inspect
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lorenz_hulls
from lorenz_hulls import errors, suites
from lorenz_hulls.errors import LorenzError, NotInHull
from lorenz_hulls.suites import (
    SUITES,
    Suite,
    SuiteReport,
    _oracle_case,
    render_reports,
    run_suites,
)

WITNESS = np.array([0.5, -1.0])


def _sample(cls):
    if cls is NotInHull:
        return cls("target lies outside the hull", WITNESS)
    return cls(f"{cls.__name__} message")


ERRORS = [
    value for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, LorenzError) and value is not LorenzError
]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_errors_survive_pickle(cls):
    exc = _sample(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back).keys() == vars(exc).keys()
    for name, value in vars(exc).items():
        assert np.array_equal(getattr(back, name), value)


def _outside(rng, case, seed, full):
    raise NotInHull("target lies outside the hull", WITNESS)
    yield  # a case body is a generator


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="a worker sees the patched table only when it is forked",
)
@pytest.mark.parametrize("workers", [1, 2])
def test_not_in_hull_crosses_the_pool(monkeypatch, workers):
    monkeypatch.setitem(SUITES, "gini", Suite("gini", "raises", ("gini", 1, 1, _outside)))
    with pytest.raises(NotInHull) as err:
        run_suites(["identity", "gini"], seed=7, workers=workers)
    assert str(err.value) == "target lies outside the hull"
    assert np.array_equal(err.value.witness, WITNESS)


def _blas_counts():
    """Thread count of each OpenBLAS mapped into this process, by the getters
    of the numpy and scipy wheels' builds and of a distribution's; none where
    there is no /proc/self/maps.  Self-contained, so that a subprocess can
    run its source."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    counts = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for get in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, get):
                counts.append(handle[get]())
                break
    return counts


def _python(script, **env):
    """Run ``script`` in a fresh interpreter that finds this package, with
    the caller's environment less ``OPENBLAS_NUM_THREADS``, plus ``env``."""
    src = str(Path(lorenz_hulls.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env={**base, **env},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


class _RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records its size and the names
    it maps in their order, and starts no process."""

    made = []

    def __init__(self, max_workers):
        self.max_workers, self.names = max_workers, None
        self.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, names, *rest):
        self.names = list(names)
        return [SuiteReport(name, 0) for name in self.names]


# the two longest suites first, then the rest in registry order
DISPATCH_ALL = [
    "product_bound", "skeleton_bound", "measure", "complex", "roundtrip", "geometry",
    "hausdorff", "oracle", "identity", "algebra", "well_definedness", "inclusion", "gini",
    "curve", "partition", "discretization", "zonoid",
]
DISPATCH = {("all",): DISPATCH_ALL, ("gini", "identity"): ["identity", "gini"]}


@pytest.mark.parametrize(
    "names, workers, size",
    [(["all"], 10**6, 17), (["all"], 3, 3), (["gini", "identity"], 8, 2)],
)
def test_pool_never_exceeds_the_suite_count(monkeypatch, names, workers, size):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    reports = run_suites(names, seed=0, workers=workers)
    [pool] = _RecordingPool.made
    assert pool.max_workers == size
    assert pool.names == DISPATCH[tuple(names)]
    wanted = [name for name in SUITES if "all" in names or name in names]
    assert [r.suite for r in reports] == wanted


@pytest.mark.parametrize(
    "names, dispatch, wanted",
    [
        (["zonoid", "skeleton_bound", "measure"], ["skeleton_bound", "measure", "zonoid"],
         ["measure", "skeleton_bound", "zonoid"]),
        (["curve", "product_bound"], ["product_bound", "curve"], ["curve", "product_bound"]),
        (["skeleton_bound", "oracle", "product_bound"],
         ["product_bound", "skeleton_bound", "oracle"],
         ["oracle", "product_bound", "skeleton_bound"]),
    ],
)
def test_pool_gets_the_longest_suites_first(monkeypatch, names, dispatch, wanted):
    # reports come back in registry order whatever the dispatch order
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    reports = run_suites(names, seed=0, workers=2)
    [pool] = _RecordingPool.made
    assert pool.names == dispatch
    assert [r.suite for r in reports] == wanted


@pytest.mark.parametrize("given, count", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)],
                         ids=["default", "caller_chose_2"])
def test_package_starts_openblas_at_one_thread(given, count):
    # imported before numpy, the package starts OpenBLAS at one thread
    # unless the caller's environment chose a count
    script = (f"import lorenz_hulls, numpy, scipy.spatial\n{inspect.getsource(_blas_counts)}\n"
              "print(_blas_counts())")
    counts = json.loads(_python(script, **given))
    if not counts:
        pytest.skip("no OpenBLAS mapped, or no /proc/self/maps")
    assert counts == [count] * len(counts)


def test_numpy_first_keeps_the_environment():
    # numpy has read the environment already, so the package leaves it be
    script = ("import os, numpy\nbefore = dict(os.environ)\nimport lorenz_hulls\n"
              "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert _python(script) == "True False\n"


FORKED_ORACLE = """
import os
import lorenz_hulls
from lorenz_hulls.suites import SUITES, Suite, _oracle_case, run_suites

def oracle_then_count(rng, case, seed, full):
    yield from _oracle_case(rng, case, seed, full)
    tasks = len(os.listdir("/proc/self/task"))
    yield tasks == 1, f"tasks={tasks}"

SUITES["oracle"] = Suite("oracle", "counts tasks", ("oracle", 200, 40, oracle_then_count))
reports = run_suites(["oracle", "gini"], seed=7, workers=2)
print([(r.suite, r.failures) for r in reports], reports[0].cases)
"""


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork"
    or not os.path.isdir("/proc/self/task"),
    reason="a worker sees the patched table only when it is forked; counts /proc/self/task",
)
def test_forked_worker_starts_no_blas_thread():
    # the oracle suite's directions @ points.T is the small scale's one BLAS
    # product large enough to start an OpenBLAS thread; in a process that
    # imports the package first, a worker that has run it is still one task
    assert _python(FORKED_ORACLE) == "[('oracle', []), ('gini', [])] 80\n"


ONE_WORKER_VERIFY = """
import sys
import lorenz_hulls.cli as cli
# numpy has imported ctypes, so ``-X importtime`` cannot see a second
# import of it; blocked from here on, any import of it fails
sys.modules["ctypes"] = None
sys.exit(cli.main(["verify", "--suite", "all", "--seed", "7", "--workers", "1"]))
"""


def test_one_worker_imports_neither_ctypes_nor_futures():
    src = str(Path(lorenz_hulls.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-X", "importtime", "-c", ONE_WORKER_VERIFY],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (Path(__file__).parent / "verify_reports" / "small_seed7.txt").read_text()
    imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert "lorenz_hulls.suites" in imported
    assert not [name for name in imported if name.startswith("concurrent")]


def test_worker_processes_match_one_process():
    one = render_reports(run_suites(["all"], 0, "small", workers=1))
    two = render_reports(run_suites(["all"], 0, "small", workers=2))
    assert two == one
    assert one.endswith("failures=0\n")
    assert multiprocessing.active_children() == []


SPAWNED_VERIFY = """
import multiprocessing, sys
from lorenz_hulls.suites import render_reports, run_suites
if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    sys.stdout.write(render_reports(run_suites(["all"], 7, "small", workers=2)))
"""


def test_spawned_workers_match_one_process():
    # workers that re-import the package, as where the default start method
    # is not fork, give the report of one process.  At seed 7 the window
    # scan answers every point-set pass (paired skeletons, split-atom
    # skeletons and the hausdorff suite's public segments alike), so no
    # process imports a scipy module: ``-X importtime``, which spawned
    # workers inherit, lists every module imported on stderr
    src = str(Path(lorenz_hulls.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    spawned = subprocess.run([sys.executable, "-X", "importtime", "-c", SPAWNED_VERIFY],
                             env=env, capture_output=True, text=True, timeout=300)
    assert spawned.returncode == 0, spawned.stderr
    assert spawned.stdout == render_reports(run_suites(["all"], 7, "small", workers=1))
    imported = [line.rsplit("|", 1)[-1].strip() for line in spawned.stderr.splitlines()]
    assert "lorenz_hulls.hulls" in imported
    assert not [name for name in imported if name.startswith("scipy")]


def test_geometry_and_zonoid_suites_solve_no_linear_program(monkeypatch):
    # the central certificate or the ascent decides each of their
    # containment and achieve cases (n <= 4, m <= 8)
    def refuse(*args, **kwargs):
        raise AssertionError("a suite solved a linear program")

    monkeypatch.setattr("lorenz_hulls.hulls.linprog", refuse)
    reports = run_suites(["geometry", "zonoid"], seed=7, scale="small")
    assert [(r.suite, r.failures) for r in reports] == [("geometry", []), ("zonoid", [])]
    assert all(r.cases > 0 for r in reports)


@pytest.mark.parametrize("full, cases", [(False, 3), (True, 2)])
def test_product_bound_antipodal_half_matches_direct(monkeypatch, full, cases):
    # criterion 6 evaluates the product support on half of its grid and
    # derives the other, antipodal half: each support, and each measured
    # value, stays within 1e-15 mass1 mass2 of evaluating the whole grid
    mass = lorenz_hulls.total_variation_mass
    antipodal, gaps = suites._antipodal_product_support, []

    def direct(a, b, half):
        support = suites.ZonogonSupport(suites.hull_of(b).generators)
        return suites.product_reach_many(a.atoms, support, np.vstack([half, -half]))

    def compared(a, b, half):
        h = antipodal(a, b, half)
        gaps.append((np.abs(h - direct(a, b, half)).max(), mass(a) * mass(b)))
        return h

    def measured(index, support):
        monkeypatch.setattr(suites, "_antipodal_product_support", support)
        ((ok, message),) = suites._product_bound_case(
            suites.case_rng(7, "product_bound", index), index, 7, full)
        assert ok, message
        return np.array([float(v) for v in re.findall(r"measured (\S+) bound", message)])

    for index in range(cases):
        derived, want = measured(index, compared), measured(index, direct)
        # the first support is that of the original measures' product
        mass1_mass2 = gaps[-4][1]
        assert derived.shape == want.shape == (3,)
        assert np.abs(derived - want).max() <= 1e-15 * mass1_mass2, index
    assert len(gaps) == 4 * cases
    assert all(gap <= 1e-15 * scale for gap, scale in gaps)

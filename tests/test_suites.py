"""``run_suites`` across worker processes, and the errors that cross them."""

import concurrent.futures
import ctypes
import io
import multiprocessing
import os
import pickle
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


def _blas_libraries():
    """``(get, set)`` of the thread count of each OpenBLAS mapped into this
    process, by the symbols ``suites._one_blas_thread`` tries; none where
    there is no /proc/self/maps."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    pairs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for get in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, get):
                pairs.append((handle[get], handle[get.replace("_get_", "_set_")]))
                break
    return pairs


def _blas_counts():
    return [get() for get, _ in _blas_libraries()]


@pytest.fixture
def two_blas_threads():
    # two threads in each library, so that a count the pool left at one shows
    pairs = _blas_libraries()
    before = [get() for get, _ in pairs]
    for _, set_count in pairs:
        set_count(2)
    yield
    for (_, set_count), count in zip(pairs, before):
        set_count(count)


class _RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records its size, the names it
    maps in their order and the BLAS thread counts at that time, and starts
    no process."""

    made = []

    def __init__(self, max_workers):
        self.max_workers, self.names, self.blas = max_workers, None, None
        self.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, names, *rest):
        self.names, self.blas = list(names), _blas_counts()
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


def test_pool_holds_blas_at_one_thread(monkeypatch, two_blas_threads):
    # the cap is set in the parent before the pool starts, and each
    # library's own count comes back when it closes
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    run_suites(["all"], seed=0, workers=2)
    [pool] = _RecordingPool.made
    assert pool.blas == [1] * len(_blas_libraries())
    assert _blas_counts() == [2] * len(pool.blas)


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork"
    or not os.path.isdir("/proc/self/task"),
    reason="a worker sees the patched table only when it is forked; counts /proc/self/task",
)
def test_forked_worker_starts_no_blas_thread(monkeypatch, two_blas_threads):
    # the oracle suite's directions @ points.T is the small scale's one BLAS
    # product large enough to start OpenBLAS's thread; capped in the parent,
    # a worker that has run it is still one task (two without the cap)
    def oracle_then_count(rng, case, seed, full):
        yield from _oracle_case(rng, case, seed, full)
        tasks = len(os.listdir("/proc/self/task"))
        yield tasks == 1, f"tasks={tasks}"

    monkeypatch.setitem(SUITES, "oracle", Suite("oracle", "counts tasks",
                                                ("oracle", 200, 40, oracle_then_count)))
    reports = run_suites(["oracle", "gini"], seed=7, workers=2)
    assert [(r.suite, r.failures) for r in reports] == [("oracle", []), ("gini", [])]
    assert reports[0].cases == 80
    assert set(_blas_counts()) <= {2}


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="a worker sees the patched table only when it is forked",
)
def test_blas_count_restored_when_a_suite_raises(monkeypatch, two_blas_threads):
    monkeypatch.setitem(SUITES, "gini", Suite("gini", "raises", ("gini", 1, 1, _outside)))
    with pytest.raises(NotInHull):
        run_suites(["product_bound", "gini"], seed=7, workers=2)
    assert set(_blas_counts()) <= {2}


@pytest.mark.parametrize("maps", ["no openblas", OSError])
def test_blas_cap_without_openblas_is_a_no_op(monkeypatch, two_blas_threads, maps):
    # with no OpenBLAS in /proc/self/maps, or no such file, no library is
    # loaded and no count is set
    def fake_open(path, *args, **kwargs):
        assert path == "/proc/self/maps"
        if maps is OSError:
            raise OSError("no maps")
        return io.StringIO("7f00-7f01 r-xp 00000000 00:00 0  /usr/lib/libm.so.6\n")

    def refuse(*args, **kwargs):
        raise AssertionError("a library was loaded")

    monkeypatch.setattr(suites, "open", fake_open, raising=False)
    with monkeypatch.context() as patch:
        patch.setattr(ctypes, "CDLL", refuse)
        with suites._one_blas_thread():
            pass
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "made", [])
    reports = run_suites(["gini", "identity"], seed=0, workers=2)
    [pool] = _RecordingPool.made
    assert set(pool.blas) <= {2} and set(_blas_counts()) <= {2}
    assert [r.suite for r in reports] == ["identity", "gini"]


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

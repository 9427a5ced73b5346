"""``run_suites`` across worker processes, and the errors that cross them."""

import concurrent.futures
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lorenz_hulls
from lorenz_hulls import errors
from lorenz_hulls.errors import LorenzError, NotInHull
from lorenz_hulls.suites import SUITES, Suite, SuiteReport, render_reports, run_suites

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


class _RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records its size and the
    names it maps, and starts no process."""

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
    wanted = [name for name in SUITES if "all" in names or name in names]
    assert pool.names == wanted == [r.suite for r in reports]


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

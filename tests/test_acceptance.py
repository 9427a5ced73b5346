"""Acceptance gate: one test per criterion, run at full scale.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output).  Each criterion runs its row of the
``suites.SUITES`` table, whose case bodies pin the tolerances; criteria
with stated runtime budgets assert them here.
"""

import subprocess
import sys
import time

from lorenz_hulls import suites

SEED = 7


def _run(criterion: str, suite_fn, limit_s: float | None = None) -> None:
    start = time.perf_counter()
    report = suite_fn(SEED, "full")
    elapsed = time.perf_counter() - start
    status = "PASS" if report.ok else "FAIL"
    budget = f", {elapsed:.1f}s" + (f" of {limit_s:.0f}s" if limit_s else "")
    print(f"criterion {criterion}: {status} ({report.cases} cases{budget})")
    for failure in report.failures[:5]:
        print(f"  case {failure.case}: {failure.message}")
    assert report.ok, f"criterion {criterion}: {len(report.failures)} failing cases"
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {criterion} took {elapsed:.1f}s"


def test_criterion_01_subset_sum_oracle():
    _run("1 (subset-sum oracle)", suites.SUITES["oracle"], limit_s=30.0)


def test_criterion_02_product_well_definedness():
    _run("2 (well-definedness)", suites.SUITES["well_definedness"])


def test_criterion_03_algebraic_laws_exact():
    _run("3 (algebraic laws)", suites.SUITES["algebra"])


def test_criterion_04_inclusion_preservation():
    _run("4 (inclusion preservation)", suites.SUITES["inclusion"])


def test_criterion_05_gini_equivalence():
    _run("5 (Gini equivalence)", suites.SUITES["gini"])


def test_criterion_06_product_error_bound():
    _run("6 (product error bound)", suites.SUITES["product_bound"], limit_s=120.0)


def test_criterion_07_skeleton_bound():
    _run("7 (skeleton bound)", suites.SUITES["skeleton_bound"])


def test_criterion_08_zonoid_representation():
    _run("8 (zonoid representation)", suites.SUITES["zonoid"])


def test_criterion_09_complex_consistency():
    _run("9 (complex consistency)", suites.SUITES["complex"])


def _verify_all(workers: str) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "lorenz_hulls.cli", "verify", "--suite", "all",
         "--seed", "7", "--workers", workers],
        capture_output=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
    return proc.stdout


def test_criterion_10_determinism():
    first = _verify_all("1")
    second = _verify_all("1")
    eight = _verify_all("8")
    ok = first == second == eight
    print(f"criterion 10 (determinism): {'PASS' if ok else 'FAIL'} "
          f"({len(first)} report bytes, workers 1 and 8)")
    assert first == second, "repeated runs differ"
    assert first == eight, "worker counts 1 and 8 differ"

"""The ``cli`` workload: cold ``python -m lorenz_hulls.cli`` subprocesses.

``write_inputs`` draws small measures from the seed and writes them as
measure files; ``invocations`` lists the calls, each with the exit code it
expects and a check of its output.  Checks recompute the expected answer
with plain numpy where they can.  Every call is a fresh interpreter, so
each one pays the package import, as a user of the command does.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import lorenz_hulls as lh
from library import (
    classical_gini,
    closed_reach,
    inf_sphere_net,
    interleave,
    lorenz_points,
    mass,
    support_gap_bounds,
)

SUBCOMMAND, MALFORMED, VERIFY = "subcommand", "malformed", "verify"
VERIFY_WORKERS = (1, 2)
# verify is the package's fixed self-test: its documented seed, run three times
# at each worker count, so its time does not move with the workload seed
VERIFY_SEED = 7
VERIFY_REPEATS = 3


@dataclass
class Invocation:
    label: str
    group: str
    args: list
    expect_code: int
    check: Callable[[str, str], list]  # (stdout, stderr) -> problems
    # a documented defect of the program: reported, not counted as failed
    known_defect: str = ""


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(b"cli")]))


def _write(directory: Path, name: str, payload) -> str:
    path = directory / name
    text = payload if isinstance(payload, str) else json.dumps(payload)
    path.write_text(text, encoding="utf-8")
    return str(path)


def _csv_rows(text: str) -> np.ndarray:
    return np.array([[float(x) for x in line.split(",")] for line in text.splitlines()])


def write_inputs(directory: Path, seed: int) -> dict:
    """Write the seeded measure files with the package's own serializer;
    return their atoms and paths."""
    rng = _rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    atoms = {
        "plane": rng.uniform(-1.0, 1.0, (8, 2)),
        "space": rng.uniform(-1.0, 1.0, (8, 3)),
        "a": rng.uniform(-1.0, 1.0, (6, 2)),
        "b": rng.uniform(-1.0, 1.0, (6, 2)),
        "a3": rng.uniform(-1.0, 1.0, (6, 3)),
        "b3": rng.uniform(-1.0, 1.0, (6, 3)),
        "skeleton": rng.uniform(-1.0, 1.0, (12, 3)),
        "fine": rng.uniform(-1.0, 1.0, (200, 2)),
        "achieve": rng.uniform(-1.0, 1.0, (6, 3)),
    }
    atoms["inner"] = atoms["plane"] * rng.uniform(0.3, 0.9, (8, 1))
    incomes = rng.lognormal(0.0, 1.0, 50)
    atoms["income"] = np.column_stack([np.full(50, 1.0 / 50), incomes / incomes.sum()])
    paths = {}
    for name, rows in atoms.items():
        measure = lh.VectorMeasure(rows.shape[1], rows)
        paths[name] = _write(directory, f"{name}.json", lh.measure_to_json_dict(measure))
    paths["not_json"] = _write(directory, "not_json.json", '{"dim": 2, "atoms": [[1.0, 2.0]')
    paths["arity"] = _write(directory, "arity.json", {"dim": 2, "atoms": [[1.0, 1.0, 1.0]]})
    paths["atoms5"] = _write(directory, "atoms5.json", {"dim": 2, "atoms": 5})
    target = rng.uniform(0.2, 0.8, 6) @ atoms["achieve"]
    return {"atoms": atoms, "paths": paths, "incomes": incomes, "target": target,
            "out": str(directory / "curve.csv")}


# ---------------------------------------------------------------------------
# output checks


def _check_vertices(g):
    def check(stdout, stderr):
        v = _csv_rows(stdout)
        net, _ = inf_sphere_net(2, 64)
        polygon = (net @ v.T).max(axis=1)
        if np.abs(polygon - closed_reach(g, net)).max() > 1e-9 * max(1.0, mass(g)):
            return ["vertex polygon support differs from the closed form"]
        return []
    return check


def _check_reach_table(g):
    def check(stdout, stderr):
        rows = _csv_rows(stdout)
        if np.abs(rows[:, -1] - closed_reach(g, rows[:, :-1])).max() > 1e-9 * max(1.0, mass(g)):
            return ["reach table differs from the closed form"]
        return []
    return check


def _check_measure(want):
    def check(stdout, stderr):
        got = np.array(json.loads(stdout)["atoms"], dtype=np.float64)
        return [] if got.shape == want.shape and np.array_equal(got, want) else ["atoms differ"]
    return check


def _check_included(stdout, stderr):
    verdict = json.loads(stdout)["verdict"]
    return [] if verdict == "included" else [f"verdict {verdict!r}"]


def _check_hausdorff(g1, g2, per_edge):
    def check(stdout, stderr):
        payload = json.loads(stdout)
        net, radius = inf_sphere_net(g1.shape[1], per_edge)
        lower, upper = support_gap_bounds(g1, g2, net, radius)
        d = payload["distance"]
        problems = [] if payload["mode"] == "exact" else [f"mode {payload['mode']!r}"]
        if not lower - 1e-7 <= d <= upper:
            problems.append(f"distance {d!r} outside [{lower!r}, {upper!r}]")
        return problems
    return check


def _check_gini(incomes):
    def check(stdout, stderr):
        got, want = float(stdout), classical_gini(incomes)
        return [] if abs(got - want) <= 1e-9 else [f"gini {got!r} vs {want!r}"]
    return check


def _check_curve(path, incomes):
    def check(stdout, stderr):
        got = _csv_rows(Path(path).read_text(encoding="utf-8"))
        want = lorenz_points(incomes)
        ok = got.shape == want.shape and np.abs(got - want).max() <= 1e-9
        return [] if ok else ["curve differs from cumulative sorted incomes"]
    return check


def _check_skeleton(atoms):
    def check(stdout, stderr):
        got = _csv_rows(stdout)
        bits = (np.arange(2 ** atoms.shape[0])[:, None] >> np.arange(atoms.shape[0])) & 1
        want = np.unique(bits @ atoms, axis=0)
        ok = got.shape == want.shape and np.abs(np.unique(got, axis=0) - want).max() <= 1e-12
        return [] if ok else [f"skeleton has {got.shape[0]} points, expected {want.shape[0]}"]
    return check


def _check_discretize(stdout, stderr):
    report = json.loads(stdout)
    if not report["measured_distance"] <= report["bound"] or report["mode"] != "exact":
        return [f"measured {report['measured_distance']!r} > bound {report['bound']!r}"]
    return []


def _check_achieve(atoms, target):
    def check(stdout, stderr):
        t = np.array(json.loads(stdout)["lambda"])
        residual = np.abs(t @ atoms - target).sum()
        ok = t.min() >= 0.0 and t.max() <= 1.0 and residual <= 1e-7
        return [] if ok else [f"certificate residual {residual!r}"]
    return check


def _check_one_line_error(stdout, stderr):
    lines = [line for line in stderr.splitlines() if not line.startswith("import time:")]
    if len(lines) != 1 or "Traceback" in stderr:
        return [f"expected a one-line error, got {len(lines)} lines"]
    return []


def _verify_check(reports: set):
    def check(stdout, stderr):
        reports.add(stdout)
        problems = [] if "failures=0\n" in stdout.splitlines(True)[-1] else ["suites failed"]
        if len(reports) != 1:
            problems.append("verify reports differ between runs or worker counts")
        return problems
    return check


def invocations(inputs: dict, seed: int) -> list[Invocation]:
    a, p = inputs["atoms"], inputs["paths"]
    reports: set = set()
    out = [
        Invocation("hull2", SUBCOMMAND, ["hull", "-i", p["plane"]], 0, _check_vertices(a["plane"])),
        Invocation("hull3", SUBCOMMAND, ["hull", "-i", p["space"], "--seed", str(seed)], 0,
                   _check_reach_table(a["space"])),
        Invocation("product", SUBCOMMAND, ["product", p["a"], p["b"]], 0,
                   _check_measure((a["a"][:, None, :] * a["b"][None, :, :]).reshape(-1, 2))),
        Invocation("sum", SUBCOMMAND, ["sum", p["a"], p["b"]], 0,
                   _check_measure(np.vstack([a["a"], a["b"]]))),
        Invocation("include", SUBCOMMAND, ["include", p["inner"], p["plane"]], 0, _check_included),
        Invocation("hausdorff2", SUBCOMMAND, ["hausdorff", p["a"], p["b"]], 0,
                   _check_hausdorff(a["a"], a["b"], 1024)),
        Invocation("hausdorff3", SUBCOMMAND, ["hausdorff", p["a3"], p["b3"]], 0,
                   _check_hausdorff(a["a3"], a["b3"], 24)),
        Invocation("gini", SUBCOMMAND, ["gini", "-i", p["income"]], 0, _check_gini(inputs["incomes"])),
        Invocation("curve", SUBCOMMAND, ["curve", "-i", p["income"], "-o", inputs["out"]], 0,
                   _check_curve(inputs["out"], inputs["incomes"])),
        Invocation("skeleton", SUBCOMMAND, ["skeleton", "-i", p["skeleton"]], 0,
                   _check_skeleton(a["skeleton"])),
        Invocation("discretize", SUBCOMMAND,
                   ["discretize", "-i", p["fine"], "--delta", "0.25", "--reps", "2"], 0,
                   _check_discretize),
        Invocation("achieve", SUBCOMMAND,
                   ["achieve", "-i", p["achieve"],
                    "--target=" + ",".join(repr(float(x)) for x in inputs["target"])],
                   0, _check_achieve(a["achieve"], inputs["target"])),
        Invocation("not_json", MALFORMED, ["hull", "-i", p["not_json"]], 2, _check_one_line_error),
        Invocation("arity", MALFORMED, ["hull", "-i", p["arity"]], 2, _check_one_line_error),
        Invocation("atoms5", MALFORMED, ["hull", "-i", p["atoms5"]], 2, _check_one_line_error,
                   known_defect="a non-list \"atoms\" exits 1 with a TypeError traceback"),
    ]
    verify = [
        Invocation(f"verify_w{workers}_{repeat}", VERIFY,
                   ["verify", "--suite", "all", "--scale", "small", "--seed", str(VERIFY_SEED),
                    "--workers", str(workers)],
                   0, _verify_check(reports))
        for repeat in range(VERIFY_REPEATS)
        for workers in VERIFY_WORKERS
    ]
    return interleave([out, verify])

"""Per-layer metrics computed from the spans of one traced pass.

``PER_LAYER`` is the fixed list of (name, unit) pairs every traced run
prints, on every workload; a layer a workload never calls reads 0.  Units
marked ``-computed`` are derived from operation counts and payload sizes,
not measured by hardware counters.
"""

from __future__ import annotations

import re
import statistics

from tracer import self_times

SUBCOMMANDS = (
    "hull", "product", "sum", "include", "hausdorff", "gini", "curve",
    "discretize", "achieve", "skeleton", "verify",
)
SUITES = (
    "measure", "complex", "roundtrip", "geometry", "hausdorff", "oracle",
    "identity", "algebra", "well_definedness", "inclusion", "gini", "curve",
    "partition", "discretization", "product_bound", "skeleton_bound", "zonoid",
)

PER_LAYER = (
    [
        ("hulls.reach_many.calls", "count"),
        ("hulls.reach_many.self_s", "s"),
        ("hulls.reach_many.gflops", "GFLOP/s-computed"),
        ("hulls.ZonogonSupport.eval.self_s", "s"),
        ("hulls.ZonogonSupport.eval.queries", "count"),
        ("hulls.ZonogonSupport.eval.ns_per_query", "ns"),
        ("ops.product_reach_many.calls", "count"),
        ("ops.product_reach_many.self_s", "s"),
        ("hulls.hausdorff_convex.self_s", "s"),
        ("hulls.includes.self_s", "s"),
        ("hulls.zonogon_vertices.self_s", "s"),
        ("hulls.area_2d.self_s", "s"),
        ("hulls.contains_point.calls", "count"),
        ("hulls.contains_point.self_s", "s"),
        ("hulls.skeleton_points.calls", "count"),
        ("hulls.skeleton_points.self_s", "s"),
        ("hulls.skeleton_points.points", "count"),
        ("hulls.hausdorff_points.calls", "count"),
        ("hulls.hausdorff_points.self_s", "s"),
        ("hulls.hausdorff_points.pairs", "count"),
        ("lp.calls", "count"),
        ("lp.self_s", "s"),
        ("lp.calls_per_hausdorff", "ratio"),
        ("lp.nonzero_status", "count"),
        ("ops.lorenz_product.self_s", "s"),
        ("ops.hull_equal.self_s", "s"),
        ("ops.gini.self_s", "s"),
        ("ops.lorenz_curve.self_s", "s"),
        ("discretization.discretize.self_s", "s"),
        ("discretization.SpherePartition.cell_of.self_s", "s"),
        ("discretization.discretize.atoms_in", "count"),
        ("discretization.discretize.cells_out", "count"),
        ("discretization.cells_per_atom", "ratio"),
        ("zonoid.achieve.calls", "count"),
        ("zonoid.achieve.self_s", "s"),
        ("sampling.case_rng.calls", "count"),
        ("sampling.unit_directions.self_s", "s"),
        ("sampling.sign_vectors.self_s", "s"),
        ("measures.measure_from_json_dict.self_s", "s"),
        ("measures.measure_to_json_dict.self_s", "s"),
        ("measures.coordinate_product.self_s", "s"),
        ("measures.json_bytes_in", "B-computed"),
        ("measures.json_bytes_out", "B-computed"),
        ("cli.import_s", "s"),
        ("cli.import.scipy_s", "s"),
        ("cli.import.numpy_s", "s"),
        ("cli.main_s", "s"),
    ]
    + [(f"cli.{sub}.main_s", "s") for sub in SUBCOMMANDS]
    + [(f"suites.{suite}.busy_s", "s") for suite in SUITES]
    + [
        ("suites.busy_s", "s"),
        ("suites.parallel_eff", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]
)

_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)\s*$")


def import_seconds(stderr: str) -> dict:
    """Cumulative import times from ``python -X importtime`` output.

    ``lorenz_hulls`` is every top-level import of the package or its
    modules; ``scipy`` and ``numpy`` are their outermost imports anywhere.
    """
    entries = []
    for line in stderr.splitlines():
        hit = _IMPORT_LINE.match(line)
        if hit:
            entries.append((len(hit.group(2)) // 2, hit.group(3), int(hit.group(1)) * 1e-6))
    totals = {"lorenz_hulls": 0.0, "scipy": 0.0, "numpy": 0.0}
    # the output lists children before parents; walk it parents first
    ancestors: list[str] = []
    for depth, name, seconds in reversed(entries):
        del ancestors[depth:]
        root = name.split(".")[0]
        if root in totals and (root == "lorenz_hulls" and depth == 0 or
                               root != "lorenz_hulls" and not any(
                                   a.split(".")[0] == root for a in ancestors)):
            totals[root] += seconds
        ancestors.append(name)
    return totals


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans, overhead_frac: float, cli_imports=()) -> dict:
    """Every ``PER_LAYER`` metric from one traced pass.

    ``cli_imports`` holds one ``import_seconds`` result per traced command
    invocation.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls: dict = {}
    busy: dict = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + own[s.id]

    def total(name, key):
        return sum(s.sizes.get(key, 0) for s in spans if s.name == name)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, unit in PER_LAYER:
        if name.endswith(".calls"):
            out[name] = float(calls.get(name[: -len(".calls")], 0))
        elif name.endswith(".self_s"):
            out[name] = busy.get(name[: -len(".self_s")], 0.0)
    flops = sum(2.0 * s.sizes.get("k", 0) * s.sizes.get("m", 0) * s.sizes.get("n", 0)
                for s in spans if s.name == "hulls.reach_many")
    out["hulls.reach_many.gflops"] = ratio(flops, out["hulls.reach_many.self_s"]) * 1e-9
    queries = total("hulls.ZonogonSupport.eval", "queries")
    out["hulls.ZonogonSupport.eval.queries"] = float(queries)
    out["hulls.ZonogonSupport.eval.ns_per_query"] = ratio(
        out["hulls.ZonogonSupport.eval.self_s"], queries) * 1e9
    out["hulls.skeleton_points.points"] = float(total("hulls.skeleton_points", "points"))
    out["hulls.hausdorff_points.pairs"] = float(total("hulls.hausdorff_points", "pairs"))

    # LPs solved under a hausdorff_convex span, per such call that solved any
    per_call: dict = {}
    for s in spans:
        if s.name != "lp":
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != "hulls.hausdorff_convex":
            parent = by_id.get(parent.parent)
        if parent is not None:
            per_call[parent.id] = per_call.get(parent.id, 0) + 1
    out["lp.calls_per_hausdorff"] = ratio(sum(per_call.values()), len(per_call))
    out["lp.nonzero_status"] = float(sum(
        1 for s in spans if s.name == "lp" and s.sizes.get("status", 0) != 0))

    atoms_in = total("discretization.discretize", "atoms_in")
    cells_out = total("discretization.discretize", "cells_out")
    out["discretization.discretize.atoms_in"] = float(atoms_in)
    out["discretization.discretize.cells_out"] = float(cells_out)
    out["discretization.cells_per_atom"] = ratio(cells_out, atoms_in)
    out["measures.json_bytes_in"] = float(total("measures.measure_from_json_dict", "bytes_in"))
    out["measures.json_bytes_out"] = float(total("measures.measure_to_json_dict", "bytes_out"))

    out["cli.import_s"] = _median([t["lorenz_hulls"] for t in cli_imports])
    out["cli.import.scipy_s"] = _median([t["scipy"] for t in cli_imports])
    out["cli.import.numpy_s"] = _median([t["numpy"] for t in cli_imports])
    mains = [s for s in spans if s.name == "cli.main"]
    out["cli.main_s"] = _median([s.end - s.start for s in mains])
    for sub in SUBCOMMANDS:
        times = [s.end - s.start for s in mains if s.sizes.get("argv", [None])[0] == sub]
        out[f"cli.{sub}.main_s"] = _mean(times)

    # per-suite busy time uncontended (one worker); efficiency from two
    runs = [s for s in spans if s.name == "suites.run_suites"]
    serial = [s.sizes["busy"] for s in runs if s.sizes.get("workers") == 1]
    for suite in SUITES:
        out[f"suites.{suite}.busy_s"] = _mean([b.get(suite, 0.0) for b in serial])
    out["suites.busy_s"] = _mean([sum(b.values()) for b in serial])
    parallel = [s for s in runs if s.sizes.get("workers") == 2]
    out["suites.parallel_eff"] = ratio(
        sum(sum(s.sizes["busy"].values()) for s in parallel),
        sum(2 * (s.end - s.start) for s in parallel))
    out["trace.overhead_frac"] = overhead_frac
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}

"""Command-line interface.

Measure files are JSON: ``{"dim": n, "atoms": [[...], ...], "labels": [...]?,
"complex": false}``; complex measures set ``"complex": true`` and store atoms
interleaved (re, im).  Exit codes: 0 success, 1 negative verdict of a
checking command, 2 usage, parse, or dimension errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import discretization as disc
from .errors import LorenzError, NotInHull, ParseError
from .hulls import hausdorff_convex, hull_of, includes, reach_many, skeleton_points
from .measures import (
    VectorMeasure,
    coordinate_product,
    direct_sum,
    measure_from_json_dict,
    measure_to_json_dict,
    total_variation_mass,
)
from .ops import gini, lorenz_curve
from .sampling import case_rng, unit_directions
from .zonoid import achieve, certificate_to_json_dict


def _load_measure(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return measure_from_json_dict(payload)


def _load_real_measure(path: str) -> VectorMeasure:
    measure = _load_measure(path)
    if not isinstance(measure, VectorMeasure):
        raise ParseError(f"{path} holds a complex measure where a real one is needed")
    return measure


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_measure(measure, out: str | None) -> None:
    _emit(json.dumps(measure_to_json_dict(measure), sort_keys=True) + "\n", out)


def _csv(rows) -> str:
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in rows)


def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _witness_payload(result) -> list | None:
    for witness in (result.witness_direction, result.witness_point):
        if witness is not None:
            return [float(x) for x in witness]
    return None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_hull(args) -> int:
    measure = _load_real_measure(args.input)
    zonotope = hull_of(measure)
    if measure.dimension == 2:
        from .hulls import zonogon_vertices

        _emit(_csv(zonogon_vertices(zonotope)), args.out)
    else:
        rng = case_rng(args.seed, "cli.hull")
        directions = unit_directions(rng, args.dirs, measure.dimension)
        values = reach_many(zonotope, directions)
        rows = [list(d) + [v] for d, v in zip(directions, values)]
        _emit(_csv(rows), args.out)
    return 0


def _cmd_product(args) -> int:
    a, b = _load_real_measure(args.a), _load_real_measure(args.b)
    _write_measure(coordinate_product(a, b), args.out)
    return 0


def _cmd_sum(args) -> int:
    a, b = _load_real_measure(args.a), _load_real_measure(args.b)
    _write_measure(direct_sum(a, b), args.out)
    return 0


def _cmd_include(args) -> int:
    inner = hull_of(_load_real_measure(args.inner))
    outer = hull_of(_load_real_measure(args.outer))
    result = includes(
        inner, outer, args.mode, dirs=args.dirs, seed=args.seed, tol=args.tol
    )
    payload = {
        "verdict": result.verdict,
        "witness": None if result.witness is None else [float(x) for x in result.witness],
        "max_violation": result.max_violation,
    }
    _emit(_json_line(payload), args.out)
    return 1 if result.verdict == "excluded" else 0


def _cmd_hausdorff(args) -> int:
    a = hull_of(_load_real_measure(args.a))
    b = hull_of(_load_real_measure(args.b))
    result = hausdorff_convex(a, b, seed=args.seed, dirs=args.dirs)
    payload = {
        "distance": result.distance,
        "witness": _witness_payload(result),
        "mode": result.mode,
    }
    _emit(_json_line(payload), args.out)
    return 0


def _cmd_gini(args) -> int:
    value = gini(_load_real_measure(args.input))
    _emit(f"{value:.12f}\n", args.out)
    return 0


_SVG_TEMPLATE = """<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">
<rect x="0" y="0" width="1" height="1" fill="white" stroke="black" stroke-width="0.004"/>
<line x1="0" y1="1" x2="1" y2="0" stroke="gray" stroke-width="0.004"/>
<polyline points="{points}" fill="none" stroke="black" stroke-width="0.008"/>
</svg>
"""


def _cmd_curve(args) -> int:
    curve = lorenz_curve(_load_real_measure(args.input))
    _emit(_csv(curve.points), args.out)
    if args.out:
        svg_points = " ".join(f"{x:.6f},{1.0 - y:.6f}" for x, y in curve.points)
        svg_path = Path(args.out).with_suffix(".svg")
        svg_path.write_text(_SVG_TEMPLATE.format(points=svg_points), encoding="utf-8")
    return 0


def _cmd_discretize(args) -> int:
    measure = _load_real_measure(args.input)
    part = disc.partition_sphere(measure.dimension, args.delta)
    approx = disc.discretize(measure, part, args.reps)
    if args.out:
        _write_measure(approx, args.out)
    mass = total_variation_mass(measure)
    measured = hausdorff_convex(hull_of(measure), hull_of(approx))
    report = {
        "delta": args.delta,
        "K": part.cell_count,
        "N": args.reps,
        "bound": args.delta * mass,
        "measured_distance": measured.distance,
        "mode": measured.mode,
    }
    sys.stdout.write(_json_line(report))
    return 0


def _cmd_achieve(args) -> int:
    measure = _load_real_measure(args.input)
    target = [float(x) for x in args.target.split(",")]
    try:
        cert = achieve(measure, target, tol=args.tol)
    except NotInHull as exc:
        payload = {
            "error": "not_in_hull",
            "witness": [float(x) for x in exc.witness],
        }
        _emit(_json_line(payload), args.out)
        return 1
    _emit(_json_line(certificate_to_json_dict(cert)), args.out)
    return 0


def _cmd_skeleton(args) -> int:
    measure = _load_real_measure(args.input)
    _emit(_csv(skeleton_points(measure).points), args.out)
    return 0


def _cmd_verify(args) -> int:
    import time

    from .suites import render_reports, run_suites

    start = time.perf_counter()
    reports = run_suites([args.suite], seed=args.seed, scale=args.scale, workers=args.workers)
    elapsed = time.perf_counter() - start
    text = render_reports(reports)
    _emit(text, args.out)
    print(f"wall time: {elapsed:.3f}s", file=sys.stderr)
    return 0 if all(r.ok for r in reports) else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorenz",
        description="Algebra of Lorenz hulls of finite signed vector measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, inputs=0, named_input=False):
        if named_input:
            p.add_argument("--input", "-i", required=True, help="measure JSON file")
        for name in ("a", "b")[:inputs]:
            p.add_argument(name, help="measure JSON file")
        p.add_argument("--out", "-o", default=None, help="output file (default stdout)")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--dirs", type=int, default=200)

    p = sub.add_parser("hull", help="vertex CSV (n=2) or seeded reach table")
    add_common(p, named_input=True)
    p.set_defaults(func=_cmd_hull)

    p = sub.add_parser("product", help="coordinate-wise product measure")
    add_common(p, inputs=2)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("sum", help="direct sum measure")
    add_common(p, inputs=2)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("include", help="zonotope inclusion test")
    p.add_argument("inner", help="inner measure JSON file")
    p.add_argument("outer", help="outer measure JSON file")
    p.add_argument("--out", "-o", default=None)
    p.add_argument("--mode", choices=("exact2d", "sampled"), default="exact2d")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dirs", type=int, default=1000)
    p.set_defaults(func=_cmd_include)

    p = sub.add_parser("hausdorff", help="1-norm Hausdorff distance between hulls")
    add_common(p, inputs=2)
    p.set_defaults(func=_cmd_hausdorff)

    p = sub.add_parser("gini", help="hull-area Gini coefficient")
    add_common(p, named_input=True)
    p.set_defaults(func=_cmd_gini)

    p = sub.add_parser("curve", help="Lorenz curve CSV (and SVG next to --out)")
    add_common(p, named_input=True)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("discretize", help="direction-bucketed approximation")
    add_common(p, named_input=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--reps", type=int, default=1)
    p.set_defaults(func=_cmd_discretize)

    p = sub.add_parser("achieve", help="coefficients and intervals for a hull point")
    add_common(p, named_input=True)
    p.add_argument("--target", required=True, help="comma-separated coordinates")
    p.set_defaults(func=_cmd_achieve)

    p = sub.add_parser("skeleton", help="subset-sum point CSV")
    add_common(p, named_input=True)
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("verify", help="run seeded property suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=("small", "full"), default="small")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default LORENZ_THREADS or 1)")
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, LorenzError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

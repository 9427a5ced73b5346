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
from .hulls import (
    hausdorff_convex, hull_of, includes, reach_many, skeleton_points, zonogon_vertices
)
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


def _load_real_measure(path: str) -> VectorMeasure:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    measure = measure_from_json_dict(payload)
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


def _cmd_hull(args, measure) -> int:
    zonotope = hull_of(measure)
    if measure.dimension == 2:
        _emit(_csv(zonogon_vertices(zonotope)), args.out)
    else:
        rng = case_rng(args.seed, "cli.hull")
        directions = unit_directions(rng, args.dirs, measure.dimension)
        values = reach_many(zonotope, directions)
        rows = [list(d) + [v] for d, v in zip(directions, values)]
        _emit(_csv(rows), args.out)
    return 0


def _cmd_product(args, a, b) -> int:
    _write_measure(coordinate_product(a, b), args.out)
    return 0


def _cmd_sum(args, a, b) -> int:
    _write_measure(direct_sum(a, b), args.out)
    return 0


def _cmd_include(args, inner, outer) -> int:
    result = includes(hull_of(inner), hull_of(outer), args.mode,
                      dirs=args.dirs, seed=args.seed, tol=args.tol)
    payload = {
        "verdict": result.verdict,
        "witness": None if result.witness is None else [float(x) for x in result.witness],
        "max_violation": result.max_violation,
    }
    _emit(_json_line(payload), args.out)
    return 1 if result.verdict == "excluded" else 0


def _cmd_hausdorff(args, a, b) -> int:
    result = hausdorff_convex(hull_of(a), hull_of(b), seed=args.seed, dirs=args.dirs)
    payload = {
        "distance": result.distance,
        "witness": _witness_payload(result),
        "mode": result.mode,
    }
    _emit(_json_line(payload), args.out)
    return 0


def _cmd_gini(args, measure) -> int:
    _emit(f"{gini(measure):.12f}\n", args.out)
    return 0


_SVG_TEMPLATE = """<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">
<rect x="0" y="0" width="1" height="1" fill="white" stroke="black" stroke-width="0.004"/>
<line x1="0" y1="1" x2="1" y2="0" stroke="gray" stroke-width="0.004"/>
<polyline points="{points}" fill="none" stroke="black" stroke-width="0.008"/>
</svg>
"""


def _cmd_curve(args, measure) -> int:
    if args.out and Path(args.out).suffix.lower() == ".svg":
        raise ValueError(f"--out {args.out} names the SVG written next to the CSV")
    curve = lorenz_curve(measure)
    _emit(_csv(curve.points), args.out)
    if args.out:
        svg_points = " ".join(f"{x:.6f},{1.0 - y:.6f}" for x, y in curve.points)
        svg_path = Path(args.out).with_suffix(".svg")
        svg_path.write_text(_SVG_TEMPLATE.format(points=svg_points), encoding="utf-8")
    return 0


def _cmd_discretize(args, measure) -> int:
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


def _cmd_achieve(args, measure) -> int:
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


def _cmd_skeleton(args, measure) -> int:
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
# command table

def _int_option(low: int, what: str):
    """Option type: an integer of at least ``low``, else argparse's usage
    error naming it ``what``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"invalid {what} int value: {text!r}")
        return value

    return parse


# option -> (flags, add_argument keywords); each command row sets the default
_OPTIONS = {
    "out": (("--out", "-o"), {"help": "output file (default stdout)"}),
    "tol": (("--tol",), {"type": float}),
    "seed": (("--seed",), {"type": _int_option(0, "nonnegative")}),
    "dirs": (("--dirs",), {"type": _int_option(0, "nonnegative")}),
    "mode": (("--mode",), {"choices": ("exact2d", "sampled")}),
    "delta": (("--delta",), {"type": float, "required": True}),
    "reps": (("--reps",), {"type": int}),
    "target": (("--target",), {"required": True, "help": "comma-separated coordinates"}),
    "suite": (("--suite",), {}),
    "scale": (("--scale",), {"choices": ("small", "full")}),
    "workers": (("--workers",), {"type": _int_option(1, "positive"),
                                 "help": "worker processes (default 1)"}),
}

# command -> (handler, help, measure files in load order, {option: default});
# "input" is the -i/--input file, any other name a positional one
_COMMANDS = {
    "hull": (_cmd_hull, "vertex CSV (n=2) or seeded reach table", ("input",),
             {"out": None, "seed": 0, "dirs": 200}),
    "product": (_cmd_product, "coordinate-wise product measure", ("a", "b"), {"out": None}),
    "sum": (_cmd_sum, "direct sum measure", ("a", "b"), {"out": None}),
    "include": (_cmd_include, "zonotope inclusion test", ("inner", "outer"),
                {"out": None, "mode": "exact2d", "tol": 1e-9, "seed": 0, "dirs": 1000}),
    "hausdorff": (_cmd_hausdorff, "1-norm Hausdorff distance between hulls", ("a", "b"),
                  {"out": None, "seed": 0, "dirs": 200}),
    "gini": (_cmd_gini, "hull-area Gini coefficient", ("input",), {"out": None}),
    "curve": (_cmd_curve, "Lorenz curve CSV (and SVG next to --out)", ("input",),
              {"out": None}),
    "discretize": (_cmd_discretize, "direction-bucketed approximation", ("input",),
                   {"out": None, "delta": None, "reps": 1}),
    "achieve": (_cmd_achieve, "coefficients and intervals for a hull point", ("input",),
                {"out": None, "target": None, "tol": 1e-9}),
    "skeleton": (_cmd_skeleton, "subset-sum point CSV", ("input",), {"out": None}),
    "verify": (_cmd_verify, "run seeded property suites", (),
               {"suite": "all", "seed": 0, "scale": "small", "workers": 1, "out": None}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorenz",
        description="Algebra of Lorenz hulls of finite signed vector measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, inputs, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest in inputs:
            if dest == "input":
                p.add_argument("--input", "-i", required=True, help="measure JSON file")
            else:
                p.add_argument(dest, help="measure JSON file")
        for dest, default in options.items():
            flags, keywords = _OPTIONS[dest]
            p.add_argument(*flags, default=default, **keywords)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler, _, inputs, _ = _COMMANDS[args.command]
    try:
        measures = [_load_real_measure(getattr(args, dest)) for dest in inputs]
        return handler(args, *measures)
    except (ValueError, LorenzError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

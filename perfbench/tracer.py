"""Span tracer that wraps lorenz_hulls functions from outside the package.

``Tracer.install`` replaces every module-level binding of a public function
of the traced modules (``reach_many`` is bound in ``hulls``, ``ops``,
``suites``, ``cli`` and the package itself, and every one of those bindings
is replaced), two hot methods, and ``linprog`` as bound in ``hulls``.
``Tracer.uninstall`` puts every original object back.  Spans are kept in
memory and written out once, by ``dump_spans``.

The module imports only the standard library, so importing it never
changes what the traced program imports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Optional

MODULES = (
    "measures",
    "hulls",
    "ops",
    "discretization",
    "zonoid",
    "sampling",
    "suites",
    "cli",
)
METHODS = (
    ("hulls", "ZonogonSupport", "eval"),
    ("discretization", "SpherePartition", "cell_of"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[str]
    thread: int
    sizes: dict = field(default_factory=dict)
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# input sizes recorded per span; each gets (args, kwargs, result)


def _json_bytes(payload) -> int:
    return len(json.dumps(payload))


SIZERS: dict[str, Callable] = {
    "hulls.reach_many": lambda a, k, r: {
        "k": int(r.shape[0]),
        "m": a[0].generator_count,
        "n": a[0].dimension,
    },
    "hulls.ZonogonSupport.eval": lambda a, k, r: {"queries": int(r.shape[0])},
    "hulls.hausdorff_convex": lambda a, k, r: {
        "m1": a[0].generator_count,
        "m2": a[1].generator_count,
        "n": a[0].dimension,
        "mode": r.mode,
    },
    "hulls.skeleton_points": lambda a, k, r: {"points": r.point_count},
    "hulls.hausdorff_points": lambda a, k, r: {
        "pairs": a[0].point_count * a[1].point_count
    },
    "hulls.contains_point": lambda a, k, r: {"m": a[0].generator_count},
    "ops.product_reach_many": lambda a, k, r: {
        "atoms": len(a[0]),
        "dirs": int(r.shape[0]),
    },
    "discretization.discretize": lambda a, k, r: {
        "atoms_in": a[0].atom_count,
        "cells_out": r.atom_count // a[2],
    },
    "measures.measure_from_json_dict": lambda a, k, r: {"bytes_in": _json_bytes(a[0])},
    "measures.measure_to_json_dict": lambda a, k, r: {"bytes_out": _json_bytes(r)},
    "suites.run_suites": lambda a, k, r: {
        "workers": k.get("workers"),
        "busy": {report.suite: report.wall_time_s for report in r},
    },
    "lp": lambda a, k, r: {"vars": len(a[0]), "status": int(r.status)},
    "cli.main": lambda a, k, r: {"argv": list(a[0])},
}


class Tracer:
    """Records nested spans around wrapped callables, one stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: Optional[str] = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        sizer = SIZERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                sizes = {}
                if error is None and sizer is not None:
                    try:
                        sizes = sizer(args, kwargs, result)
                    except Exception as exc:  # a size is never worth a crash
                        sizes = {"sizer_error": repr(exc)}
                span = Span(sid, name, start, end, parent, tracer.job,
                            threading.get_ident(), sizes, error)
                with tracer._lock:
                    tracer.spans.append(span)
            return result

        return traced

    def install(self, package) -> None:
        """Patch every binding of the traced callables in ``package``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {
            short: importlib.import_module(f"{package.__name__}.{short}")
            for short in MODULES
        }
        wrappers: dict[int, tuple[object, Callable]] = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrappers[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
        linprog = modules["hulls"].linprog
        wrappers[id(linprog)] = (linprog, self.wrap("lp", linprog))
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def dump_spans(spans: Iterable[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


def load_spans(path) -> list[Span]:
    with open(path, "r", encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping children (from threads a span started) count once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(span.id, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = (span.end - span.start) - covered
    return out

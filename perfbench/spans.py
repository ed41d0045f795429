"""Spans around the calls into each ``hypersing`` module, for the traced run.

``install`` replaces selected public functions and methods with wrappers
that record a span (name, start, end, parent, whether it raised) and
returns a function that puts the originals back.  A function is replaced
wherever a loaded ``hypersing`` module binds it, so calls through
``from hypersing.linalg import lu_factor`` in another module are caught
too.  Nothing in the package is edited.

A span's self time is its duration minus the time its child spans cover.
Counts that need work of their own (distinct kernel differences) are
computed after the op, outside every span.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Span name -> (module, attribute); "Class.method" patches a method.
TRACED = {
    "linalg.lu_factor": ("hypersing.linalg", "lu_factor"),
    "linalg.solve": ("hypersing.linalg", "LUFactorization.solve"),
    "linalg.solve_adjoint": ("hypersing.linalg", "LUFactorization.solve_adjoint"),
    "linalg.condition": ("hypersing.linalg", "condition_estimate_1norm"),
    "kernels.crack_problem": ("hypersing.kernels", "crack_problem"),
    "kernels.screen_problem": ("hypersing.kernels", "screen_problem"),
    "spectral.solve_spectral": ("hypersing.spectral", "solve_spectral"),
    "characteristic.assemble": ("hypersing.characteristic", "assemble_characteristic"),
    "characteristic.evaluate": ("hypersing.characteristic", "DiscreteSolution.__call__"),
    "fullsolver.assemble_full": ("hypersing.fullsolver", "assemble_full"),
    "fullsolver.solve_full": ("hypersing.fullsolver", "solve_full"),
    "cli.main": ("hypersing.cli", "main"),
}

# Span names reported under one metric name.
MERGED = {
    "linalg.solve_adjoint": "linalg.solve",
    "kernels.crack_problem": "kernels.problem",
    "kernels.screen_problem": "kernels.problem",
}

# Kernel constructors on the workloads' paths; the kernel each returns gets
# a traced profile_batch.
KERNEL_CONSTRUCTORS = ("zero_kernel", "acoustic_kernel")

# Every name a self time is reported under, and the layers they belong to.
SELF_TIMES = sorted({MERGED.get(name, name) for name in TRACED} | {"kernels.profile_batch"})
LAYERS = sorted({name.split(".")[0] for name in SELF_TIMES})


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    raised: bool = False
    child_time: float = 0.0
    arg: object = None  # lu_factor: (n, complex); profile_batch: the differences


@dataclass
class Tracer:
    """Collects the spans of the current op; ``close_op`` reduces them."""

    spans: list[Span] = field(default_factory=list)
    current: Span | None = None
    ops: list[dict] = field(default_factory=list)
    errors: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))

    def wrap(self, name: str, func: Callable, arg_of: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, 0.0, self.current)
            if arg_of is not None:
                span.arg = arg_of(*args, **kwargs)
            self.current = span
            span.start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                self.current = span.parent
                if span.parent is not None:
                    span.parent.child_time += span.end - span.start
                self.spans.append(span)

        return traced

    def close_op(self, wall: float, extra: dict | None = None) -> dict:
        """Reduce the op's spans to per-op figures and start the next op."""
        op = {"wall": wall, "cli.bytes_out": 0}
        for name in SELF_TIMES:
            op[name + ".self_s"] = 0.0
        for key in ("linalg.lu_factor.calls", "linalg.solve.calls",
                    "kernels.profile_batch.calls", "kernels.profile_batch.diffs"):
            op[key] = 0
        flops = distinct = 0
        top = 0.0
        for span in self.spans:
            name = MERGED.get(span.name, span.name)
            duration = span.end - span.start
            op[name + ".self_s"] += duration - span.child_time
            if span.parent is None:
                top += duration
            layer = name.split(".")[0]
            if span.raised and (span.parent is None
                                or not span.parent.name.startswith(layer + ".")):
                self.errors[layer] += 1
            if name == "linalg.lu_factor":
                op["linalg.lu_factor.calls"] += 1
                n, is_complex = span.arg
                flops += (4 if is_complex else 1) * 2 * n**3 / 3
            elif name == "linalg.solve":
                op["linalg.solve.calls"] += 1
            elif name == "kernels.profile_batch":
                d = np.abs(np.asarray(span.arg, dtype=float)).ravel()
                op["kernels.profile_batch.calls"] += 1
                op["kernels.profile_batch.diffs"] += d.size
                distinct += np.unique(d).size
        lu_time = op["linalg.lu_factor.self_s"]
        op["linalg.lu_factor.gflop_per_s"] = flops / lu_time / 1e9 if lu_time else 0.0
        diffs = op["kernels.profile_batch.diffs"]
        op["kernels.profile_batch.distinct_ratio"] = distinct / diffs if diffs else 0.0
        op["remainder_s"] = wall - top
        op.update(extra or {})
        self.ops.append(op)
        self.spans = []
        return op

    def summary(self) -> dict[str, float]:
        """Median per op of every figure, plus the error totals of the run."""
        out = {key: statistics.median(op[key] for op in self.ops) for key in self.ops[0]}
        for layer, count in self.errors.items():
            out[layer + ".errors"] = count
        return out


def _lu_arg(a, *args, **kwargs):
    a = np.asarray(a)
    return (a.shape[0], bool(np.iscomplexobj(a)))


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the traced functions; returns a function that undoes it."""
    import hypersing  # noqa: F401  (loads every submodule)
    import hypersing.cli  # noqa: F401

    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def rebind(old, new):
        # Module-level bindings: the defining module and every importer.
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "hypersing":
                continue
            for attr, value in list(vars(module).items()):
                if value is old:
                    patch(module, attr, new)

    for name, (module_name, attr) in TRACED.items():
        owner, last = _resolve(module_name, attr)
        old = getattr(owner, last)
        new = tracer.wrap(name, old, _lu_arg if name == "linalg.lu_factor" else None)
        if isinstance(owner, type):
            patch(owner, last, new)
        else:
            rebind(old, new)

    kernels = sys.modules["hypersing.kernels"]
    for constructor in KERNEL_CONSTRUCTORS:
        old = getattr(kernels, constructor)

        def build(*args, _old=old, **kwargs):
            kernel = _old(*args, **kwargs)
            batch = tracer.wrap("kernels.profile_batch", kernel.profile_batch,
                                lambda d: d)
            return dataclasses.replace(kernel, profile_batch=batch)

        rebind(old, build)

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall

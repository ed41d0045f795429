"""Uniform collocation mesh: subinterval endpoints and midpoint collocation points."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypersing.linalg import check_dense_size, check_integer


@dataclass(frozen=True)
class Mesh:
    """Uniform subdivision of (a, b) into n subintervals.

    ``nodes`` holds the n+1 subinterval endpoints t_j = a + j*h and
    ``colloc`` the n midpoints x_i = a + (i - 1/2)*h, so every collocation
    point sits exactly half a step away from the nearest node.  Instances
    are immutable and safe to share between solvers.
    """

    a: float
    b: float
    n: int
    h: float
    nodes: np.ndarray
    colloc: np.ndarray

    def __post_init__(self) -> None:
        self.nodes.setflags(write=False)
        self.colloc.setflags(write=False)


def _checked_interval(a: float, b: float) -> tuple[float, float]:
    """(a, b) as floats; ValueError naming a nonfinite end, or unless b > a."""
    a = float(a)
    b = float(b)
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (b > a):
        raise ValueError(f"invalid interval: need b > a, got ({a}, {b})")
    return a, b


def make_mesh(a: float, b: float, n: int) -> Mesh:
    """Build the uniform mesh on (a, b) with n >= 2 subintervals.

    Nodes come from the direct formula a + j*h, never from a running sum,
    so there is no accumulation drift at large n; the endpoints are stored
    exactly.  Raises ValueError for a nonfinite endpoint, an empty
    interval, an n that is not an integer, n < 2, or n + 1 nodes over
    ``linalg.MAX_DENSE_ELEMENTS``.
    """
    a, b = _checked_interval(a, b)
    n = check_integer("n", n)
    if n < 2:
        raise ValueError(f"invalid size: need n >= 2, got {n}")
    check_dense_size("n", n, 1, n + 1)
    h = (b - a) / n
    nodes = a + np.arange(n + 1, dtype=float) * h
    nodes[0] = a
    nodes[n] = b
    colloc = a + (np.arange(1, n + 1, dtype=float) - 0.5) * h
    if not (np.all(nodes[:-1] < colloc) and np.all(colloc < nodes[1:])):
        raise ValueError(
            f"interval ({a}, {b}) is too short relative to its magnitude "
            f"to resolve {n} subintervals in floating point"
        )
    return Mesh(a=a, b=b, n=n, h=h, nodes=nodes, colloc=colloc)

"""Adaptive panel quadrature and Gauss-Chebyshev rules.

The integrands met in this package are smooth except for isolated
square-root cusps and removable singularities, so adaptive bisection with
a fixed 15-point Gauss-Legendre rule per panel is simple and effective:
panels shrink geometrically toward any point the rule cannot resolve.
The error estimate per panel compares the one-panel value against the sum
over its two halves, and the halved value is the one accumulated.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class QuadratureConvergenceError(RuntimeError):
    """Raised when the panel budget runs out before the error target is met."""


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


def _rule(f: Callable, lo: float, hi: float):
    r = 0.5 * (hi - lo)
    return r * (_WEIGHTS @ f(0.5 * (lo + hi) + r * _NODES))


def adaptive_gauss(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    *,
    split: Sequence[float] = (),
    max_panels: int = 10_000,
):
    """Integrate ``f`` over (a, b) to absolute accuracy ``tol``.

    ``f`` must accept a numpy array of abscissae and return values of the
    same length (real or complex).  ``split`` lists interior points where
    the panel structure should break first, e.g. a removable singularity.
    Raises QuadratureConvergenceError when more than ``max_panels`` panels
    would be needed.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    cuts = [a] + sorted(p for p in split if a < p < b) + [b]
    stack = list(zip(cuts[:-1], cuts[1:]))
    length = b - a
    total = 0.0
    used = 0
    while stack:
        lo, hi = stack.pop()
        used += 1
        if used > max_panels:
            raise QuadratureConvergenceError(
                f"needed more than {max_panels} panels for tol={tol:g} on ({a}, {b})"
            )
        mid = 0.5 * (lo + hi)
        coarse = _rule(f, lo, hi)
        fine = _rule(f, lo, mid) + _rule(f, mid, hi)
        err = abs(fine - coarse)
        if err <= tol * (hi - lo) / length + 1e-16 * (1.0 + abs(fine)) or (
            hi - lo
        ) <= 1e-14 * length:
            total += fine
        else:
            stack.append((lo, mid))
            stack.append((mid, hi))
    return total


def adaptive_gauss_batch(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    size: int,
    *,
    dtype=np.complex128,
    max_panels: int = 40_000,
) -> np.ndarray:
    """Shared-panel quadrature for a family of integrands evaluated together.

    ``f(s)`` must return an array of shape ``(len(s), size)``; one column
    per family member.  All members share the panel structure and the
    refinement is driven by the worst column, which keeps the result
    independent of how callers batch their members.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    stack = [(float(a), float(b))]
    length = b - a
    total = np.zeros(size, dtype=dtype)
    used = 0
    while stack:
        lo, hi = stack.pop()
        used += 1
        if used > max_panels:
            raise QuadratureConvergenceError(
                f"needed more than {max_panels} shared panels for tol={tol:g}"
            )
        mid = 0.5 * (lo + hi)
        coarse = _rule(f, lo, hi)
        fine = _rule(f, lo, mid) + _rule(f, mid, hi)
        err = float(np.max(np.abs(fine - coarse)))
        if err <= tol * (hi - lo) / length + 1e-16 or (hi - lo) <= 1e-14 * length:
            total += fine
        else:
            stack.append((lo, mid))
            stack.append((mid, hi))
    return total


def gauss_chebyshev1(m: int) -> tuple[np.ndarray, float]:
    """Nodes and common weight for int_{-1}^{1} F(u)/sqrt(1-u^2) du.

    The m-point rule is sum_k w * F(u_k) with u_k = cos((2k-1)pi/(2m)) and
    the single weight w = pi/m.
    """
    k = np.arange(1, m + 1)
    return np.cos((2 * k - 1) * np.pi / (2 * m)), np.pi / m


def gauss_chebyshev2(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for int_{-1}^{1} sqrt(1-u^2) F(u) du.

    The m-point rule uses u_k = cos(k pi/(m+1)) with weights
    w_k = pi/(m+1) * sin^2(k pi/(m+1)).
    """
    theta = np.arange(1, m + 1) * np.pi / (m + 1)
    return np.cos(theta), np.pi / (m + 1) * np.sin(theta) ** 2


def gauss_legendre(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes and weights mapped to (a, b)."""
    u, w = np.polynomial.legendre.leggauss(m)
    r = 0.5 * (b - a)
    return 0.5 * (a + b) + r * u, r * w

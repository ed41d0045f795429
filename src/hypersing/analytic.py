"""Closed-form inversion of the characteristic equation and benchmark solutions.

The characteristic equation int_a^b g(t)/(x-t)^2 dt = f'(x) has a unique
solution bounded on the closed interval,

    g(x) = sqrt((x-a)(b-x)) / pi^2
           * PV int_a^b f(t) / ( sqrt((t-a)(b-t)) (x-t) ) dt,

together with the constant C = (1/pi^2) int_a^b f(t)/sqrt((t-a)(b-t)) dt
of the underlying Cauchy inversion.  Both integrals are evaluated by
Gauss-Chebyshev quadrature of the first kind; the principal value is
handled by the subtraction f(t) -> f(t) - f(x), whose weighted remainder
integrates to zero exactly because PV int w(t)/(x-t) dt vanishes for the
Chebyshev weight (``weighted_pv_integral``, at all points of a call at once).
Every load value that the inversion, the pair check and both solvers read
is checked once: a scalar is broadcast and a nonfinite value raises
ValueError naming its point.

The module also carries the two closed-form benchmark solutions used to
validate the collocation solvers: the opening of a pressurized straight
crack and the linear-convolution-kernel example on (-1, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from hypersing.linalg import MAX_DENSE_ELEMENTS, check_dense_size, check_integer
from hypersing.mesh import _checked_interval
from hypersing.quadrature import gauss_chebyshev1

_NODE_CLEARANCE = 1e-12
_PAIR_RTOL = 1e-4
_G_BLOCK = 16384  # points per weighted_pv_integral call in the inversion's g


def _load_values(fn: Callable, points: np.ndarray, name: str) -> np.ndarray:
    """``fn`` at ``points`` (a scalar is broadcast to their shape), checked finite.

    Trailing axes past ``points.ndim`` are allowed; a nonfinite value
    raises ValueError naming its point.
    """
    values = np.asarray(fn(points))
    if values.ndim == 0:
        values = np.full(points.shape, values[()])
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        x = points[tuple(bad[0][: points.ndim])]
        raise ValueError(f"{name} is nonfinite at x = {x}")
    return values


@dataclass
class RightHandSide:
    """The pair (f, f'): f' drives collocation, f drives the inversion.

    ``fprime`` must accept numpy arrays.  ``f`` is optional; operations
    that need the antiderivative raise ValueError when it is missing.
    """

    fprime: Callable[[np.ndarray], np.ndarray]
    f: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def validate_pair(self, a: float, b: float) -> None:
        """Check that fprime is the derivative of f, both finite, at 5 interior points."""
        if self.f is None:
            return
        pts = a + (b - a) * np.arange(1, 6) / 6.0
        step = 1e-4 * (b - a)
        fd = _load_values(self.f, pts + step, "f") - _load_values(self.f, pts - step, "f")
        fd /= 2.0 * step
        stated = _load_values(self.fprime, pts, "fprime")
        scale = max(1.0, float(np.max(np.abs(stated))))
        worst = float(np.max(np.abs(fd - stated)))
        if worst > _PAIR_RTOL * scale:
            raise ValueError(
                f"fprime disagrees with the derivative of f: max deviation "
                f"{worst:.3e} exceeds {_PAIR_RTOL:g} * {scale:g}"
            )


@dataclass
class InversionResult:
    """Bounded solution g and the constant C of the Cauchy inversion."""

    g: Callable
    C: complex


def invert_characteristic(
    rhs: RightHandSide, a: float, b: float, m: int = 64
) -> InversionResult:
    """Bounded-solution inversion of the characteristic equation.

    ``m`` is the Gauss-Chebyshev node count; 64 gives spectral accuracy for
    smooth f.  The returned g accepts scalars or arrays on [a, b], is
    exactly zero at the endpoints, and shifts to an (m+1)-node rule for
    any evaluation point that lands on a quadrature node.  It evaluates
    its points in blocks whose points x nodes table stays within
    ``linalg.MAX_DENSE_ELEMENTS``, so the point count has no cap.  Raises
    ValueError naming m, before any node exists, for m + 1 over budget, and
    for a nonfinite or empty interval before f is read.
    """
    if rhs.f is None:
        raise ValueError("inversion requires the antiderivative f on the right-hand side")
    m = check_integer("m", m)
    if m < 8:
        raise ValueError(f"need at least 8 quadrature nodes, got {m}")
    check_dense_size("m", m, 1, m + 1)
    a, b = _checked_interval(a, b)
    rhs.validate_pair(a, b)
    u, w = gauss_chebyshev1(m)
    fvals = _load_values(rhs.f, 0.5 * (a + b) + 0.5 * (b - a) * u, "f")
    constant = np.sum(fvals) * w / np.pi**2
    # Room for the (m+1)-node rule's table too.
    block = min(_G_BLOCK, MAX_DENSE_ELEMENTS // (m + 2))

    def g(x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        if not np.all((xs >= a) & (xs <= b)):
            raise ValueError(f"g is defined on [{a}, {b}]")
        out = np.zeros(xs.shape, dtype=fvals.dtype)
        interior = (xs > a) & (xs < b)
        xi = xs[interior]
        pv = np.zeros(xi.shape, dtype=fvals.dtype)
        for start in range(0, xi.size, block):
            pv[start : start + block] = weighted_pv_integral(
                rhs.f, a, b, m, xi[start : start + block]
            )
        out[interior] = np.sqrt((xi - a) * (b - xi)) / np.pi**2 * pv
        return out[0] if scalar else out

    result = InversionResult(g=g, C=constant)
    _check_endpoint_decay(result, a, b)
    return result


def _check_endpoint_decay(result: InversionResult, a: float, b: float) -> None:
    # Bounded-class solutions must not grow toward either endpoint.
    length = b - a
    slack = 1e-12 * (1.0 + abs(result.C))
    for far, near in ((a + 1e-3 * length, a + 1e-4 * length),
                      (b - 1e-3 * length, b - 1e-4 * length)):
        if abs(result.g(near)) > abs(result.g(far)) + slack:
            raise RuntimeError(
                "inversion result grows toward an endpoint; "
                "the right-hand side is outside the bounded solution class"
            )


def _require_finite(**params: float) -> None:
    # ValueError naming the first nonfinite parameter.
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def crack_exact(sigma0: float, mu: float, nu: float, a: float, x):
    """Opening of a straight crack of half-length a under constant normal load.

    Returns (sigma0/mu) * (1 - nu) * sqrt(a^2 - x^2); valid for shear
    modulus mu > 0 and Poisson ratio 0 < nu < 1/2.  Raises ValueError
    naming a nonfinite parameter.
    """
    _require_finite(sigma0=sigma0, mu=mu, nu=nu, a=a)
    if mu <= 0:
        raise ValueError(f"shear modulus must be positive, got {mu}")
    if not (0.0 < nu < 0.5):
        raise ValueError(f"Poisson ratio must lie in (0, 1/2), got {nu}")
    if a <= 0:
        raise ValueError(f"half-length must be positive, got {a}")
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= a * (1 + 1e-15)):
        raise ValueError(f"|x| must not exceed the half-length {a}")
    return sigma0 / mu * (1.0 - nu) * np.sqrt(np.clip(a * a - xs * xs, 0.0, None))


def full_example_exact(A: float, x):
    """Exact solution 8*sqrt(1-x^2)*(4+Ax)/(32+A^2) of the linear-kernel benchmark.

    This solves the full equation on (-1, 1) with convolution kernel
    A*(x-t) and constant right-hand side -pi; at A = 0 it reduces to the
    characteristic benchmark sqrt(1-x^2).  Raises ValueError for a
    nonfinite A.
    """
    _require_finite(A=A)
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= 1.0 + 1e-15):
        raise ValueError("|x| must not exceed 1")
    return 8.0 * np.sqrt(np.clip(1.0 - xs * xs, 0.0, None)) * (4.0 + A * xs) / (32.0 + A * A)


def weighted_pv_integral(fn: Callable, a: float, b: float, m: int, x):
    """PV int_a^b fn(t) / ( sqrt((t-a)(b-t)) (x-t) ) dt by subtraction.

    ``x`` is a point or an array of points and ``fn`` must accept numpy
    arrays; the result has x's shape followed by any trailing axes of fn's
    values, and is empty for an empty x.  All points share the m-node rule,
    or the (m+1)-node rule when one lands on an m-rule node.  Raises
    ValueError unless m is an integer >= 1, a and b are finite, a < x < b
    (NaN included) and fn is finite at the nodes and points, and names m
    before allocating a points x nodes table (with fn's trailing axes)
    above ``linalg.MAX_DENSE_ELEMENTS``.
    """
    m = check_integer("m", m)
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    a, b = _checked_interval(a, b)
    xs = np.asarray(x, dtype=float)
    outside = ~((xs > a) & (xs < b))
    if np.any(outside):
        raise ValueError(
            f"evaluation point x={xs[outside].flat[0]} must lie strictly inside ({a}, {b})"
        )
    points = xs.ravel()
    center = 0.5 * (a + b)
    radius = 0.5 * (b - a)
    check_dense_size("m", m, max(points.size, 1), m + 1)
    u, w = gauss_chebyshev1(m)
    nodes = center + radius * u
    if points.size and np.min(np.abs(points[:, None] - nodes)) < _NODE_CLEARANCE * (b - a):
        u, w = gauss_chebyshev1(m + 1)
        nodes = center + radius * u
    fvals = _load_values(fn, nodes, "integrand")
    check_dense_size("m", m, points.size, fvals.size)
    fx = _load_values(fn, points, "integrand")
    gaps = (points[:, None] - nodes).reshape(points.size, nodes.size, *(1,) * (fvals.ndim - 1))
    pv = w * np.sum((fvals - fx[:, None]) / gaps, axis=1)
    return pv.reshape(xs.shape + pv.shape[1:])[()]

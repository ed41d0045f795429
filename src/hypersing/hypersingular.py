"""Finite-part (Hadamard) evaluation of integrals with a 1/(x-t)^2 kernel.

For a twice-differentiable density phi the finite part of
int_a^b phi(t)/(x-t)^2 dt equals

    int_a^b [phi(t) - phi(x) - phi'(x)(t-x)] / (x-t)^2 dt
        + phi(x) * (a-b)/((x-a)(b-x)) + phi'(x) * ln((b-x)/(x-a)),

where the remaining integrand has a removable singularity at t = x with
limit phi''(x)/2.  The same subtraction with one term fewer gives the
Cauchy principal value of the 1/(x-t) kernel; the finite part is minus
the derivative of that principal value, which the tests exercise as a
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from hypersing.mesh import _checked_interval
from hypersing.quadrature import _check_tol, adaptive_gauss

# Regularized integrands are replaced by their limit value inside this
# fraction of the interval around t = x to avoid catastrophic cancellation.
_SWITCH_FRACTION = 1e-5
_D2_STEP_FRACTION = 1e-4
_MAX_PANELS = 10_000


@dataclass
class Density:
    """Integrand density phi with its derivative.

    ``value`` and ``deriv`` must accept numpy arrays and evaluate
    elementwise; both must stay finite on the open interval.  The optional
    ``second_deriv`` replaces the finite-difference estimate used for the
    removable-singularity limit at the collocation point.
    """

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    second_deriv: Optional[Callable[[float], float]] = None


def _check_interior(a: float, b: float, x: float) -> None:
    _checked_interval(a, b)
    if not (a < x < b):
        raise ValueError(f"evaluation point x={x} must lie strictly inside ({a}, {b})")


def _second_deriv_at(density: Density, a: float, b: float, x: float) -> float:
    if density.second_deriv is not None:
        return density.second_deriv(x)
    step = min(_D2_STEP_FRACTION * (b - a), 0.5 * (x - a), 0.5 * (b - x))
    samples = density.value(np.array([x - step, x, x + step]))
    return (samples[0] - 2.0 * samples[1] + samples[2]) / (step * step)


def finite_part(density: Density, a: float, b: float, x: float, tol: float = 1e-9):
    """Finite-part value of int_a^b phi(t)/(x-t)^2 dt at an interior point x.

    The regularized integrand is integrated adaptively to absolute
    accuracy ``tol``; the two analytic correction terms are added in
    closed form.  Raises ValueError for a nonfinite or empty interval or
    when x is not interior, and QuadratureConvergenceError when the panel
    budget is exhausted.
    """
    _check_interior(a, b, x)
    _check_tol(tol)
    phi_x = density.value(np.array([x]))[0]
    dphi_x = density.deriv(np.array([x]))[0]
    limit = 0.5 * _second_deriv_at(density, a, b, x)
    eps = _SWITCH_FRACTION * (b - a)

    def integrand(t: np.ndarray) -> np.ndarray:
        dt = t - x
        near = np.abs(dt) < eps
        den = np.where(near, 1.0, dt * dt)
        vals = (density.value(t) - phi_x - dphi_x * dt) / den
        return np.where(near, limit, vals)

    quad = adaptive_gauss(integrand, a, b, tol, split=(x,), max_panels=_MAX_PANELS)
    return (
        quad
        + phi_x * (a - b) / ((x - a) * (b - x))
        + dphi_x * np.log((b - x) / (x - a))
    )


def cauchy_pv(density: Density, a: float, b: float, x: float, tol: float = 1e-9):
    """Cauchy principal value of int_a^b phi(t)/(x-t) dt at interior x.

    Uses the one-term subtraction phi(t) -> phi(t) - phi(x); the subtracted
    integrand has limit -phi'(x) at t = x and the extracted term integrates
    to phi(x) * ln((x-a)/(b-x)).
    """
    _check_interior(a, b, x)
    _check_tol(tol)
    phi_x = density.value(np.array([x]))[0]
    dphi_x = density.deriv(np.array([x]))[0]
    eps = _SWITCH_FRACTION * (b - a)

    def integrand(t: np.ndarray) -> np.ndarray:
        dt = x - t
        near = np.abs(dt) < eps
        den = np.where(near, 1.0, dt)
        vals = (density.value(t) - phi_x) / den
        return np.where(near, -dphi_x, vals)

    quad = adaptive_gauss(integrand, a, b, tol, split=(x,), max_panels=_MAX_PANELS)
    return quad + phi_x * np.log((x - a) / (b - x))


def finite_part_constant(a: float, b: float, x: float) -> float:
    """Closed form (a-b)/((x-a)(b-x)) for unit density; no quadrature."""
    _check_interior(a, b, x)
    return (a - b) / ((x - a) * (b - x))

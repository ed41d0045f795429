"""Chebyshev-series solver used as an independent cross-check.

Expanding the bounded solution as phi(x) = sqrt(1-x^2) sum_j c_j U_j(x)
diagonalizes the singular operator: the weighted polynomials are its
eigenfunctions with eigenvalues -pi (j+1).  Testing against the same
weighted family turns the equation into the dense system

    -(i+1) (pi^2/2) c_i + sum_j k_ij c_j = f_i,

where k_ij is the double weighted moment of the regular kernel and f_i
the weighted moment of the right-hand side.  All moments are computed by
Gauss-Chebyshev quadrature with the weight built into the rule; the x and
t tensor grids deliberately use different node counts so a convolution
kernel is never asked for its (possibly singular) diagonal value.  The
kernel table and the load go through the collocation solver's checks, so
a failure names its (x, t) pair or point; the two share no arithmetic.

Problems on a general interval are mapped affinely onto (-1, 1); the
kernel picks up the squared half-width and the right-hand side one factor
of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from hypersing.analytic import RightHandSide, _load_values
from hypersing.fullsolver import _grid_table
from hypersing.linalg import check_dense_size, lu_factor
from hypersing.mesh import _checked_interval
from hypersing.quadrature import gauss_chebyshev2

_DOMAIN_SLACK = 1e-12


def _u_matrix(count: int, x: np.ndarray) -> np.ndarray:
    """Rows U_0(x) .. U_{count-1}(x) by the three-term recurrence."""
    out = np.empty((count, x.size), dtype=float)
    out[0] = 1.0
    if count > 1:
        out[1] = 2.0 * x
    for j in range(2, count):
        out[j] = 2.0 * x * out[j - 1] - out[j - 2]
    return out


def chebyshev_U(j: int, x):
    """Chebyshev polynomial of the second kind, U_j(x) for |x| <= 1.

    Evaluates the recurrence U_0 = 1, U_1 = 2x,
    U_{j+1} = 2x U_j - U_{j-1}; accepts scalars or arrays.
    """
    if j < 0:
        raise ValueError(f"degree must be nonnegative, got {j}")
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= 1.0 + _DOMAIN_SLACK):
        raise ValueError("|x| must not exceed 1")
    scalar = xs.ndim == 0
    vals = _u_matrix(j + 1, np.atleast_1d(xs))[j]
    return float(vals[0]) if scalar else vals


@dataclass
class ChebyshevSolution:
    """Weighted Chebyshev expansion of a bounded solution on an interval.

    Evaluates sqrt(1-xi^2) * sum_j coeffs[j] U_j(xi) with xi the image of
    x under the affine map onto (-1, 1); exactly zero at both endpoints.
    """

    coeffs: np.ndarray
    interval: tuple[float, float] = (-1.0, 1.0)

    def _map(self, x) -> np.ndarray:
        a, b = self.interval
        xs = np.asarray(x, dtype=float)
        if not np.all((xs >= a - _DOMAIN_SLACK) & (xs <= b + _DOMAIN_SLACK)):
            raise ValueError(f"evaluation outside [{a}, {b}]")
        return np.clip((2.0 * xs - (a + b)) / (b - a), -1.0, 1.0)

    def __call__(self, x):
        xi = self._map(x)
        scalar = xi.ndim == 0
        xi = np.atleast_1d(xi)
        series = self.coeffs @ _u_matrix(len(self.coeffs), xi)
        out = np.sqrt(np.clip(1.0 - xi * xi, 0.0, None)) * series
        return out[0] if scalar else out

    def deriv(self, x):
        """Derivative at strictly interior points.

        d/dxi [ sqrt(1-xi^2) U_j(xi) ] = -(j+1) T_{j+1}(xi)/sqrt(1-xi^2),
        so the derivative inherits the endpoint singularity of the
        square-root profile and refuses the endpoints themselves.
        """
        a, b = self.interval
        xi = np.atleast_1d(self._map(x))
        if np.any(np.abs(xi) >= 1.0):
            raise ValueError("derivative is defined only strictly inside the interval")
        theta = np.arccos(xi)
        orders = np.arange(1, len(self.coeffs) + 1)[:, None]
        tsum = self.coeffs @ (orders * np.cos(orders * theta[None, :]))
        out = -tsum / np.sqrt(1.0 - xi * xi) * (2.0 / (b - a))
        return out[0] if np.asarray(x).ndim == 0 else out

    def as_density(self):
        """Adapter for the finite-part evaluator."""
        from hypersing.hypersingular import Density

        return Density(value=self.__call__, deriv=self.deriv)

    @classmethod
    def from_function(
        cls,
        fn: Callable,
        count: int,
        interval: tuple[float, float] = (-1.0, 1.0),
        mquad: Optional[int] = None,
    ) -> "ChebyshevSolution":
        """Project a bounded function onto the weighted expansion.

        The coefficients are c_j = (2/pi) int U_j(xi) fn(x(xi)) dxi,
        evaluated by Gauss-Chebyshev quadrature; ``fn`` must vanish like
        the square-root distance at the endpoints for the expansion to
        converge quickly.  Raises ValueError naming a nonfinite interval end,
        or ``mquad`` for a count x mquad table over the dense budget.
        """
        if mquad is None:
            mquad = max(2 * count, 64)
        a, b = _checked_interval(*interval)
        check_dense_size("mquad", mquad, count, mquad)
        xi, w = gauss_chebyshev2(mquad)
        x = 0.5 * (a + b) + 0.5 * (b - a) * xi
        u = np.asarray(fn(x)) / np.sqrt(1.0 - xi * xi)
        coeffs = (2.0 / np.pi) * (_u_matrix(count, xi) * w) @ u
        return cls(coeffs=coeffs, interval=(a, b))


def solve_spectral(
    kernel,
    rhs: RightHandSide,
    N: int,
    mquad: int,
    interval: tuple[float, float] = (-1.0, 1.0),
) -> ChebyshevSolution:
    """Solve the full equation by an N-term weighted Chebyshev expansion.

    ``kernel`` is a RegularKernel or None for the characteristic equation;
    ``mquad`` fixes the tensor quadrature resolution and must be at least
    2N.  Returns the expansion on the requested interval.  Raises
    SingularMatrixError if the truncated system degenerates, and
    ValueError for a nonfinite or empty interval, or before any allocation
    if the mquad x (mquad + 1) kernel table is above
    ``linalg.MAX_DENSE_ELEMENTS``; a nonfinite load or a failing kernel
    raises as in ``solve_full``.
    """
    if N < 2:
        raise ValueError(f"need at least 2 expansion terms, got {N}")
    if mquad < 2 * N:
        raise ValueError(f"mquad must be at least 2N = {2 * N}, got {mquad}")
    check_dense_size("mquad", mquad, mquad, mquad + 1)
    a, b = _checked_interval(*interval)
    center = 0.5 * (a + b)
    radius = 0.5 * (b - a)

    xi_x, w_x = gauss_chebyshev2(mquad)
    xi_t, w_t = gauss_chebyshev2(mquad + 1)
    ux = _u_matrix(N, xi_x) * w_x
    ut = _u_matrix(N, xi_t) * w_t

    x_phys = center + radius * xi_x
    fhat = radius * _load_values(rhs.fprime, x_phys, "right-hand side")
    f_moments = ux @ fhat

    if kernel is None:
        k_moments = 0.0
    else:
        table = _grid_table(kernel, x_phys, center + radius * xi_t)
        k_moments = ux @ (radius * radius * table) @ ut.T

    orders = np.arange(1, N + 1)
    matrix = np.diag(-orders * (np.pi**2 / 2.0)) + k_moments
    coeffs = lu_factor(matrix, f_moments).solution
    return ChebyshevSolution(coeffs=coeffs, interval=(a, b))

"""Chebyshev-series solver used as an independent cross-check.

Expanding the bounded solution as phi(x) = sqrt(1-x^2) sum_j c_j U_j(x)
diagonalizes the singular operator: the weighted polynomials are its
eigenfunctions with eigenvalues -pi (j+1).  Testing against the same
weighted family turns the equation into the dense system

    -(i+1) (pi^2/2) c_i + sum_j k_ij c_j = f_i,

where k_ij is the double weighted moment of the regular kernel and f_i
the weighted moment of the right-hand side.  One rule serves every kernel:
the x integrals use the mquad-point Gauss-Chebyshev rule of the second
kind, x_i = cos(i pi/(mquad + 1)), and the t integrals the mquad + 1 nodes
of the first kind, t_j = cos((2j - 1) pi/(2 (mquad + 1))).  The x angles are
even and the t angles odd multiples of pi/(2 (mquad + 1)), so no kernel is
ever asked for x = t.  Both rules weight U_j by its sine form,
sqrt(1 - x^2) U_j(x) = sin((j+1) arccos x).  A kernel that declares
K0(d) = S(d) ln|d| + R(d) adds one correction before the t product: R is
integrated by the plain rule and S ln|x - t| by product integration (Mason
& Handscomb, ch. 9; Atkinson, The Numerical Solution of Integral Equations
of the Second Kind, 1997, sec. 4.2).  S(x - t) (1 - t^2) U_j(t) is
interpolated in T_n(t) at the nodes, and

    int ln|x - t| T_n(t) / sqrt(1 - t^2) dt = -(pi/n) T_n(x),  n >= 1,

with -pi ln 2 for n = 0, so the logarithm is integrated exactly and the
oracle converges spectrally at mquad = 2N.  The kernel table and the load
go through the collocation solver's checks, so a failure names its
(x, t) pair or point; the two share no arithmetic, and the Galerkin
system is solved here, by one LAPACK ``gesv`` call, not by
``linalg.lu_factor``.

All grids are symmetric about 0, x_{m-1-i} = -x_i and t_{m-j} = -t_j,
and U_j(-x) = (-1)^j U_j(x) (Mason & Handscomb, Chebyshev Polynomials,
2003).  For an even kernel the table is therefore centro-symmetric: the
mirror of row i adds (-1)^(a+b) times row i's share to k_ab, so the
moments come from the first ceil(m/2) rows, counted twice when their
mirror is not among them, with the entries of odd a + b set to zero.

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
from hypersing.linalg import (
    _RCOND_MIN,
    SingularMatrixError,
    _checked_rhs,
    _gesv,
    check_dense_size,
    check_integer,
)
from hypersing.mesh import _checked_interval

_DOMAIN_SLACK = 1e-12

# Table entries per block of rows in the product-integration correction.
_LOG_BLOCK = 1 << 16


def _second_kind_angles(m: int) -> np.ndarray:
    """theta_i = i pi/(m + 1), i = 1 .. m: the m-point second-kind nodes' angles."""
    return np.arange(1, m + 1) * np.pi / (m + 1)


def _sine_rows(count: int, angle: np.ndarray) -> np.ndarray:
    """Rows sin((j+1) angle) = U_j(cos angle) sin(angle), j < count."""
    rows = np.arange(1.0, count + 1.0)[:, None] * angle.ravel()
    return np.sin(rows, out=rows)


def chebyshev_U(j: int, x):
    """Chebyshev polynomial of the second kind, U_j(x) for |x| <= 1.

    Evaluates U_j(cos theta) = sin((j + 1) theta) / sin theta at
    theta = arccos|x|, with U_j(-x) = (-1)^j U_j(x), in O(points) for any
    j; U_j(+-1) = (+-1)^j (j + 1) exactly.  theta is taken from |x| because
    sin(arccos(-1)) rounds to 1.2e-16, not 0.  Accepts scalars or arrays.
    Raises ValueError naming j unless it is a nonnegative integer, and for
    |x| > 1.
    """
    j = check_integer("j", j)
    if j < 0:
        raise ValueError(f"degree must be nonnegative, got {j}")
    xs = np.asarray(x, dtype=float)
    if not np.all(np.abs(xs) <= 1.0 + _DOMAIN_SLACK):
        raise ValueError("|x| must not exceed 1")
    theta = np.arccos(np.minimum(np.abs(xs), 1.0))
    end = theta == 0.0
    values = np.sin(float(j + 1) * theta) / np.where(end, 1.0, np.sin(theta))
    values = np.where(end, float(j + 1), values)
    if j % 2:
        values = np.where(xs < 0.0, -values, values)
    return float(values) if xs.ndim == 0 else values


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
        # sqrt(1 - xi^2) U_j(xi) = sin((j+1) theta), xi = cos(theta); the
        # ends are set to 0, as sin((j+1) arccos(-1)) rounds to nonzero.
        series = self.coeffs @ _sine_rows(len(self.coeffs), np.arccos(xi))
        out = np.where(np.abs(xi) < 1.0, series, 0.0)
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

        The coefficients are c_j = (2/pi) int U_j(xi) fn(x(xi)) dxi; the
        mquad-point second-kind Gauss-Chebyshev rule at xi_k = cos(theta_k)
        makes them c_j = (2/(mquad + 1)) sum_k sin((j+1) theta_k) fn(x_k).
        ``fn`` must vanish like the square-root distance at the endpoints for
        the expansion to converge quickly.  Raises ValueError naming
        ``count`` unless it is an integer >= 1, ``mquad`` unless it is an
        integer >= count (with fewer nodes the coefficients alias) or for
        a count x mquad table over the dense budget,
        a nonfinite interval end, a nonfinite value of ``fn``, naming its
        point, and values that are not one per node (shape (mquad,)).  A
        scalar value of ``fn`` is taken at every point.
        """
        count = check_integer("count", count)
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        mquad = max(2 * count, 64) if mquad is None else check_integer("mquad", mquad)
        if mquad < count:
            raise ValueError(f"mquad must be at least count = {count}, got {mquad}")
        a, b = _checked_interval(*interval)
        check_dense_size("mquad", mquad, count, mquad)
        theta = _second_kind_angles(mquad)
        x = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta)
        values = _checked_rhs(_load_values(fn, x, "fn"), mquad)
        coeffs = (2.0 / (mquad + 1)) * (_sine_rows(count, theta) @ values)
        return cls(coeffs=coeffs, interval=(a, b))


def _log_corrected_product(kernel, table, x, t, radius, ut):
    """(table + S C) @ ut.T for a kernel declaring K0 = S ln|d| + R.

    ``table`` holds K0(x_i - t_j) at x_i = c + r cos(theta_i),
    theta_i = i pi/M, i = 1, 2, ..., and t_j = c + r cos(phi_j),
    phi_j = (2j - 1) pi/(2M), j = 1 .. M, the first-kind nodes; ``ut``
    carries the weight pi/M.  Product integration weights
    S ln|xi - tau| by (pi/M) W_ij, with

        W_ij = -ln 2 - g(theta_i - phi_j) - g(theta_i + phi_j),
        g(a) = sum_{n=1}^{M-1} cos(n a)/n,

    and R = K0 - S ln|d| by pi/M, so the entry is K0 + S C with
    C = W + ln r - ln|x_i - t_j|: on the reference interval ln r moves into
    R.  theta_i +- phi_j = p pi/(2M) for an odd integer p, so g is one 1-D
    table over p mod 4M, the real part of one rfft of 1/n.  The log is
    taken of the rounded difference the kernel saw, so it cancels K0's own
    ln|d| exactly.  The correction is formed a block of rows at a time.
    """
    rows, m = table.shape
    inverse = np.zeros(4 * m)
    inverse[1:m] = 1.0 / np.arange(1, m)
    g = np.fft.rfft(inverse).real
    g = np.concatenate([g, g[-2:0:-1]])
    j = np.arange(1, m + 1)
    step = max(1, _LOG_BLOCK // m)
    blocks = []
    for lo in range(0, rows, step):
        block = table[lo : lo + step]
        i = np.arange(lo + 1, lo + len(block) + 1)[:, None]
        correction = np.log(np.abs(x[lo : lo + step, None] - t))
        correction += g[np.abs(2 * i - 2 * j + 1)]
        correction += g[2 * i + 2 * j - 1]
        np.subtract(np.log(0.5 * radius), correction, out=correction)
        blocks.append((block + kernel.log_coefficient(block) * correction) @ ut.T)
    return np.concatenate(blocks)


def _solve_galerkin(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A^{-1} rhs of the N x N Galerkin system, in one LAPACK ``gesv`` call.

    The call solves for [rhs | I], so it gives A^{-1} with the solution,
    and with it the exact cond_1 = ||A||_1 ||A^{-1}||_1, never below
    Hager's estimate of it.  Raises ValueError for a nonfinite entry of
    either, and SingularMatrixError for an exactly zero pivot or
    1/cond_1 <= 1e-13, as ``linalg.lu_factor`` does.
    """
    if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(rhs))):
        raise ValueError("Galerkin system contains nonfinite moments")
    solved = _gesv(matrix, np.column_stack([rhs, np.eye(len(rhs))]))
    condition = np.linalg.norm(matrix, 1) * np.linalg.norm(solved[:, 1:], 1)
    if not condition * _RCOND_MIN < 1.0:
        raise SingularMatrixError(
            f"reciprocal 1-norm condition number {1.0 / condition:.3e}"
            f" is at most {_RCOND_MIN:.0e}"
        )
    return solved[:, 0]


def solve_spectral(
    kernel,
    rhs: RightHandSide,
    N: int,
    mquad: int,
    interval: tuple[float, float] = (-1.0, 1.0),
) -> ChebyshevSolution:
    """Solve the full equation by an N-term weighted Chebyshev expansion.

    ``kernel`` is a RegularKernel or None for the characteristic equation;
    ``mquad`` fixes the quadrature resolution and must be at least 2N.  A
    kernel declared ``even`` is evaluated on the x rows i < ceil(mquad/2)
    only: as K0(x_i - t_j) = K0(x_{m-1-i} - t_{m-j}) and
    U_j(-x) = (-1)^j U_j(x), the moments are P * (ux_w @ table @ ut.T),
    with ux_w the weighted U rows doubled where the mirror row is not
    evaluated and P[a, b] = 1 for even a + b, else 0.  Any other kernel
    takes the same product over all rows with factor 1 and P = 1.  Every
    kernel takes its x integral on the mquad second-kind nodes and its t
    integral on the mquad + 1 first-kind nodes, with U rows in the sine form
    sin((j+1) angle); one that declares ``log_coefficient`` differs only in
    that its logarithm's product-integration correction is added to the
    table before the t product.  Returns the expansion on the requested
    interval.
    Raises SingularMatrixError if the truncated system has an exactly zero
    pivot or an exact 1/cond_1 of at most 1e-13, ValueError for a
    nonfinite moment, and ValueError naming N or mquad when it is not an
    integer, for a nonfinite or empty interval, or before any allocation
    if the mquad x (mquad + 1) kernel table is above
    ``linalg.MAX_DENSE_ELEMENTS``; a load that is nonfinite or not one
    value per x node (shape (mquad,)), read before the kernel, or a
    failing kernel raises as in ``solve_full``.
    """
    N = check_integer("N", N)
    mquad = check_integer("mquad", mquad)
    if N < 2:
        raise ValueError(f"need at least 2 expansion terms, got {N}")
    if mquad < 2 * N:
        raise ValueError(f"mquad must be at least 2N = {2 * N}, got {mquad}")
    check_dense_size("mquad", mquad, mquad, mquad + 1)
    a, b = _checked_interval(*interval)
    center = 0.5 * (a + b)
    radius = 0.5 * (b - a)

    # The nodes' angles: theta_i for the x grid, phi_j = (2j - 1) pi/(2M),
    # M = mquad + 1, for the first-kind t grid; pi/M weights both.  The
    # load is read and checked on the x grid before any other work.
    theta = _second_kind_angles(mquad)
    x_phys = center + radius * np.cos(theta)
    fhat = radius * _checked_rhs(_load_values(rhs.fprime, x_phys, "right-hand side"), mquad)
    phi = (2 * np.arange(1, mquad + 2) - 1) * np.pi / (2 * (mquad + 1))
    weight = np.pi / (mquad + 1)
    ux = weight * np.sin(theta) * _sine_rows(N, theta)
    ut = weight * np.sin(phi) * _sine_rows(N, phi)
    t_phys = center + radius * np.cos(phi)
    f_moments = ux @ fhat

    if kernel is None:
        k_moments = 0.0
    else:
        rows = (mquad + 1) // 2 if kernel.even else mquad
        table = _grid_table(kernel, x_phys[:rows], t_phys)
        fold = np.where(np.arange(rows) < mquad - rows, 2.0, 1.0)
        parity = np.add.outer(np.arange(N), np.arange(N)) % 2 == 0
        if kernel.log_coefficient is None:
            product = table @ ut.T
        else:
            product = _log_corrected_product(kernel, table, x_phys[:rows], t_phys, radius, ut)
        moments = (ux[:, :rows] * fold) @ (radius * radius * product)
        k_moments = np.where(parity | (not kernel.even), moments, 0.0)

    orders = np.arange(1, N + 1)
    matrix = np.diag(-orders * (np.pi**2 / 2.0)) + k_moments
    coeffs = _solve_galerkin(matrix, f_moments)
    return ChebyshevSolution(coeffs=coeffs, interval=(a, b))

"""Collocation matrix of the characteristic hypersingular equation, and its solve.

Over each subinterval (t_{j-1}, t_j) the finite part of the 1/(x-t)^2
kernel integrates in closed form, so approximating the solution by one
value per subinterval and enforcing the equation at the midpoints x_i
gives the dense system

    sum_j g_j * ( 1/(x_i - t_j) - 1/(x_i - t_{j-1}) ) = f'(x_i).

On the uniform mesh x_i - t_j = (i - j - 1/2) h, so the entry collapses
to c_{i-j} = 1/(((i-j)^2 - 1/4) h): a symmetric Toeplitz matrix built
from its 2n - 1 closed-form values.

The system is solved without forming the matrix.  Prefix sums over the
columns of M telescope to 1/(x_i - t_j) - 1/(x_i - t_0), so

    M = D1 C D2 U^{-1},   D1 = diag(1/(x_i - t_0)),  D2 = diag(t_j - t_0),

with U the upper triangular matrix of ones and C[i, j] = 1/(x_i - t_j) a
Cauchy matrix.  C has the closed-form inverse -diag(alpha) T diag(beta),
T[j, i] = 1/(x_i - t_j) (S. Schechter, "On the inversion of certain
matrices", Math. Tables Aids Comput. 13, 1959), and on the uniform mesh
alpha and beta are ratios of Gamma functions (``cauchy_weights``).  So
M^{-1} b is two diagonal scalings, one Toeplitz product by FFT and one
reverse cumulative sum: O(n log n) time and O(n) memory
(``solve_closed_form``).  ``fullsolver.solve_full`` takes this route for
the characteristic equation (``fullsolver.solve_characteristic``) and
the dense ``assemble_characteristic`` serves as its test oracle.  The
unknown attached to subinterval j is most accurate at the midpoint x_j,
and the bounded solution class is zero at both endpoints;
``DiscreteSolution`` interpolates linearly through exactly that data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from hypersing.linalg import _checked_rhs, _toeplitz_norm1, check_dense_size
from hypersing.mesh import Mesh

_DETERMINANT_MAX_N = 12


@dataclass
class DiscreteSolution:
    """Per-subinterval solution values on a mesh, real or complex.

    ``values[j]`` is the unknown attached to subinterval (t_j, t_{j+1}] in
    zero-based indexing; ``nodes`` exposes the subinterval right endpoints
    t_1..t_n it is conventionally indexed by.  Calling the solution
    evaluates the piecewise-linear rule anchored at the subinterval
    midpoints with zero values pinned at both endpoints, which is where
    the discretization carries its accuracy.  ``condition`` holds the
    1-norm condition number of the collocation matrix as a diagnostic:
    exact on the closed-form route, Hager's estimate on the dense one.
    """

    mesh: Mesh
    values: np.ndarray
    condition: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.values) != self.mesh.n:
            raise ValueError(
                f"expected {self.mesh.n} values, got {len(self.values)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("solution values contain nonfinite entries")

    @property
    def nodes(self) -> np.ndarray:
        return self.mesh.nodes[1:]

    @property
    def is_complex(self) -> bool:
        return bool(np.iscomplexobj(self.values))

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        if not np.all((xs >= self.mesh.a) & (xs <= self.mesh.b)):
            raise ValueError(f"evaluation outside [{self.mesh.a}, {self.mesh.b}]")
        xp = np.concatenate(([self.mesh.a], self.mesh.colloc, [self.mesh.b]))
        if self.is_complex:
            fp = np.concatenate(([0.0], self.values.real, [0.0]))
            out = np.interp(xs, xp, fp).astype(np.complex128)
            fp = np.concatenate(([0.0], self.values.imag, [0.0]))
            out += 1j * np.interp(xs, xp, fp)
        else:
            fp = np.concatenate(([0.0], self.values, [0.0]))
            out = np.interp(xs, xp, fp)
        return out[0] if scalar else out


def _singular_profile(mesh: Mesh) -> np.ndarray:
    # c_m = 1/((m^2 - 1/4) h) for m = i - j = -(n-1)..n-1, at index m + n - 1.
    m = np.arange(1 - mesh.n, mesh.n)
    return 1.0 / ((m**2 - 0.25) * mesh.h)


def _toeplitz_view(profile: np.ndarray) -> np.ndarray:
    """Read-only view T[i, j] = profile[i - j + n - 1] of 2n - 1 values."""
    n = (len(profile) + 1) // 2
    return np.lib.stride_tricks.sliding_window_view(profile, n)[:, ::-1]


def assemble_characteristic(mesh: Mesh) -> np.ndarray:
    """Collocation matrix M[i, j] = 1/(x_i - t_j) - 1/(x_i - t_{j-1}).

    Depends only on the mesh and only on i - j: the entry is
    1/(((i-j)^2 - 1/4) h), computed once per difference, so the matrix is
    exactly symmetric.  Row sums telescope to the finite part of the unit
    density.  An n x n matrix above ``linalg.MAX_DENSE_ELEMENTS`` is refused
    with a ValueError before it is allocated.
    """
    check_dense_size("n", mesh.n, mesh.n, mesh.n)
    return _toeplitz_view(_singular_profile(mesh)).copy()


def _fft_length(n: int) -> int:
    # The smallest power of two >= 2n - 1: a circular convolution of that
    # length gives outputs n - 1 .. 2n - 2 of the linear one unaliased.
    return 1 << (2 * n - 2).bit_length()


def check_closed_form_size(n: int) -> None:
    """Raise ValueError naming n if the closed-form solve's FFT arrays are over budget.

    Their length, the smallest power of two >= 2n - 1, is held to
    ``linalg.MAX_DENSE_ELEMENTS``: n <= 2^23.
    """
    check_dense_size("n", n, 1, _fft_length(n))


def cauchy_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights alpha_j, beta_j, j = 1..n, of the inverse of the unit-step Cauchy matrix.

    With x_i = i - 1/2 and t_j = j, C[i, j] = 1/(x_i - t_j) has the inverse
    -diag(alpha) T diag(beta), T[j, i] = 1/(x_i - t_j), where

        alpha_j = Gamma(j + 1/2) Gamma(n - j + 1/2) / (pi Gamma(j) Gamma(n - j + 1)),
        beta_j = -Gamma(j - 1/2) Gamma(n - j + 3/2) / (pi Gamma(j) Gamma(n - j + 1)).

    Both come from p_k = Gamma(k + 1/2) / (sqrt(pi) k!) = binom(2k, k) / 4^k,
    a cumulative product of (k - 1/2)/k, as alpha_j = j p_j p_{n-j} and
    beta_j = -alpha_j (n - j + 1/2) / (j - 1/2).  Differences of ``lgamma``
    would lose about 50 times more accuracy.
    """
    k = np.arange(1, n + 1)
    p = np.concatenate(([1.0], np.cumprod((k - 0.5) / k)))
    alpha = k * p[1:] * p[-2::-1]
    return alpha, -alpha * (n - k + 0.5) / (k - 0.5)


def solve_closed_form(mesh: Mesh, b: np.ndarray) -> tuple[np.ndarray, float]:
    """M^{-1} b and cond_1(M), in O(n log n) with no n x n array.

    M = (1/h) D1 C D2 U^{-1} in the unit-step variables x_i - t_0 = i - 1/2
    and t_j - t_0 = j, so

        M^{-1} r = h U diag(-alpha_i / i) T diag(beta_j (j - 1/2)) r.

    The weights and the FFT of T's 2n - 1 values are computed once per
    call; each product with M^{-1} is then one forward and one inverse real
    FFT.  A complex b is solved as its real and imaginary parts, so a
    complex b with zero imaginary part gives the real solution bit for bit.
    The condition number is exact, not an estimate: one more product, with
    M^{-1} 1, gives ||M^{-1}||_1, and ||M||_1 comes from the 2n - 1
    profile.  M is nonsingular for every n, and cond_1(M) is about 4n/pi,
    at most 1.1e7 within the size budget, so no singularity test is made.

    Raises ValueError, before anything of FFT length is allocated, for an
    n over ``check_closed_form_size``'s budget, a b of the wrong shape or
    with nonfinite entries.
    """
    n = mesh.n
    check_closed_form_size(n)
    b = _checked_rhs(b, n)
    length = _fft_length(n)
    alpha, beta = cauchy_weights(n)
    k = np.arange(1, n + 1)
    left = -mesh.h * alpha / k
    right = beta * (k - 0.5)
    # T[j, i] = 1/(i - j - 1/2) = c_{j-i} with c_d = -1/(d + 1/2), stored
    # for d = 1-n..n-1, so (T v)_j is output j + n - 1 of c convolved with v.
    d = np.arange(1 - n, n)
    spectrum = np.fft.rfft(-1.0 / (d + 0.5), length)

    def inverse(r: np.ndarray) -> np.ndarray:
        product = np.fft.irfft(np.fft.rfft(right * r, length) * spectrum, length)
        return np.cumsum((left * product[n - 1 : 2 * n - 1])[::-1])[::-1]

    # -M is a nonsingular M-matrix: its diagonal 4/h is positive, its other
    # entries -c_m are negative, and its row sums 1/(x_i - a) - 1/(x_i - b)
    # are positive, so it is strictly diagonally dominant.  Hence
    # (-M)^{-1} >= 0 entrywise, and as M is symmetric
    # ||M^{-1}||_1 = ||M^{-1}||_inf = max(-M^{-1} 1).
    norm1 = _toeplitz_norm1(_singular_profile(mesh))
    condition = norm1 * float(np.max(-inverse(np.ones(n))))
    if np.iscomplexobj(b):
        return inverse(b.real) + 1j * inverse(b.imag), condition
    return inverse(b), condition


def characteristic_determinant_closed_form(mesh: Mesh) -> float:
    """Closed-form determinant of the collocation matrix, for n <= 12.

    The matrix reduces to a Cauchy-type determinant with the product form

        prod_j (t_j - t_0) / prod_i (x_i - t_0)
        * prod_{q<p} (t_q - t_p) * prod_{q<p} (x_p - x_q)
        / prod_{q,p} (x_q - t_p),

    all indices running over 1..n.  The factor count grows quadratically
    and the magnitudes factorially, so sizes beyond 12 are refused rather
    than silently overflowing.
    """
    n = mesh.n
    if n > _DETERMINANT_MAX_N:
        raise ValueError(
            f"closed-form determinant is limited to n <= {_DETERMINANT_MAX_N}, got {n}"
        )
    t0 = mesh.nodes[0]
    t = mesh.nodes[1:]
    x = mesh.colloc
    head = math.prod((t[j] - t0) / (x[j] - t0) for j in range(n))
    tq_tp = math.prod(
        t[q] - t[p] for q in range(n) for p in range(q + 1, n)
    )
    xp_xq = math.prod(
        x[p] - x[q] for q in range(n) for p in range(q + 1, n)
    )
    cross = math.prod(x[q] - t[p] for q in range(n) for p in range(n))
    return head * tq_tp * xp_xq / cross

"""Collocation matrix of the characteristic hypersingular equation, and its inverse.

Over each subinterval (t_{j-1}, t_j) the finite part of the 1/(x-t)^2
kernel integrates in closed form, so one value per subinterval and the
equation at the midpoints x_i give the system

    sum_j g_j * ( 1/(x_i - t_j) - 1/(x_i - t_{j-1}) ) = f'(x_i).

On the uniform mesh the entry is c_{i-j} = 1/(((i-j)^2 - 1/4) h): a
symmetric Toeplitz matrix of 2n - 1 closed-form values.  Prefix sums over
its columns telescope to 1/(x_i - t_j) - 1/(x_i - t_0), so

    M = D1 C D2 U^{-1},   D1 = diag(1/(x_i - t_0)),  D2 = diag(t_j - t_0),

with U the upper triangular matrix of ones and C[i, j] = 1/(x_i - t_j) a
Cauchy matrix, whose inverse is -diag(alpha) C^T diag(beta) (S. Schechter,
Math. Tables Aids Comput. 13, 1959; ``cauchy_weights``).  That one
factorization, built once by ``characteristic_inverse``, gives M^{-1} r in
O(n log n) with no n x n array, the exact cond_1(M) and log|det M|; it is
how ``fullsolver.solve_full`` solves the characteristic equation, and the
dense ``assemble_characteristic`` is its test oracle.  The unknown of
subinterval j is most accurate at the midpoint x_j, and the bounded
solution is zero at both endpoints; ``DiscreteSolution`` interpolates
linearly through exactly that data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from hypersing.linalg import (
    _fft_length,
    _frozen,
    _full_spectrum,
    _join,
    _split,
    _toeplitz_norm1,
    check_dense_size,
)
from hypersing.mesh import Mesh


@dataclass
class DiscreteSolution:
    """Per-subinterval solution values on a mesh, real or complex.

    ``values[j]`` is the unknown of subinterval (t_j, t_{j+1}] in zero-based
    indexing; ``nodes`` are the right endpoints t_1..t_n it is indexed by.
    Calling the solution evaluates the piecewise-linear rule through the
    midpoints, with zero pinned at both endpoints.  ``condition`` is the
    1-norm condition number of the collocation matrix, a diagnostic:
    exact on the closed-form route, Hager's estimate on the GMRES and
    dense ones.
    """

    mesh: Mesh
    values: np.ndarray
    condition: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.values) != self.mesh.n:
            raise ValueError(f"expected {self.mesh.n} values, got {len(self.values)}")
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
        fp = np.concatenate(([0.0], self.values, [0.0]))
        out = np.interp(xs, xp, fp.real)
        if self.is_complex:
            out = out + 1j * np.interp(xs, xp, fp.imag)
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


def check_closed_form_size(n: int) -> None:
    """Raise ValueError naming n if the closed-form solve's FFT arrays are over budget.

    Their length ``linalg._fft_length(n)``, the smallest 2^a 3^b 5^c >=
    2n - 1, is held to ``linalg.MAX_DENSE_ELEMENTS`` = 2^24: n <= 2^23,
    whose length is 2^24, while n = 2^23 + 1 needs 16796160.
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


@dataclass(frozen=True)
class CharacteristicInverse:
    """M^{-1}, cond_1(M) and log|det M| from Schechter's inverse of the Cauchy matrix.

    M = (1/h) D1 C D2 U^{-1} in the unit-step variables x_i - t_0 = i - 1/2
    and t_j - t_0 = j, so M^{-1} r = h U diag(-alpha_i / i) T diag(beta_j (j - 1/2)) r
    with T = C^T.  ``left`` and ``right`` are those two scalings, ``spectrum``
    the real FFT of T's 2n - 1 values and ``norm1`` = ||M||_1.  Every array
    is read-only, so one inverse can serve every solve on its mesh; the
    complex spectrum and the end columns that the Krylov route needs are
    built on first use and kept with it.
    """

    h: float
    left: np.ndarray
    right: np.ndarray
    spectrum: np.ndarray
    norm1: float

    def apply(self, r) -> np.ndarray:
        """M^{-1} r for r of shape (n,) or (n, c), in one forward and one inverse real FFT.

        A complex r is split by ``linalg._split``, as a real matrix's
        right-hand side is in ``lu_factor``: each real or imaginary part is
        a column of its own, so a complex r with zero imaginary part gives
        the real result bit for bit.  Raises ValueError for another shape
        or a nonfinite entry.
        """
        n = len(self.left)
        r = np.asarray(r)
        if r.ndim not in (1, 2) or r.shape[0] != n:
            raise ValueError(f"rhs must have shape ({n},) or ({n}, c), got {r.shape}")
        if not np.all(np.isfinite(r)):
            raise ValueError("rhs contains nonfinite entries")
        # Each column is a row here, so every FFT and the cumulative sum run
        # along contiguous memory.
        rows = _split(r.reshape(n, -1).T, False, np.iscomplexobj(r))
        return _join(self._apply_rows(rows)).T.reshape(r.shape)

    def _apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """M^{-1} applied to an (n,) array or each row of a (..., n) stack, unchecked.

        One forward and one inverse FFT along the rows, then the scaling by
        ``left`` and a reversed cumulative sum.  Real rows take real FFTs
        and ``spectrum``, the arithmetic of ``apply``; complex rows take
        complex FFTs and ``_complex_spectrum``.
        """
        n = len(self.left)
        length = _fft_length(n)
        if np.iscomplexobj(rows):
            fft, ifft, spectrum = np.fft.fft, np.fft.ifft, self._complex_spectrum
        else:
            fft, ifft, spectrum = np.fft.rfft, np.fft.irfft, self.spectrum
        product = ifft(fft(self.right * rows, length) * spectrum, length)
        return np.cumsum((self.left * product[..., n - 1 : 2 * n - 1])[..., ::-1], axis=-1)[..., ::-1]

    @functools.cached_property
    def _complex_spectrum(self) -> np.ndarray:
        """The complex FFT of T's real values, built on first use and kept read-only."""
        return _full_spectrum(self.spectrum, _fft_length(len(self.left)))

    @functools.cached_property
    def _end_columns(self) -> np.ndarray:
        """M^{-1} e_0 and M^{-1} e_{n-1} as two read-only rows, in O(n) with no transform.

        T diag(right) e_j is right_j times column j of T, whose entry i is
        -1/(i - j + 1/2); ``left`` and the reversed cumulative sum follow,
        as in ``_apply_rows``.  Built on first use and kept, contiguous, as
        the rows GMRES starts from.
        """
        n = len(self.left)
        ends = np.array([0, n - 1])
        columns = self.right[ends, None] / (ends[:, None] - np.arange(n) - 0.5)
        return _frozen(np.cumsum((self.left * columns)[:, ::-1], axis=-1)[:, ::-1].copy())

    @property
    def condition(self) -> float:
        """The exact cond_1(M) = ||M||_1 max(-M^{-1} 1), about 4n/pi.

        -M is a nonsingular M-matrix: its diagonal 4/h is positive, its other
        entries -c_m negative and its row sums 1/(x_i - a) - 1/(x_i - b)
        positive, so it is strictly diagonally dominant.  Hence (-M)^{-1} >= 0,
        and as M is symmetric ||M^{-1}||_1 = ||M^{-1}||_inf = max(-M^{-1} 1).
        """
        return self.norm1 * float(np.max(-self.apply(np.ones(len(self.left)))))

    def slogdet(self) -> tuple[float, float]:
        """(sign, log|det M|) in O(n).

        det U = 1, so det M = h^{-n} prod_j (j / (j - 1/2)) det C.  From
        C^{-1} = -diag(alpha) C^T diag(beta), 1/det C = (-1)^n prod_j
        (alpha_j beta_j) det C, and alpha_j > 0 > beta_j, so |det C|^2 =
        1 / prod_j |alpha_j beta_j| and

            log|det M| = -n log h + sum_j log(j / (j-1/2)) - sum_j log|alpha_j beta_j| / 2.

        The sign is (-1)^n, as det(-M) > 0 for the M-matrix -M (``condition``).
        """
        n = len(self.left)
        alpha, beta = cauchy_weights(n)
        k = np.arange(1, n + 1)
        logdet = -n * math.log(self.h) + np.sum(np.log(k / (k - 0.5)))
        return (-1.0) ** n, float(logdet - 0.5 * np.sum(np.log(-alpha * beta)))


def characteristic_inverse(mesh: Mesh) -> CharacteristicInverse:
    """The closed-form inverse of ``mesh``'s collocation matrix, in O(n) memory.

    Raises ValueError naming n past ``check_closed_form_size``'s budget.
    """
    n = mesh.n
    check_closed_form_size(n)
    alpha, beta = cauchy_weights(n)
    k = np.arange(1, n + 1)
    # T[j, i] = 1/(i - j - 1/2) = c_{j-i} with c_d = -1/(d + 1/2), stored
    # for d = 1-n..n-1, so (T v)_j is output j + n - 1 of c convolved with v.
    spectrum = np.fft.rfft(-1.0 / (np.arange(1 - n, n) + 0.5), _fft_length(n))
    norm1 = _toeplitz_norm1(_singular_profile(mesh))
    left, right = -mesh.h * alpha / k, beta * (k - 0.5)
    return CharacteristicInverse(mesh.h, _frozen(left), _frozen(right), _frozen(spectrum), norm1)


def characteristic_determinant_closed_form(mesh: Mesh) -> float:
    """det M from ``CharacteristicInverse.slogdet``; ValueError naming n past the float range.

    On (-1, 1) |det M| overflows from n = 133 on.
    """
    sign, logdet = characteristic_inverse(mesh).slogdet()
    with np.errstate(over="ignore"):
        det = sign * float(np.exp(logdet))
    if det == 0.0 or not math.isfinite(det):
        raise ValueError(f"det M at n={mesh.n} is {sign:+.0f} exp({logdet:.6g}), not a float")
    return det

"""Dense solves through LAPACK, determinant, and a 1-norm condition estimate.

Every dense solve is one ``numpy.linalg.solve`` call, that is LAPACK
``gesv``: an LU factorization with partial pivoting followed by the two
triangular solves.  ``solve_full`` does not bring the characteristic
equation here: it solves it from the closed-form inverse of its matrix in
``characteristic``, which also gives that matrix's exact condition number.
numpy exposes no separate factor and solve, so a factorization here is
the checked matrix itself together with Hager's estimate of its 1-norm
condition number (W. W. Hager, "Condition estimates", SIAM J. Sci.
Stat. Comput. 5, 1984).  The estimate is taken once, when the matrix is
factored, from a few products with A^{-1} and A^{-H}; it also decides
whether the matrix counts as singular.

Every collocation matrix on the uniform mesh is Toeplitz.  For such a
matrix one ``gesv`` call gives the first and last columns x and y of
A^{-1}, and when x_0 != 0 the Gohberg-Semencul formula

    A^{-1} = (1/x_0) [L(x) U(Jy) - L(Zy) U(ZJx)]

(L(a), U(a): lower/upper triangular Toeplitz with first column/row a;
J reversal, Z down-shift) takes every probe of Hager's sweeps in O(n^2)
through ``numpy.convolve``, with no further factorization (I. Gohberg
and A. Semencul, Mat. Issled. 7, 1972).  The caller's right-hand side,
given to ``lu_factor``, rides in the ``gesv`` call that gives x and y as
one more column (two, for the real and imaginary parts of a complex b
with a real matrix), so a Toeplitz solve factors A once and its solution
still comes from LAPACK's LU, never from the formula.  Any other matrix
is probed through ``gesv`` with A and A^H, which factors it again on
each probe, and is solved after the estimate, one single-column ``gesv``
per real or imaginary part.  Measured with OpenBLAS 0.3.31, a one-column
and a multi-column ``gesv`` differ in the last bits (real matrices at 1
BLAS thread, real and complex at 2), while any two multi-column counts
agree: so the extra columns leave x, y and the estimate unchanged, and
both routes solve a real-valued complex b in the bits of a real one.  No
n x n array is kept besides the caller's matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_RCOND_MIN = 1e-13
_HAGER_MAX_SWEEPS = 6

# Largest array, in elements, that any route allocates, each checking its
# own where it allocates it: n <= 4096 for an n x n matrix (256 MiB complex).
MAX_DENSE_ELEMENTS = 4096 * 4096


class SingularMatrixError(ValueError):
    """Raised for an exactly zero pivot or an estimated 1/cond_1 <= 1e-13."""


def check_dense_size(name: str, value: int, rows: int, cols: int) -> None:
    """Raise ValueError naming ``name`` if a rows x cols array is over budget."""
    if rows > 0 and cols > 0 and int(rows) * int(cols) > MAX_DENSE_ELEMENTS:
        raise ValueError(
            f"{name}={value} needs a {rows} x {cols} dense array, more than"
            f" the {MAX_DENSE_ELEMENTS} elements allowed"
        )


def _gesv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"LAPACK found an exactly zero pivot: {exc}") from exc


@dataclass
class LUFactorization:
    """A square matrix checked for LAPACK solves, with its condition estimate.

    ``matrix`` is the caller's matrix, or the real view of it when complex
    storage holds purely real values.  Such systems are solved through
    real arithmetic, which is the same calculation and keeps the result
    bit-identical to the real path.  ``dtype`` is the scalar type of the
    caller's matrix and ``condition`` the Hager estimate of cond_1 that
    ``lu_factor`` took.  ``solution`` is A^{-1} rhs when ``lu_factor`` was
    given a right-hand side, else None.  Each solve is one ``gesv`` call,
    which factors the matrix inside LAPACK; no factors, inverse or copy are
    stored.  For a Toeplitz matrix the estimate and ``solution`` came from
    one ``gesv`` call together; for any other the estimate cost a few
    ``gesv`` calls and ``solution`` one more.
    """

    matrix: np.ndarray
    dtype: np.dtype
    condition: float = math.nan
    solution: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def determinant(self):
        return self.dtype.type(np.linalg.det(self.matrix))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for one right-hand side."""
        return self._solve(self.matrix, b)

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        """Solve A^H x = b (plain transpose for real matrices)."""
        return np.conj(self._solve(self.matrix.T, np.conj(b)))

    def _solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # One single-column gesv per part: the real and imaginary parts of a
        # complex answer from a real matrix are each the same calculation as
        # a real solve.
        return _join([_gesv(a, column) for column in self._columns(b)])

    def _columns(self, b: np.ndarray) -> np.ndarray:
        # The checked rhs as rows of gesv columns in the matrix's scalar type:
        # b itself, or its real and imaginary parts when a real matrix must
        # give a complex answer.
        b = _checked_rhs(b, self.n)
        if np.iscomplexobj(self.matrix):
            return b.astype(np.complex128)[None]
        if np.iscomplexobj(b) or self.dtype.kind == "c":
            return np.stack([b.real, b.imag], dtype=np.float64)
        return b.astype(np.float64)[None]


def _checked_rhs(b, n: int) -> np.ndarray:
    # b as an array, refused unless it has shape (n,) and finite entries.
    b = np.asarray(b)
    if b.shape != (n,):
        raise ValueError(f"rhs must have shape ({n},), got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs contains nonfinite entries")
    return b


def _join(columns: np.ndarray) -> np.ndarray:
    # Inverse of ``_columns``: one solved column, or real and imaginary parts.
    return columns[0] if len(columns) == 1 else columns[0] + 1j * columns[1]


def lu_factor(a: np.ndarray, rhs: np.ndarray | None = None) -> LUFactorization:
    """Check a square matrix for LAPACK solves and estimate its condition.

    Given ``rhs``, the result also carries ``solution`` = A^{-1} rhs, solved
    by LAPACK's LU in the ``gesv`` call that gives the Toeplitz generators,
    or after the estimate for any other matrix; ``rhs`` is checked for shape
    and finiteness (ValueError) before LAPACK runs.

    Raises SingularMatrixError, before any solution is returned, when
    LAPACK meets an exactly zero pivot, or when the estimated reciprocal
    condition number 1/cond_1 is at most 1e-13.  On 40 test matrices
    (Hilbert 2-14; rank-deficient n = 2, 5, 30 with noise from 1e-6 down
    to 0) this rejects every matrix that a test of the best pivot against
    1e-13 times the largest entry rejects.  It also rejects five with
    cond_1 between 1e13 and 1.5e15 that keep every pivot above that
    threshold, hilbert(10) and hilbert(11) among them.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains nonfinite entries")
    if np.iscomplexobj(a) and np.any(a.imag):
        matrix = a.astype(np.complex128, copy=False)
    else:
        matrix = a.real.astype(np.float64, copy=False)
    dtype = np.dtype(np.complex128 if np.iscomplexobj(a) else np.float64)
    fact = LUFactorization(matrix=matrix, dtype=dtype)
    columns = () if rhs is None else fact._columns(rhs)
    probes, solved = _toeplitz_probes(matrix, columns) if fact.n else (None, None)
    probes = probes or (fact.solve, fact.solve_adjoint)
    norm1 = float(np.max(np.abs(matrix).sum(axis=0), initial=0.0))
    fact.condition = 1.0
    if fact.n:
        fact.condition = norm1 * _inverse_norm1_estimate(fact.n, matrix.dtype, *probes)
    if not fact.condition * _RCOND_MIN < 1.0:
        raise SingularMatrixError(
            f"estimated reciprocal 1-norm condition number {1.0 / fact.condition:.3e}"
            f" is at most {_RCOND_MIN:.0e}"
        )
    if rhs is not None:
        fact.solution = fact.solve(rhs) if solved is None else _join(solved)
    return fact


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Factor-and-solve convenience for a single system."""
    return lu_factor(a, b).solution


def condition_estimate_1norm(fact: LUFactorization) -> float:
    """Hager's estimate of cond_1(A) = ||A||_1 * ||A^{-1}||_1.

    ``lu_factor`` takes it once.  Its probes of A^{-1} and A^{-H} come
    from the Gohberg-Semencul formula for a Toeplitz matrix and from
    ``gesv`` otherwise; the result is reliably within a factor of 10 of
    the true value.
    """
    return fact.condition


def _toeplitz_probes(a: np.ndarray, columns=()):
    # (probes, solved) of a Toeplitz matrix: one gesv call solves e_0,
    # e_{n-1} and the rows of ``columns``.  probes are r -> A^{-1} r and
    # r -> A^{-H} r from the first and last columns x, y of A^{-1}, or None
    # when x_0 = 0; solved holds the solutions of ``columns``, row by row.
    # (None, None) for any other matrix, without calling gesv.
    n = a.shape[0]
    if not np.array_equal(a[1:, 1:], a[:-1, :-1]):
        return None, None
    ends = np.zeros((2, n), dtype=a.dtype)
    ends[0, 0] = ends[1, -1] = 1.0
    x, y, *solved = _gesv(a, np.concatenate([ends, np.reshape(columns, (-1, n))]).T).T
    solved = np.array(solved)
    if x[0] == 0:
        return None, solved
    jy = y[::-1]
    zy = np.concatenate(([0.0], y[:-1]))
    zjx = np.concatenate(([0.0], x[:0:-1]))

    def lower(c, r):  # L(c) r
        return np.convolve(c, r)[:n]

    def upper(c, r):  # U(c) r = J L(c) J r
        return np.convolve(c, r[::-1])[:n][::-1]

    def inverse(r):
        return (lower(x, upper(jy, r)) - lower(zy, upper(zjx, r))) / x[0]

    def inverse_adjoint(r):
        r = np.conj(r)
        return np.conj((lower(jy, upper(x, r)) - lower(zjx, upper(zy, r))) / x[0])

    return (inverse, inverse_adjoint), solved


def _inverse_norm1_estimate(n: int, dtype: np.dtype, inverse, inverse_adjoint) -> float:
    # Hager's sweeps: ||A^{-1}||_1 probed through products with A^{-1}, A^{-H}.
    x = np.full(n, 1.0 / n, dtype=dtype)
    est = 0.0
    last_j = -1
    for _ in range(_HAGER_MAX_SWEEPS):
        y = inverse(x)
        mags = np.abs(y)
        est = float(mags.sum())
        if not math.isfinite(est):
            break
        xi = np.where(mags > 0, y / np.where(mags > 0, mags, 1.0), 1.0)
        z = inverse_adjoint(xi)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= np.real(np.vdot(z, x)) or j == last_j:
            break
        x = np.zeros(n, dtype=dtype)
        x[j] = 1.0
        last_j = j
    return est

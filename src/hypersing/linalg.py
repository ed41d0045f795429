"""Dense solves through LAPACK, determinant, and a 1-norm condition estimate.

Every dense solve is one ``numpy.linalg.solve`` call, that is LAPACK
``gesv``: an LU factorization with partial pivoting followed by the two
triangular solves.  ``solve_full`` does not bring the characteristic
equation here: it solves it from the closed-form inverse of its matrix in
``characteristic``, which also gives that matrix's exact condition number.
Nor, from ``fullsolver._GMRES_MIN_N`` on, a difference kernel, which it
solves by GMRES preconditioned with that inverse.
numpy exposes no separate factor and solve, so a factorization here is
the checked matrix itself together with Hager's estimate of its 1-norm
condition number (W. W. Hager, "Condition estimates", SIAM J. Sci.
Stat. Comput. 5, 1984).  The estimate is taken once, when the matrix is
factored, from a few products with A^{-1} and A^{-H}; it also decides
whether the matrix counts as singular.

Every collocation matrix on the uniform mesh is Toeplitz.  Given the
first and last columns x and y of its inverse, with x_0 != 0, the
Gohberg-Semencul formula

    A^{-1} = (1/x_0) [L(x) U(Jy) - L(Zy) U(ZJx)]

(L(a), U(a): lower/upper triangular Toeplitz with first column/row a;
J reversal, Z down-shift) takes every probe of Hager's sweeps in
O(n log n), as four FFT products of the padded length ``_fft_length(n)``,
the smallest 2^a 3^b 5^c >= 2n - 1, with no further factorization (I.
Gohberg and A. Semencul, Mat. Issled. 7, 1972); a probe of A^{-H} is one
of A^{-1} by persymmetry, J A J = A^T.  ``_gohberg_semencul`` builds
those probes from (x, y) and ``_checked_condition`` takes the estimate,
at least 1, and the singular test from them; both serve the dense
Toeplitz route here, where one ``gesv`` call gives x and y, and
``fullsolver``'s GMRES route, which solves for x and y by GMRES and then
its load and the estimate's first sweep in one stacked A^{-1} probe.  The
closed-form inverse of ``characteristic`` pads its products to the same
length.  On the dense route the
caller's right-hand side, given to ``lu_factor``, rides in that ``gesv``
call as one more column (two, for the real and imaginary parts of a
complex b with a real matrix), so a Toeplitz solve factors A once and its
solution still comes from LAPACK's LU, never from the formula.  Any other
matrix is probed through ``gesv`` with A and A^H, which factors it again
on each probe, and is solved after the estimate, one single-column
``gesv`` per real or imaginary part.  Measured with OpenBLAS 0.3.31, a
one-column and a multi-column ``gesv`` differ in the last bits (real matrices at 1
BLAS thread, real and complex at 2), while any two multi-column counts
agree: so the extra columns leave x, y and the estimate unchanged, and
both routes solve a real-valued complex b in the bits of a real one.

The caller's matrix may be a read-only strided view, such as the Toeplitz
view of a 2n - 1 profile that ``fullsolver`` passes: ``gesv`` copies any
layout into LAPACK's own buffer, with the same bits as from a contiguous
copy.  Such a view, with strides (s, -s), is known to be Toeplitz in
O(1); any other layout is compared entry by entry, after an O(n) test of
its first two columns that turns a general matrix away.  A Toeplitz
matrix is checked for finite and for real values, and its 1-norm taken,
from its 2n - 1 generators in O(n), so its solve makes no n x n array
besides LAPACK's copy.  Any other matrix is checked entry by entry, and its
1-norm summed a block of rows at a time.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

_RCOND_MIN = 1e-13
_HAGER_MAX_SWEEPS = 6
# Elements of |A| that ``_norm1`` holds at once (256 KiB).
_NORM1_BLOCK = 1 << 15

# Largest array, in elements, that any route allocates, each checking its
# own where it allocates it: n <= 4096 for an n x n matrix (256 MiB complex).
MAX_DENSE_ELEMENTS = 4096 * 4096


class SingularMatrixError(ValueError):
    """Raised for an exactly zero pivot or an estimated 1/cond_1 <= 1e-13."""


def check_integer(name: str, value) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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

    ``a`` may be any array or view.  It is never written, and copied only
    to convert a scalar type other than float64 and complex128.  A
    Toeplitz matrix (a view with strides (s, -s), or
    ``a[1:, 1:] == a[:-1, :-1]``) is checked for nonfinite entries, tested
    for nonzero imaginary parts and normed from its 2n - 1 generators, its
    first column and row; any other from all of its entries.  A nonfinite
    entry raises ValueError before LAPACK runs.

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
    # A view with strides (s, -s), as ``characteristic._toeplitz_view`` makes,
    # holds a[i, j] at offset (i - j) s: Toeplitz with no n^2 comparison.
    # Any other layout is compared entry by entry only once its first two
    # columns agree along the diagonals, a[1:, 1] == a[:-1, 0]: an O(n)
    # test that turns a general matrix away.
    toeplitz = a.size > 0 and (
        a.strides[0] == -a.strides[1]
        or (len(a) < 2 or bool((a[1:, 1] == a[:-1, 0]).all()))
        and np.array_equal(a[1:, 1:], a[:-1, :-1])
    )
    # A Toeplitz matrix is checked and normed from its 2n - 1 generators
    # p[i - j + n - 1] = a[i, j]; any other matrix from all its entries.
    entries = np.concatenate((a[:0:-1, 0], a[0])) if toeplitz else a
    if not np.all(np.isfinite(entries)):
        raise ValueError("matrix contains nonfinite entries")
    if np.iscomplexobj(a) and np.any(entries.imag):
        matrix = a.astype(np.complex128, copy=False)
    else:
        matrix = a.real.astype(np.float64, copy=False)
    dtype = np.dtype(np.complex128 if np.iscomplexobj(a) else np.float64)
    fact = LUFactorization(matrix=matrix, dtype=dtype)
    columns = () if rhs is None else fact._columns(rhs)
    probes, solved = _toeplitz_probes(matrix, columns) if toeplitz else (None, None)
    probes = probes or (fact.solve, fact.solve_adjoint)
    norm1 = _toeplitz_norm1(entries) if toeplitz else _norm1(matrix)
    fact.condition = _checked_condition(norm1, fact.n, matrix.dtype, *probes)
    if rhs is not None:
        fact.solution = fact.solve(rhs) if solved is None else _join(solved)
    return fact


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Factor-and-solve convenience for a single system."""
    return lu_factor(a, b).solution


def condition_estimate_1norm(fact: LUFactorization) -> float:
    """Hager's estimate of cond_1(A) = ||A||_1 * ||A^{-1}||_1.

    ``lu_factor`` takes it once.  Its probes of A^{-1} and A^{-H} come
    from the Gohberg-Semencul formula, in FFT products, for a Toeplitz
    matrix and from ``gesv`` otherwise; the result is reliably within a
    factor of 10 of the true value.
    """
    return fact.condition


def _norm1(a: np.ndarray) -> float:
    # ||A||_1, max over columns of sum |a_ij|, a block of rows at a time:
    # no n x n temporary.  The running sum joins each block's first row, so
    # every column adds its rows in order, as ``np.abs(a).sum(axis=0)`` does
    # for a C-ordered a, with the same bits.
    rows, cols = a.shape
    step = max(1, _NORM1_BLOCK // max(cols, 1))
    block = np.empty((min(step, rows), cols))
    total = np.zeros(cols)
    for start in range(0, rows, step):
        part = block[: min(step, rows - start)]
        np.abs(a[start : start + step], out=part)
        part[0] += total
        part.sum(axis=0, out=total)
    return float(np.max(total, initial=0.0))


def _toeplitz_norm1(profile: np.ndarray) -> float:
    # ||A||_1 of the Toeplitz matrix with generators p[i - j + n - 1], in
    # O(n).  Column j sums |p| over n-1-j .. 2n-2-j, a window that always
    # holds p[n-1]: a running sum leftward from p[n-2] plus one rightward
    # from p[n-1], both of nonnegative terms, so no difference cancels.
    n = (len(profile) + 1) // 2
    mags = np.abs(profile)
    left = np.concatenate(([0.0], np.cumsum(mags[: n - 1][::-1])))
    right = np.cumsum(mags[n - 1 :])[::-1]
    return float(np.max(left + right))


@functools.lru_cache(maxsize=128)
def _fft_length(n: int) -> int:
    """The smallest 5-smooth length 2^a 3^b 5^c >= 2n - 1, cached for 128 n.

    A circular convolution of that length gives outputs n - 1 .. 2n - 2 of
    the linear one of a 2n - 1 profile with n values unaliased, and the
    first n of two n-vectors'.  pocketfft transforms such a length at about
    the cost per point of a power of two, and it lies closer above 2n - 1:
    800 rather than 1024 at n = 400, 5000 rather than 8192 at n = 2500.
    """
    target = max(2 * n - 1, 1)
    best = 1 << (target - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # The smallest odd * 2^a >= target.
            best = min(best, odd << (-(-target // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _toeplitz_probes(a: np.ndarray, columns=()):
    # (probes, solved) of a nonempty Toeplitz matrix: one gesv call solves
    # e_0, e_{n-1} and the rows of ``columns``.  probes are
    # ``_gohberg_semencul`` of the first and last columns x, y of A^{-1};
    # solved holds the solutions of ``columns``, row by row.  The caller has
    # found the matrix Toeplitz.
    n = a.shape[0]
    ends = np.zeros((2, n), dtype=a.dtype)
    ends[0, 0] = ends[1, -1] = 1.0
    x, y, *solved = _gesv(a, np.concatenate([ends, np.reshape(columns, (-1, n))]).T).T
    return _gohberg_semencul(x, y), np.array(solved)


def _gohberg_semencul(x: np.ndarray, y: np.ndarray):
    """The probes r -> A^{-1} r and r -> A^{-H} r of a Toeplitz A, from x and y.

    x and y are the first and last columns of A^{-1}.  The result is None
    when x_0 = 0, where the formula does not hold.  Each probe takes r of
    the scalar type of x and y, of shape (n,) or stacked as (m, n) rows,
    in four FFT calls of length ``_fft_length(n)`` whatever m is: the two
    upper triangular factors share the transform of J r, and the two lower
    ones are summed before one inverse transform.  Each row of a stack
    gets the bits it gets alone.
    """
    if x[0] == 0:
        return None
    n = len(x)
    length = _fft_length(n)
    real = not (np.iscomplexobj(x) or np.iscomplexobj(y))
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    zero = np.zeros(1, dtype=np.result_type(x, y))
    # The generators x, Jy, Zy and ZJx.
    lower_x, upper_jy, lower_zy, upper_zjx = fft(
        [x, y[::-1], np.concatenate((zero, y[:-1])), np.concatenate((zero, x[:0:-1]))],
        length,
    )

    def inverse(r):
        # U(c) r = J L(c) J r, the first n outputs of a linear convolution.
        jr = fft(r[..., ::-1], length)
        uppers = ifft([upper_jy * jr, upper_zjx * jr], length)[..., n - 1 :: -1]
        u_jy, u_zjx = fft(uppers, length)
        return ifft(lower_x * u_jy - lower_zy * u_zjx, length)[..., :n] / x[0]

    def inverse_adjoint(r):
        # J A J = A^T for a Toeplitz A, so A^{-H} r = conj(J A^{-1} J conj(r)).
        return np.conj(inverse(np.conj(r)[::-1]))[::-1]

    return inverse, inverse_adjoint


def _checked_condition(
    norm1: float, n: int, dtype: np.dtype, inverse, inverse_adjoint, first=None
) -> float:
    """||A||_1 times Hager's estimate of ||A^{-1}||_1 from the two probes, at least 1.

    ``first``, when given, is A^{-1} 1/n, the product of the first sweep,
    taken by the caller together with other probes.  cond_1(A) >= 1, but
    the FFT rounding of the Gohberg-Semencul probes can put the product a
    few ulps under that, as for the identity at n = 14: the result is the
    larger of the two.  Raises SingularMatrixError when the reciprocal is
    at most 1e-13, or the estimate is not a number.
    """
    estimate = _inverse_norm1_estimate(n, dtype, inverse, inverse_adjoint, first) if n else 1.0
    condition = max(norm1 * estimate, 1.0)  # a NaN product stays NaN
    if not condition * _RCOND_MIN < 1.0:
        raise SingularMatrixError(
            f"estimated reciprocal 1-norm condition number {1.0 / condition:.3e}"
            f" is at most {_RCOND_MIN:.0e}"
        )
    return condition


def _inverse_norm1_estimate(n: int, dtype: np.dtype, inverse, inverse_adjoint, first=None) -> float:
    # Hager's sweeps: ||A^{-1}||_1 probed through products with A^{-1}, A^{-H}.
    # ``first``, when given, is the first sweep's product A^{-1} x.
    x = np.full(n, 1.0 / n, dtype=dtype)
    est = 0.0
    last_j = -1
    for _ in range(_HAGER_MAX_SWEEPS):
        y = inverse(x) if first is None else first
        first = None
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

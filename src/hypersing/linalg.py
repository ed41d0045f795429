"""Dense solves through LAPACK, determinant, and a 1-norm condition estimate.

Every dense solve is one ``numpy.linalg.solve`` call, that is LAPACK
``gesv``: an LU factorization with partial pivoting followed by the two
triangular solves.  numpy exposes no separate factor and solve, so a
factorization here is the checked matrix itself together with Hager's
estimate of its 1-norm condition number (W. W. Hager, "Condition
estimates", SIAM J. Sci. Stat. Comput. 5, 1984).  ``lu_factor`` takes
the estimate once, from a few ``gesv`` probes with A and A^H; it also
decides whether the matrix counts as singular.  The matrix is checked and
its 1-norm summed entry by entry, a block of rows at a time, and the
caller's right-hand side is solved after the estimate, one single-column
``gesv`` per real or imaginary part.  ``solve_full`` brings here only a
general kernel's matrix and a Toeplitz matrix with (A^{-1})_00 = 0;
``fullsolver`` solves every other collocation matrix from its 2n - 1
profile.

Every solver takes its input rules from here: a load is one finite value
per point (``_checked_rhs``), a real operator solves a complex load as its
real and imaginary parts (``_split``, undone by ``_join``), and complex
storage holding only real values is solved in float64 (``_real_view``).

For the Toeplitz solves of ``fullsolver`` this module holds the shared pieces.  Given the
first and last columns x and y of A^{-1}, with x_0 != 0, the
Gohberg-Semencul formula

    A^{-1} = (1/x_0) [L(x) U(Jy) - L(Zy) U(ZJx)]

(L(a), U(a): lower/upper triangular Toeplitz with first column/row a;
J reversal, Z down-shift) takes every probe of Hager's sweeps in
O(n log n), as four FFT products of the padded length ``_fft_length(n)``,
the smallest 2^a 3^b 5^c >= 2n - 1, with no further factorization (I.
Gohberg and A. Semencul, Mat. Issled. 7, 1972); a probe of A^{-H} is one
of A^{-1} by persymmetry, J A J = A^T.  ``_gohberg_semencul`` builds
those probes from (x, y), ``_checked_condition`` takes the estimate, at
least 1, and the singular test from them, and ``_toeplitz_norm1`` takes
||A||_1 from the profile in O(n).  The closed-form inverse of
``characteristic`` pads its products to the same length.
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
    stored.  The estimate cost a few ``gesv`` calls and ``solution`` one
    more.
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
        """Solve A^H x = b (plain transpose for real matrices).

        It serves Hager's probes in ``lu_factor``, and stays a named method
        because ``perfbench/spans.py`` binds it to time those probes, until
        a solve report inside the package replaces that binding (ROADMAP
        item 7).
        """
        return np.conj(self._solve(self.matrix.T, np.conj(b)))

    def _solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # One single-column gesv per row of ``_split``.
        rows = _split(
            _checked_rhs(b, self.n, "b"),
            np.iscomplexobj(self.matrix),
            np.iscomplexobj(b) or self.dtype.kind == "c",
        )
        return _join([_gesv(a, row) for row in rows])


def _checked_rhs(b, n: int, name: str) -> np.ndarray:
    # b as an array, refused unless it has shape (n,) and finite entries:
    # one value per point, the contract of every solve's load.  A refusal
    # names b as the caller's argument ``name``.
    b = np.asarray(b)
    if b.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError(f"{name} contains nonfinite entries")
    return b


def _real_view(a: np.ndarray) -> np.ndarray:
    # a in complex128 when it holds a nonzero imaginary part, else its real
    # part in float64: real-valued complex storage is solved in real
    # arithmetic, the same calculation with the bits of the real path.
    if np.iscomplexobj(a) and np.any(a.imag):
        return a.astype(np.complex128, copy=False)
    return a.real.astype(np.float64, copy=False)


def _split(b: np.ndarray, complex_operator: bool, complex_answer: bool) -> np.ndarray:
    # The rows an operator solves for b, stacked on a new first axis: b
    # itself for a complex operator; b's real and imaginary parts for a
    # real one whose answer is complex, each part the same calculation as
    # a real solve; else b alone.  ``_join`` puts the answer back together.
    if complex_operator:
        return b.astype(np.complex128, copy=False)[None]
    if complex_answer:
        return np.stack([b.real, b.imag], dtype=np.float64)
    return b.astype(np.float64, copy=False)[None]


def _join(rows) -> np.ndarray:
    # Inverse of ``_split``: one solved row, or real and imaginary parts.
    return rows[0] if len(rows) == 1 else rows[0] + 1j * rows[1]


def lu_factor(a: np.ndarray, rhs: np.ndarray | None = None) -> LUFactorization:
    """Check a square matrix for LAPACK solves and estimate its condition.

    ``a`` may be any array or view.  It is never written, and copied only
    to convert a scalar type other than float64 and complex128.  A
    nonfinite entry raises ValueError before LAPACK runs.  Given ``rhs``,
    the result also carries ``solution`` = A^{-1} rhs, solved after the
    estimate; ``rhs`` is checked for shape and finiteness (ValueError)
    before LAPACK runs.  Complex storage holding only real values is
    solved in float64 (``_real_view``), and a complex answer of a real
    matrix as the real and imaginary parts of the right-hand side, the
    rows of ``_split`` that the Toeplitz route of ``fullsolver`` and
    ``CharacteristicInverse.apply`` share.

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
    matrix = _real_view(a)
    dtype = np.dtype(np.complex128 if np.iscomplexobj(a) else np.float64)
    fact = LUFactorization(matrix=matrix, dtype=dtype)
    if rhs is not None:
        _checked_rhs(rhs, fact.n, "rhs")
    fact.condition = _checked_condition(
        _norm1(matrix), fact.n, matrix.dtype, fact.solve, fact.solve_adjoint
    )
    if rhs is not None:
        fact.solution = fact.solve(rhs)
    return fact


def condition_estimate_1norm(fact: LUFactorization) -> float:
    """Hager's estimate of cond_1(A) = ||A||_1 * ||A^{-1}||_1.

    ``lu_factor`` takes it once, from ``gesv`` probes of A^{-1} and A^{-H};
    the result is reliably within a factor of 10 of the true value.  It
    returns a stored field, and stays because ``perfbench/spans.py`` binds
    it by name, until a solve report inside the package replaces that
    binding (ROADMAP item 7).
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


def _full_spectrum(spectrum: np.ndarray, length: int) -> np.ndarray:
    # The complex FFT of length ``length`` of a real sequence, read-only,
    # from its real FFT ``spectrum``: the conjugate mirror image supplies
    # the rest, with no transform.
    tail = spectrum[1 : length - len(spectrum) + 1]
    return _frozen(np.concatenate((spectrum, tail[::-1].conj())))


def _power_of_two(value) -> float:
    # The power of two 2^e <= |value| < 2^(e + 1), finite and nonzero for
    # every finite value: dividing by it brings |value| into [1, 2), and
    # in the normal range moves no bit of any product, sum or FFT after it.
    return math.ldexp(1.0, math.frexp(abs(value))[1] - 1)


def _frozen(a: np.ndarray) -> np.ndarray:
    # a, made read-only: an array that is built once and then shared.
    a.setflags(write=False)
    return a


def _gohberg_semencul(x: np.ndarray, y: np.ndarray):
    """The probes r -> A^{-1} r and r -> A^{-H} r of a Toeplitz A, from x and y.

    x and y are the first and last columns of A^{-1}.  The result is None
    when x_0 = 0, where the formula does not hold.  Each probe takes r of
    the scalar type of x and y, of shape (n,) or stacked as (m, n) rows,
    in four FFT calls of length ``_fft_length(n)`` whatever m is: the two
    upper triangular factors share the transform of J r, and the two lower
    ones are summed before one inverse transform.  Each row of a stack
    gets the bits it gets alone.  x and y are divided by the power of two
    of x_0 and each probe's output multiplied by it, so the products of
    their entries do not underflow for a matrix of entries near 1e160.
    """
    if x[0] == 0:
        return None
    n = len(x)
    scale = _power_of_two(x[0])
    x, y = x / scale, y / scale
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
        return ifft(lower_x * u_jy - lower_zy * u_zjx, length)[..., :n] / x[0] * scale

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

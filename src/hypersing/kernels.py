"""Regular kernels and packaged problems.

A convolution kernel K0(x - t) pairs with the 1/(x-t)^2 singular part
through its Fourier symbol: when the symbol behaves like A|s| plus an
integrable remainder L0, the transform of A|s| produces -2A/x^2 and the
transform of L0 produces the regular part

    K0(x) = (1/pi) int_0^inf L0(s) cos(s x) ds.

A difference kernel is defined once, by its profile: ``RegularKernel``
derives ``profile`` and ``eval`` from ``profile_batch``.  The module
builds such kernels three ways: in closed form, from a symbol by
quadrature, and the rigid-screen kernel with its radiation branch,
evaluated in closed form through the Bessel functions J1 and Y1.  It
assembles the two packaged problems in the canonical normalization where
the singular part carries unit coefficient; the crack is the
characteristic equation itself and carries no kernel.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from hypersing.analytic import RightHandSide, _check_crack, _require_finite
from hypersing.fullsolver import FullProblem
from hypersing.mesh import make_mesh
from hypersing.quadrature import adaptive_gauss

_BATCH_CHUNK = 4096

_EULER_GAMMA = 0.57721566490153286061

# The screen kernel is (k/(2|d|)) (Y1(z) + 2/(pi z) - i J1(z)) with z = k|d|;
# _series, _miller and _hankel each return the bracket on one range of z,
# and _bracket calls only the branches its points fall in.  Each point's
# trip count depends on its own z alone: the series and the Hankel
# expansion have fixed lengths, and Miller's recurrence starts at the order
# of the point's z-band, [2, 4), [4, 8), [8, 16) or [16, 25).  Against
# 50-digit mpmath the starts 22, 30, 44 and 56 hold the bracket within
# 1.5e-15 on their bands, and two steps fewer lose a digit; the table adds
# two steps of margin.
_SERIES_BELOW = 2.0
_ASYMPTOTIC_FROM = 25.0
_MILLER_EDGES = np.array([4.0, 8.0, 16.0])
_MILLER_STARTS = (24, 32, 46, 58)
_HANKEL_TERMS = 20


# The coefficients a_m + i a_m c_m of _series, highest m first, with
# a_m = 1/(m! (m+1)!) and c_m = (psi(m+1) + psi(m+2))/2 = H_m + 1/(2(m+1)) - gamma.
# 13 terms leave a tail below 1e-20 for z < 2.
_SERIES_COEFFS = [
    (1 / (math.factorial(m) * math.factorial(m + 1)))
    * complex(1.0, math.fsum(1.0 / j for j in range(1, m + 1)) + 0.5 / (m + 1) - _EULER_GAMMA)
    for m in range(12, -1, -1)
]


class TailTruncationError(ValueError):
    """Raised when the truncated frequency tail cannot meet the tolerance."""


class SymbolDecayError(ValueError):
    """Raised when a symbol's remainder does not decay at its stated rate."""


@dataclass
class RegularKernel:
    """Smooth kernel K0, given by its profile or pointwise.

    A difference kernel K0(x - t) is given by ``profile_batch``, its values
    at a 1-D array of differences; ``profile(d)`` and ``eval(x, t)`` are
    derived from it here (an ``eval`` passed with it is replaced), and
    solvers use it to collapse the n x n kernel table to the 2n - 1
    distinct differences a uniform mesh produces.  A general kernel is
    given by ``eval(x, t)``, which must broadcast over numpy arrays.  The
    collocation solver integrates either form over each cell by its two
    Gauss points, so the form decides only how the table is stored, never
    what it holds.
    ``k1``, when present, is an antiderivative of the kernel in its first
    argument.  ``even`` declares K0(-d) = K0(d) for a difference kernel;
    on the mirror-symmetric Gauss-Chebyshev grids K0(x_i - t_j) then equals
    K0(x_{m-1-i} - t_{m-j}), and ``solve_spectral`` evaluates half the
    table; the collocation solver evaluates the cells with i - j >= 0 only,
    and its symmetric matrix needs one column of its inverse, not two.
    ``log_coefficient`` declares a logarithmic difference kernel
    K0(d) = S(d) ln|d| + R(d) with S and R smooth: it maps an array of K0
    values to S at the same differences, so S costs no evaluation of its
    own, and ``solve_spectral`` then integrates the logarithm exactly, the
    collocation table by product weights over each cell.
    Declaring either without ``profile_batch`` raises ValueError.
    """

    eval: Optional[Callable] = None
    k1: Optional[Callable] = None
    profile_batch: Optional[Callable] = None
    even: bool = False
    log_coefficient: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.profile_batch is not None:
            self.eval = self._difference_eval
        elif self.even:
            raise ValueError("even=True needs profile_batch: only a difference kernel is even")
        elif self.log_coefficient is not None:
            raise ValueError(
                "log_coefficient needs profile_batch: only a difference kernel declares it"
            )
        elif self.eval is None:
            raise ValueError("a kernel needs profile_batch or eval")

    def profile(self, d):
        """K0 at the differences ``d``, scalar or array; difference kernels only."""
        values = self.profile_batch(np.atleast_1d(d).ravel())
        return values.reshape(np.shape(d)) if np.shape(d) else values[0]

    def _difference_eval(self, x, t):
        return self.profile(np.asarray(x) - np.asarray(t))


@dataclass
class FourierSymbol:
    """Symbol L(s) = A|s| + L0(s) with remainder decaying like s^(-1-delta).

    ``validate`` samples the splitting identity and the decay bound;
    kernel construction refuses symbols that fail either check.
    """

    L: Callable[[np.ndarray], np.ndarray]
    A: float
    L0: Callable[[np.ndarray], np.ndarray]
    decay: float

    def validate(self) -> None:
        if self.decay <= 0:
            raise SymbolDecayError(f"decay exponent must be positive, got {self.decay}")
        s = np.array([0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1000.0, 10000.0])
        split = np.abs(np.asarray(self.L(s)) - self.A * np.abs(s) - np.asarray(self.L0(s)))
        scale = 1.0 + np.abs(np.asarray(self.L0(s)))
        if np.any(split > 1e-10 * scale):
            raise SymbolDecayError("L(s) does not equal A|s| + L0(s) at sampled points")
        bound = self._tail_bound()
        early = float(np.max(bound[: len(bound) // 2]))
        late = float(np.max(bound[len(bound) // 2 :]))
        if late > 3.0 * early + 1e-12:
            raise SymbolDecayError(
                f"|L0(s)| s^(1+delta) grows from {early:.3e} to {late:.3e}; "
                "the stated decay rate is too optimistic"
            )

    def _tail_bound(self) -> np.ndarray:
        tail = np.geomspace(10.0, 1e4, 25)
        return np.abs(np.asarray(self.L0(tail))) * tail ** (1.0 + self.decay)

    def remainder_bound(self) -> float:
        """Max of |L0(s)| s^(1+delta) over the sampled high-frequency range."""
        return float(np.max(self._tail_bound()))


@dataclass
class CrackParams:
    """Pressurized straight crack: load sigma0, shear modulus mu, Poisson nu, half-length a."""

    sigma0: float
    mu: float
    nu: float
    a: float

    def __post_init__(self) -> None:
        _check_crack(**asdict(self))


@dataclass
class ScreenParams:
    """Rigid screen under a normally incident plane wave: wavenumber k, half-length a.

    The screen occupies |x| < a on y = 0 and the incident wave is the unit
    plane wave e^{-iky} with time factor e^{-i omega t}, arriving from y > 0.
    """

    k: float
    a: float

    def __post_init__(self) -> None:
        _require_finite(**asdict(self))
        if self.k <= 0:
            raise ValueError(f"wavenumber must be positive, got {self.k}")
        if self.a <= 0:
            raise ValueError(f"half-length must be positive, got {self.a}")


def zero_kernel() -> RegularKernel:
    """The identically zero regular kernel (characteristic equation)."""
    return RegularKernel(
        k1=lambda x, t: np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape),
        profile_batch=lambda d: np.zeros(np.shape(np.atleast_1d(d)), dtype=float),
    )


def polynomial_kernel(A: float) -> RegularKernel:
    """Linear convolution kernel K0(x, t) = A (x - t).

    Carries the antiderivative K1(x, t) = A (x^2/2 - x t), so the
    second-kind reduction diagnostics accept it.  Raises ValueError for a
    nonfinite A.
    """
    _require_finite(A=A)
    return RegularKernel(
        k1=lambda x, t: A * (np.asarray(x) ** 2 / 2.0 - np.asarray(x) * np.asarray(t)),
        profile_batch=lambda d: A * np.atleast_1d(np.asarray(d, dtype=float)),
    )


def kernel_from_symbol(
    symbol: FourierSymbol, quad_cap: float, tol: float = 1e-8
) -> RegularKernel:
    """Synthesize the regular kernel from a symbol by a truncated cosine transform.

    K0(x - t) = (1/pi) int_0^quad_cap L0(s) cos(s (x-t)) ds, with the
    discarded tail bounded through the stated decay rate; the bound must
    not exceed ``tol``.  An even remainder is assumed, which is what a
    real symmetric kernel produces; the profile is evaluated at |d| and
    the kernel is declared ``even``, so on the spectral oracle's mirrored
    grids K0(x_i - t_j) = K0(x_{m-1-i} - t_{m-j}) and half the table is
    evaluated.  Raises ValueError naming ``quad_cap`` or ``tol`` unless it is
    positive and finite, before the symbol is sampled.
    """
    for name, value in (("quad_cap", quad_cap), ("tol", tol)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    symbol.validate()
    bound = symbol.remainder_bound() / (np.pi * symbol.decay * quad_cap**symbol.decay)
    if bound > tol:
        raise TailTruncationError(
            f"tail beyond s={quad_cap:g} is bounded by {bound:.3e} > tol={tol:g}; "
            "raise the truncation frequency"
        )
    sample = np.asarray(symbol.L0(np.array([1.0])))
    dtype = np.complex128 if np.iscomplexobj(sample) else np.float64

    def profile_batch(d):
        dd = np.abs(np.atleast_1d(np.asarray(d, dtype=float)))
        out = np.empty(dd.shape, dtype=dtype)
        for start in range(0, dd.size, _BATCH_CHUNK):
            chunk = dd[start : start + _BATCH_CHUNK]

            def integrand(s):
                return np.asarray(symbol.L0(s))[:, None] * np.cos(np.outer(s, chunk))

            out[start : start + _BATCH_CHUNK] = adaptive_gauss(
                integrand, 0.0, quad_cap, tol * np.pi, max_panels=40_000
            )
        return out / np.pi

    return RegularKernel(profile_batch=profile_batch, even=True)


def _two_product(a, b):
    """Dekker's error-free product: (p, err) with p = fl(a * b) and p + err = a * b exactly."""
    p = a * b
    sa = 134217729.0 * a  # 2**27 + 1 splits a double into two 26-bit halves
    a_hi = sa - (sa - a)
    a_lo = a - a_hi
    sb = 134217729.0 * b
    b_hi = sb - (sb - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # re + i im, written in place rather than through complex temporaries.
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _series(k: float, d: np.ndarray) -> np.ndarray:
    # Ascending series (A&S 9.1.10-11) in w = -z^2/4, both sums by one
    # Horner pass over complex coefficients a_m + i a_m c_m, where
    # a_m = 1/(m! (m+1)!) and c_m = (psi(m+1) + psi(m+2))/2:
    # J1 = (z/2) sum a_m w^m and
    # Y1 + 2/(pi z) = (z/pi) [ln(z/2) sum a_m w^m - sum a_m c_m w^m].
    z = k * d
    w = (-0.25 * z * z).astype(complex)  # a complex factor multiplies without a cast per term
    sums = np.full(z.shape, _SERIES_COEFFS[0])
    for coeff in _SERIES_COEFFS[1:]:
        sums *= w
        sums += coeff
    j_sum, c_sum = sums.real, sums.imag
    return _complex((z / np.pi) * (np.log(0.5 * z) * j_sum - c_sum), -0.5 * z * j_sum)


def _miller(k: float, d: np.ndarray) -> np.ndarray:
    # Backward recurrence b_{n-1} = (2n/z) b_n - b_{n+1} from b_N = 1,
    # b_{N+1} = 0, normalized by J0 + 2 sum J_2m = 1.  The Neumann series
    # (A&S 9.1.88 with n = 1, 1 - J0 = 2 sum J_2m)
    # Y1 + 2/(pi z) = (2/pi) [(2/z) sum J_2m + (ln(z/2) + gamma - 1) J1
    #                         - sum_m (-1)^m (2m+1) J_{2m+1} / (m (m+1))]
    # is accumulated while the recurrence runs.  N is the start order of the
    # point's z-band; a point carries exact zeros until the loop reaches its
    # N, so its value does not depend on the other points.  For z >= 2 the
    # unnormalized values stay below 58! ~ 1e78, far from overflow.
    z = k * d
    start = np.take(_MILLER_STARTS, np.searchsorted(_MILLER_EDGES, z, side="right"))
    above = np.zeros_like(z)
    current = np.zeros_like(z)
    even = np.zeros_like(z)
    odd = np.zeros_like(z)
    for n in range(int(start.max()), 0, -1):
        if n in _MILLER_STARTS:
            current[start == n] = 1.0
        if n % 2 == 0:
            even += current
        elif n > 1:
            m = n // 2
            odd += ((-1) ** m * n / (m * (m + 1))) * current
        current, above = (2.0 * n / z) * current - above, current
    scale = 1.0 / (current + 2.0 * even)
    y1t = (2.0 / z) * even + (np.log(0.5 * z) + (_EULER_GAMMA - 1.0)) * above - odd
    return _complex((2.0 / np.pi) * scale * y1t, -scale * above)


def _hankel(k: float, d: np.ndarray) -> np.ndarray:
    # H1(z) = sqrt(2/(pi z)) e^{i(z - 3 pi/4)} sum_m c_m (i/z)^m (A&S 9.2.5-10),
    # c_m = prod_{j<=m} (4 - (2j-1)^2) / (8j).  The phase uses z + z_err, the
    # exact product k|d|, so a large z loses no digits to its own rounding.
    z, z_err = _two_product(k, d)
    w = 1j / z
    term = np.ones_like(w)
    tail = np.ones_like(w)
    for j in range(1, _HANKEL_TERMS):
        term = term * (((4.0 - (2 * j - 1) ** 2) / (8.0 * j)) * w)
        tail += term
    phase = np.exp(1j * z) * (1.0 + 1j * z_err) * np.exp(-0.75j * np.pi)
    return 2.0 / (np.pi * z) - 1j * np.sqrt(2.0 / (np.pi * z)) * phase * tail


def _bracket(k: float, d: np.ndarray) -> np.ndarray:
    """Y1(z) + 2/(pi z) - i J1(z) at z = k d for d > 0; NaN where z is NaN or infinite.

    Each branch is called only on its own points, gathered from the whole
    batch and taken ``_BATCH_CHUNK`` at a time to keep the temporaries of
    its loop small.
    """
    z = k * d
    branches = (
        (_series, z < _SERIES_BELOW),
        (_miller, (z >= _SERIES_BELOW) & (z < _ASYMPTOTIC_FROM)),
        (_hankel, (z >= _ASYMPTOTIC_FROM) & (z < np.inf)),
    )
    del z  # so that z and a branch's index array are never held together
    out = np.full(d.shape, np.nan, dtype=complex)
    for branch, points in branches:
        index = np.flatnonzero(points)
        for i in range(0, index.size, _BATCH_CHUNK):
            part = index[i : i + _BATCH_CHUNK]
            out[part] = branch(k, d[part])
    return out


def acoustic_kernel(params: ScreenParams) -> RegularKernel:
    """Regular part of the rigid-screen kernel at wavenumber k, in closed form.

    K0(d) = (1/pi) int_0^inf (sqrt(s^2 - k^2) - s) cos(s d) ds, where the
    root takes the outgoing-wave branch -i sqrt(k^2 - s^2) below the
    wavenumber, equals

        K0(d) = 1/(pi d^2) - (i k/2) H1^(1)(k|d|)/|d|
              = (k/(2|d|)) (Y1~(z) - i J1(z)),   z = k|d|,

    with Y1~(z) = Y1(z) + 2/(pi z); the 1/(pi d^2) cancellation is done
    analytically, so small |d| loses no digits.  J1 and Y1~ come from the
    13-term ascending series for z < 2, Miller's backward recurrence with
    the Neumann series for 2 <= z < 25, started at order 24, 32, 46 or 58
    on the z-bands [2, 4), [4, 8), [8, 16) and [16, 25), and the 20-term
    Hankel expansion for z >= 25.  The work per point depends on its own
    z alone, whatever k and whatever else is in the batch, and a batch
    calls only the branches its points need.  Against 50-digit mpmath over
    |d| in [1e-6, 2] and k from 1e-3 to 1e4 the measured relative error is
    at most 2.9e-15, in the band [16, 25).  The kernel is even: it is
    evaluated at |d| and declared ``even``, so on the spectral oracle's
    mirrored grids K0(x_i - t_j) = K0(x_{m-1-i} - t_{m-j}) and half the
    table is evaluated.  It is complex valued and logarithmically
    singular at d = 0, where evaluation raises ValueError; a NaN or
    infinite difference gives NaN.  Interleaved meshes never request the
    diagonal.  As Y1~(z) is (2/pi) J1(z) ln(z/2) plus z times a power
    series in z^2 (A&S 9.1.11), K0(d) = S(d) ln|d| + R(d) with
    S(d) = (k/(pi|d|)) J1(k|d|) and R entire; for real k, S = -(2/pi) Im K0,
    which the kernel declares as its ``log_coefficient``.
    """
    k = params.k

    def profile_batch(d):
        dd = np.abs(np.atleast_1d(np.asarray(d, dtype=float)))
        if np.any(dd == 0.0):
            raise ValueError("screen kernel is logarithmically singular at x = t")
        out = _bracket(k, dd)
        out *= 0.5 * k / dd
        return out

    return RegularKernel(
        profile_batch=profile_batch,
        even=True,
        log_coefficient=lambda values: (-2.0 / np.pi) * np.imag(values),
    )


def normalize_to_canonical(
    coefficient: complex, rhs: RightHandSide, kernel: RegularKernel
) -> tuple[RightHandSide, RegularKernel]:
    """Rescale an equation so its 1/(x-t)^2 part has unit coefficient.

    Given the equation  coefficient * int g/(x-t)^2 + int K0 g = f', both
    the kernel and the right-hand side are divided by ``coefficient``; the
    scaled kernel keeps ``even``, and its ``log_coefficient`` maps the scaled
    values v to factor * S(v / factor), factor = 1/coefficient.  Raises
    ValueError when the singular coefficient is zero.
    """
    if coefficient == 0:
        raise ValueError("singular-part coefficient must be nonzero")
    factor = 1.0 / coefficient

    def scaled(fn):
        return None if fn is None else (lambda *args: factor * np.asarray(fn(*args)))

    log_coefficient = kernel.log_coefficient
    scaled_kernel = RegularKernel(
        eval=None if kernel.profile_batch is not None else scaled(kernel.eval),
        k1=scaled(kernel.k1),
        profile_batch=scaled(kernel.profile_batch),
        even=kernel.even,
        log_coefficient=None if log_coefficient is None else (
            lambda values: factor * np.asarray(log_coefficient(values / factor))
        ),
    )
    return RightHandSide(fprime=scaled(rhs.fprime), f=scaled(rhs.f)), scaled_kernel


def crack_problem(params: CrackParams, n: int) -> FullProblem:
    """Collocation problem for the crack opening under constant load.

    The raw convolution form has kernel -2/x^2 and right-hand side
    2 pi (1-nu) sigma0 / mu; dividing by the singular coefficient -2
    leaves the characteristic equation (no regular kernel) with
    f'(x) = -pi (1-nu) sigma0 / mu.  The antiderivative is attached so the
    closed-form inversion can serve as an oracle.
    """
    load = -np.pi * (1.0 - params.nu) * params.sigma0 / params.mu
    rhs = RightHandSide(
        fprime=lambda x: load * np.ones_like(np.asarray(x, dtype=float)),
        f=lambda x: load * np.asarray(x, dtype=float),
    )
    return FullProblem(mesh=make_mesh(-params.a, params.a, n), rhs=rhs, kernel=None)


def screen_problem(params: ScreenParams, n: int) -> FullProblem:
    """Collocation problem for plane-wave diffraction by a rigid screen.

    The raw equation int g(t) K(x-t) dt = -ik has kernel
    K(x) = -1/(pi x^2) + K0(x); dividing by the singular coefficient -1/pi
    yields the canonical problem with kernel -pi K0 and constant
    right-hand side i pi k (antiderivative i pi k x attached).  The
    scalar field is complex.

    The unknown g is the scattered field on the lit face y = 0+ for the
    unit incident wave e^{-iky} (time factor e^{-i omega t}), taken on the
    outgoing branch; the scattered field is odd in y, so g is half its
    jump across the screen.  As k -> 0 the problem becomes potential flow
    past a strip and g -> -ik sqrt(a^2 - x^2).
    """
    k = params.k
    raw = RightHandSide(
        fprime=lambda x: np.full(np.shape(np.asarray(x)), -1j * k),
        f=lambda x: -1j * k * np.asarray(x, dtype=complex),
    )
    rhs, kernel = normalize_to_canonical(-1.0 / np.pi, raw, acoustic_kernel(params))
    return FullProblem(mesh=make_mesh(-params.a, params.a, n), rhs=rhs, kernel=kernel)

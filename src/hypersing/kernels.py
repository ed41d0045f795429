"""Regular kernels and packaged problems.

A convolution kernel K0(x - t) pairs with the 1/(x-t)^2 singular part
through its Fourier symbol: when the symbol behaves like A|s| plus an
integrable remainder L0, the transform of A|s| produces -2A/x^2 and the
transform of L0 produces the regular part

    K0(x) = (1/pi) int_0^inf L0(s) cos(s x) ds.

The module builds such kernels three ways: in closed form, from a symbol
by quadrature, and the rigid-screen kernel with its radiation branch,
evaluated in closed form through the Bessel functions J1 and Y1.  It
assembles the two packaged problems in the canonical normalization where
the singular part carries unit coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from hypersing.analytic import RightHandSide
from hypersing.fullsolver import FullProblem
from hypersing.mesh import make_mesh
from hypersing.quadrature import adaptive_gauss_batch

_BATCH_CHUNK = 4096

_EULER_GAMMA = 0.57721566490153286061

# The screen kernel is (k/(2|d|)) (Y1(z) + 2/(pi z) - i J1(z)) with z = k|d|;
# _series, _miller and _hankel each return the bracket on one range of z,
# with a fixed trip count, and _bracket picks the branch.
_SERIES_BELOW = 2.0
_SERIES_TERMS = 16
_ASYMPTOTIC_FROM = 25.0
_MILLER_START = 64
_HANKEL_TERMS = 20


class TailTruncationError(ValueError):
    """Raised when the truncated frequency tail cannot meet the tolerance."""


class SymbolDecayError(ValueError):
    """Raised when a symbol's remainder does not decay at its stated rate."""


@dataclass
class RegularKernel:
    """Smooth kernel K0 with optional convolution and antiderivative structure.

    ``eval(x, t)`` must broadcast over numpy arrays.  Convolution kernels
    also carry ``profile`` (K0 of the single variable x - t) and
    ``profile_batch`` for evaluating many differences at once; solvers use
    those to collapse the n x n kernel table to the 2n - 1 distinct
    differences a uniform mesh produces.  ``k1``, when present, is an
    antiderivative of the kernel in its first argument.
    """

    eval: Callable
    k1: Optional[Callable] = None
    profile: Optional[Callable] = None
    profile_batch: Optional[Callable] = None
    metadata: str = ""


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
        tail = np.geomspace(10.0, 1e4, 25)
        bound = np.abs(np.asarray(self.L0(tail))) * tail ** (1.0 + self.decay)
        early = float(np.max(bound[: len(bound) // 2]))
        late = float(np.max(bound[len(bound) // 2 :]))
        if late > 3.0 * early + 1e-12:
            raise SymbolDecayError(
                f"|L0(s)| s^(1+delta) grows from {early:.3e} to {late:.3e}; "
                "the stated decay rate is too optimistic"
            )

    def remainder_bound(self) -> float:
        """Max of |L0(s)| s^(1+delta) over the sampled high-frequency range."""
        tail = np.geomspace(10.0, 1e4, 25)
        return float(np.max(np.abs(np.asarray(self.L0(tail))) * tail ** (1.0 + self.decay)))


def _require_finite(params) -> None:
    for field in fields(params):
        value = getattr(params, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


@dataclass
class CrackParams:
    """Pressurized straight crack: load sigma0, shear modulus mu, Poisson nu, half-length a."""

    sigma0: float
    mu: float
    nu: float
    a: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.mu <= 0:
            raise ValueError(f"shear modulus must be positive, got {self.mu}")
        if not (0.0 < self.nu < 0.5):
            raise ValueError(f"Poisson ratio must lie in (0, 1/2), got {self.nu}")
        if self.a <= 0:
            raise ValueError(f"half-length must be positive, got {self.a}")


@dataclass
class ScreenParams:
    """Rigid screen under a normally incident plane wave: wavenumber k, half-length a.

    The screen occupies |x| < a on y = 0 and the incident wave is the unit
    plane wave e^{-iky} with time factor e^{-i omega t}, arriving from y > 0.
    """

    k: float
    a: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.k <= 0:
            raise ValueError(f"wavenumber must be positive, got {self.k}")
        if self.a <= 0:
            raise ValueError(f"half-length must be positive, got {self.a}")


def _convolution_eval(profile_batch: Callable) -> Callable:
    def eval_(x, t):
        diff = np.asarray(x) - np.asarray(t)
        flat = np.atleast_1d(diff).ravel()
        vals = profile_batch(flat)
        return vals.reshape(np.shape(diff)) if np.shape(diff) else vals[0]

    return eval_


def zero_kernel() -> RegularKernel:
    """The identically zero regular kernel (characteristic equation)."""

    def profile_batch(d):
        return np.zeros(np.shape(np.atleast_1d(d)), dtype=float)

    return RegularKernel(
        eval=lambda x, t: np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape),
        k1=lambda x, t: np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape),
        profile=lambda d: np.zeros(np.shape(np.asarray(d))),
        profile_batch=profile_batch,
        metadata="zero kernel",
    )


def polynomial_kernel(A: float) -> RegularKernel:
    """Linear convolution kernel K0(x, t) = A (x - t).

    Carries the antiderivative K1(x, t) = A (x^2/2 - x t), so the
    second-kind reduction diagnostics accept it.  Raises ValueError for a
    nonfinite A.
    """
    if not math.isfinite(A):
        raise ValueError(f"A must be finite, got {A}")

    def profile_batch(d):
        return A * np.atleast_1d(np.asarray(d, dtype=float))

    return RegularKernel(
        eval=lambda x, t: A * (np.asarray(x) - np.asarray(t)),
        k1=lambda x, t: A * (np.asarray(x) ** 2 / 2.0 - np.asarray(x) * np.asarray(t)),
        profile=lambda d: A * np.asarray(d, dtype=float),
        profile_batch=profile_batch,
        metadata=f"linear convolution kernel, slope {A}",
    )


def kernel_from_symbol(
    symbol: FourierSymbol, quad_cap: float, tol: float = 1e-8
) -> RegularKernel:
    """Synthesize the regular kernel from a symbol by a truncated cosine transform.

    K0(x - t) = (1/pi) int_0^quad_cap L0(s) cos(s (x-t)) ds, with the
    discarded tail bounded through the stated decay rate; the bound must
    not exceed ``tol``.  An even remainder is assumed, which is what a
    real symmetric kernel produces.
    """
    if quad_cap <= 0:
        raise ValueError(f"truncation frequency must be positive, got {quad_cap}")
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

            out[start : start + _BATCH_CHUNK] = adaptive_gauss_batch(
                integrand, 0.0, quad_cap, tol * np.pi, chunk.size, dtype=dtype
            )
        return out / np.pi

    return RegularKernel(
        eval=_convolution_eval(profile_batch),
        profile=lambda d: profile_batch(np.atleast_1d(d))[0],
        profile_batch=profile_batch,
        metadata=f"cosine transform of symbol remainder, cap={quad_cap:g}",
    )


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


def _series(z: np.ndarray) -> np.ndarray:
    # Ascending series (A&S 9.1.10-11) with t_m = (-z^2/4)^m / (m! (m+1)!):
    # J1 = (z/2) sum t_m and
    # Y1 + 2/(pi z) = (z/pi) sum t_m [ln(z/2) - (psi(m+1) + psi(m+2))/2].
    step = -0.25 * z * z
    log_half = np.log(0.5 * z)
    t = np.ones_like(z)
    j_sum = np.zeros_like(z)
    y_sum = np.zeros_like(z)
    psi = -_EULER_GAMMA
    for m in range(_SERIES_TERMS):
        if m:
            t = t * step / (m * (m + 1))
        psi_next = psi + 1.0 / (m + 1)
        j_sum += t
        y_sum += t * (log_half - 0.5 * (psi + psi_next))
        psi = psi_next
    return (z / np.pi) * y_sum - 0.5j * z * j_sum


def _miller(z: np.ndarray) -> np.ndarray:
    # Backward recurrence b_{n-1} = (2n/z) b_n - b_{n+1} from b_N = 1,
    # b_{N+1} = 0, normalized by J0 + 2 sum J_2m = 1.  The Neumann series
    # (A&S 9.1.88 with n = 1, 1 - J0 = 2 sum J_2m)
    # Y1 + 2/(pi z) = (4/(pi z)) sum J_2m + (2/pi)(ln(z/2) + gamma - 1) J1
    #                 - (2/pi) sum_m (-1)^m (2m+1) J_{2m+1} / (m (m+1))
    # is accumulated while the recurrence runs.  For z >= 2 the unnormalized
    # values stay below 64! ~ 1e89, far from overflow.
    above = np.zeros_like(z)
    current = np.ones_like(z)
    even = np.zeros_like(z)
    odd = np.zeros_like(z)
    for n in range(_MILLER_START, 0, -1):
        if n % 2 == 0:
            even += current
        elif n > 1:
            m = n // 2
            odd += ((-1) ** m * n / (m * (m + 1))) * current
        current, above = (2.0 * n / z) * current - above, current
    norm = current + 2.0 * even
    j1 = above / norm
    y1t = (
        (4.0 / (np.pi * z)) * (even / norm)
        + (2.0 / np.pi) * (np.log(0.5 * z) + _EULER_GAMMA - 1.0) * j1
        - (2.0 / np.pi) * (odd / norm)
    )
    return y1t - 1j * j1


def _hankel(z: np.ndarray, z_err: np.ndarray) -> np.ndarray:
    # H1(z) = sqrt(2/(pi z)) e^{i(z - 3 pi/4)} sum_m c_m (i/z)^m (A&S 9.2.5-10),
    # c_m = prod_{j<=m} (4 - (2j-1)^2) / (8j).  The phase uses z + z_err, the
    # exact product k|d|, so a large z loses no digits to its own rounding.
    w = 1j / z
    term = np.ones_like(w)
    tail = np.ones_like(w)
    for j in range(1, _HANKEL_TERMS):
        term = term * (((4.0 - (2 * j - 1) ** 2) / (8.0 * j)) * w)
        tail += term
    phase = np.exp(1j * z) * (1.0 + 1j * z_err) * np.exp(-0.75j * np.pi)
    return 2.0 / (np.pi * z) - 1j * np.sqrt(2.0 / (np.pi * z)) * phase * tail


def _bracket(k: float, d: np.ndarray) -> np.ndarray:
    """Y1(z) + 2/(pi z) - i J1(z) at z = k d for d > 0, by branch."""
    z = k * d
    small = z < _SERIES_BELOW
    large = z >= _ASYMPTOTIC_FROM
    middle = ~(small | large)
    out = np.empty(d.shape, dtype=complex)
    out[small] = _series(z[small])
    out[middle] = _miller(z[middle])
    out[large] = _hankel(*_two_product(k, d[large]))
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
    ascending series for z < 2, Miller's backward recurrence from order 64
    with the Neumann series for 2 <= z < 25, and the 20-term Hankel
    expansion for z >= 25; each branch does a fixed amount of work per
    point, whatever k.  Against 50-digit mpmath over |d| in [1e-6, 2] and
    k from 1e-3 to 1e4 the measured relative error is at most 2.5e-15.
    The kernel is even, complex valued, and logarithmically singular at
    d = 0, where evaluation raises ValueError; interleaved meshes never
    request the diagonal.
    """
    k = params.k

    def profile_batch(d):
        dd = np.abs(np.atleast_1d(np.asarray(d, dtype=float)))
        if np.any(dd == 0.0):
            raise ValueError("screen kernel is logarithmically singular at x = t")
        out = np.empty(dd.shape, dtype=complex)
        # Chunks keep the temporaries of the branch loops small.
        for i in range(0, dd.size, _BATCH_CHUNK):
            out[i : i + _BATCH_CHUNK] = _bracket(k, dd[i : i + _BATCH_CHUNK])
        out *= 0.5 * k / dd
        return out

    return RegularKernel(
        eval=_convolution_eval(profile_batch),
        profile=lambda d: profile_batch(np.atleast_1d(d))[0],
        profile_batch=profile_batch,
        metadata=(
            f"rigid-screen regular kernel, k={k:g}; outgoing-wave branch "
            "-i*sqrt(k^2-s^2) below the wavenumber, evaluated as "
            "(k/2|d|)(Y1(k|d|) + 2/(pi k|d|) - i J1(k|d|))"
        ),
    )


def normalize_to_canonical(
    coefficient: complex, rhs: RightHandSide, kernel: RegularKernel
) -> tuple[RightHandSide, RegularKernel]:
    """Rescale an equation so its 1/(x-t)^2 part has unit coefficient.

    Given the equation  coefficient * int g/(x-t)^2 + int K0 g = f', both
    the kernel and the right-hand side are divided by ``coefficient``.
    Raises ValueError when the singular coefficient is zero.
    """
    if coefficient == 0:
        raise ValueError("singular-part coefficient must be nonzero")
    factor = 1.0 / coefficient
    old_f = rhs.f
    scaled_rhs = RightHandSide(
        fprime=lambda x, _fp=rhs.fprime: factor * np.asarray(_fp(x)),
        f=None if old_f is None else (lambda x, _f=old_f: factor * np.asarray(_f(x))),
        description=rhs.description,
    )
    pb = kernel.profile_batch
    scaled = RegularKernel(
        eval=lambda x, t, _e=kernel.eval: factor * np.asarray(_e(x, t)),
        k1=None if kernel.k1 is None else (lambda x, t, _k=kernel.k1: factor * np.asarray(_k(x, t))),
        profile=None if kernel.profile is None else (lambda d, _p=kernel.profile: factor * np.asarray(_p(d))),
        profile_batch=None if pb is None else (lambda d, _pb=pb: factor * _pb(d)),
        metadata=kernel.metadata + f"; scaled by {factor!r}",
    )
    return scaled_rhs, scaled


def crack_problem(params: CrackParams, n: int) -> FullProblem:
    """Collocation problem for the crack opening under constant load.

    Starting from the raw convolution form with kernel -2/x^2 and
    right-hand side 2 pi (1-nu) sigma0 / mu, normalizing by the singular
    coefficient -2 leaves the characteristic equation with
    f'(x) = -pi (1-nu) sigma0 / mu; the antiderivative is attached so the
    closed-form inversion can serve as an oracle.
    """
    load = 2.0 * np.pi * (1.0 - params.nu) * params.sigma0 / params.mu
    raw = RightHandSide(
        fprime=lambda x: load * np.ones_like(np.asarray(x, dtype=float)),
        f=lambda x: load * np.asarray(x, dtype=float),
        description=f"crack under constant normal load sigma0={params.sigma0:g}",
    )
    rhs, kernel = normalize_to_canonical(-2.0, raw, zero_kernel())
    mesh = make_mesh(-params.a, params.a, n)
    return FullProblem(mesh=mesh, rhs=rhs, kernel=kernel)


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
        description=f"rigid screen, wavenumber k={k:g}",
    )
    rhs, kernel = normalize_to_canonical(-1.0 / np.pi, raw, acoustic_kernel(params))
    mesh = make_mesh(-params.a, params.a, n)
    return FullProblem(mesh=mesh, rhs=rhs, kernel=kernel)

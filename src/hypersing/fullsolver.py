"""Collocation solver for the hypersingular equation, with or without a regular kernel.

The singular part is the characteristic matrix.  The regular kernel is
integrated over each cell, whichever form it is given in: entry (i, j) is
the integral of K0(x_i, t) over cell j by its two Gauss points
t = x_j -+ h/(2 sqrt 3), with product weights for the logarithm of a
kernel that declares ``log_coefficient``.  (The paper's one-point rule
h*K0(x_i, t_{j+1}) at each cell's right node survives only as the
reference the tests build.)  A difference kernel's entry depends only on
i - j on the uniform mesh, so its table is 2n - 1 cell integrals and the
whole matrix is one Toeplitz matrix of their sum.  An ``even`` kernel is
evaluated on the cells with i - j >= 0 and mirrored, so its matrix is
symmetric bit for bit.  A general kernel (``eval`` only) is evaluated at
its n^2 pairs on each of the two Gauss grids, by the grid table that the
spectral oracle uses too.  Both tables go through one checked evaluation:
one call for the whole table (a general kernel's, a block of rows at a
time from n = 1025 on), a shape and finiteness check, and a failure
locator that names the raising point or pair in O(n) further calls, a row
at a time (a cell's two points, or a row of pairs) and then the entries
of the failing row.
With no kernel the problem is the characteristic equation:
``solve_characteristic`` is that case of ``solve_full``.  ``solve_full``
solves it, and a kernel whose checked table is identically zero (and
real), through ``characteristic.characteristic_inverse``, the closed-form
inverse M^{-1} of the characteristic matrix: O(n log n) with no n x n
array, and the exact condition number.

Any other difference kernel is solved in one place, ``_solve_toeplitz``,
from its 2n - 1 profile.  It needs the first and last columns x, y of
A^{-1}: from them the Gohberg-Semencul formula
(``linalg._gohberg_semencul``) gives every probe of Hager's condition
estimate, and the 1-norm comes from the profile in O(n).  An even
kernel's A is symmetric, and as every Toeplitz matrix is persymmetric,
y = J x, the reverse of x: only x is solved for.  x and y come from one
of two sources.  From n = _GMRES_MIN_N on, GMRES solves the second-kind
form (I + M^{-1} T) g = M^{-1} r for r = e_0, and for r = e_{n-1} in a
second run unless the kernel is even, with T the kernel's Toeplitz table
applied by FFT (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986;
Chan and Ng, SIAM Rev. 38, 1996): O(n log n) per iteration, a few to a
few dozen iterations, and no n x n array.  The operator takes each
Krylov step in four bare FFT calls of the 5-smooth length
``linalg._fft_length(n)``: T by the kernel's spectrum, the one transform
a solve makes before GMRES on a warm plan, then M^{-1} by the Cauchy
spectrum between its two scalings and a reversed cumulative sum, complex
transforms for a complex table and real ones for a real table; GMRES
starts from M^{-1} e_0 and M^{-1} e_{n-1} in closed form.  The load is
then one product with A^{-1} by the formula, taken in one stacked probe
with the first sweep of Hager's estimate, and accepted when its normwise
backward error is at most _GMRES_TOL, with A g taken by the sum of the
kernel's spectrum and the singular profile's.  Below that n, where
LAPACK is faster, and whenever GMRES gives no answer (no convergence in
_GMRES_MAX_ITER iterations, a load that fails that test, or an estimate
that reads singular), one ``gesv`` call on the read-only Toeplitz view of
the profile solves e_0 (and e_{n-1} unless the kernel is even) and the
load together: the load comes from LAPACK's LU, and the only n x n array
is LAPACK's copy.  Measured with OpenBLAS 0.3.31, a one-column and a
multi-column ``gesv`` differ in the last bits, while any two multi-column
counts agree, so a real-valued complex load (two columns for its parts)
keeps the bits of a real one.  A real-valued table is solved in real
arithmetic.  Only where (A^{-1})_00 = 0, and the formula does not hold,
does the view go through ``linalg.lu_factor``, which also takes a general
kernel's dense matrix.

What the Toeplitz route needs of the mesh alone is built once per
(n, h) and kept in a plan (``_Plan``): the closed-form inverse with its
complex Cauchy spectrum and its end columns, the singular profile and its
spectrum, and the product weights of the logarithm for even and other
kernels.  Each part is built on first use by the arithmetic a solve used
before, so a solve on a warm plan is bit for bit one on a cold plan, and
every array is read-only.  Only the plan of the last mesh solved on is
kept (``_PLANS_KEPT``).  With every part built it holds 192 bytes per
cell, and 16 more for the mesh it keeps: 0.85 MB at n = 4096.  The
screen's GMRES route builds 160 of the 192, the linear kernel's 80 and a
dense Toeplitz solve 32.  The closed-form route builds its inverse per
solve and keeps nothing: the crack's mesh changes with its length.

``fredholm_residual`` measures how well a solution satisfies the
equivalent second-kind equation obtained by inverting the singular part:

    g(x) + int_a^b N1(x, t) g(t) dt = f1(x),

with N1 and f1 given by the weighted principal-value transform of the
kernel antiderivative K1 and of f.  It is a diagnostic only and never
gates the solve path.
"""

from __future__ import annotations

import functools
import logging
import math
import threading
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from hypersing.analytic import RightHandSide, _load_values, weighted_pv_integral
from hypersing.characteristic import (
    CharacteristicInverse,
    DiscreteSolution,
    _singular_profile,
    _toeplitz_view,
    assemble_characteristic,
    characteristic_inverse,
)
from hypersing.linalg import (
    SingularMatrixError,
    _checked_condition,
    _checked_rhs,
    _fft_length,
    _frozen,
    _full_spectrum,
    _gesv,
    _gohberg_semencul,
    _join,
    _real_view,
    _split,
    _toeplitz_norm1,
    check_dense_size,
    check_integer,
    condition_estimate_1norm,
    lu_factor,
)
from hypersing.mesh import Mesh
from hypersing.quadrature import gauss_legendre

logger = logging.getLogger(__name__)

_CONDITION_WARN = 1e12

# Difference-kernel systems from this n on go to GMRES: the smallest n of
# 64, 96, 128, 192, 256, 320, 400 and 512 from which it was no slower than
# the dense source on the screen at k = 0.5 and 2.5.  The screen's kernel
# is even, so each route solves for x alone.  Medians of 41 interleaved
# solves in ms, GMRES / dense (2-core host, numpy 2.4.6, one OpenBLAS
# thread); at k = 10 GMRES catches up between 256 and 320:
#       n   k = 0.5       k = 2.5       k = 10
#      80   1.60 / 0.83   2.04 / 0.84   3.25 / 0.89
#     192   2.00 / 2.19   1.50 / 1.36   2.29 / 1.38
#     256   1.33 / 2.39   1.80 / 2.62   2.63 / 2.51
#     320   1.55 / 3.98   1.90 / 3.96   2.86 / 3.96
# An unconverged run after _GMRES_MAX_ITER iterations falls back to the
# dense source.  The tolerance is on the relative residual of the
# preconditioned system: at 1e-13 the screen at k = 10 was up to 1.3e-12
# from the dense solution, at 1e-14 within 2.2e-13, for at most one more
# iteration.  The same value bounds the normwise backward error of the
# load solved from the GMRES columns.
_GMRES_MIN_N = 256
_GMRES_MAX_ITER = 64
_GMRES_TOL = 1e-14


class KernelEvaluationError(RuntimeError):
    """Kernel evaluation failed; carries the offending point pair."""

    def __init__(self, message: str, x: float = np.nan, t: float = np.nan):
        super().__init__(message)
        self.x = x
        self.t = t


@dataclass
class FullProblem:
    """Mesh, right-hand side, and regular kernel of one full equation.

    ``kernel`` is a RegularKernel, or None for the characteristic equation.
    """

    mesh: Mesh
    rhs: RightHandSide
    kernel: object


def _failing_entry(evaluate: Callable, shape: tuple[int, int]):
    # The first raising row, then the raising entry in it: at most
    # rows + columns calls, or None when no row or entry raises alone.
    for i in range(shape[0]):
        try:
            evaluate(i, slice(None))
        except Exception:
            for j in range(shape[1]):
                try:
                    evaluate(i, j)
                except Exception:
                    return i, j
            return None
    return None


def _checked_table(evaluate: Callable, shape: tuple[int, int], pair: Callable):
    # One call for the whole table; a call that raises, a wrong shape or a
    # nonfinite value ends in a KernelEvaluationError naming pair(i, j)
    # where it can.  evaluate(i, j) takes indices or slices.
    try:
        table = np.asarray(evaluate(slice(None), slice(None)))
    except Exception as exc:
        where = _failing_entry(evaluate, shape)
        if where is None:
            raise KernelEvaluationError(f"kernel evaluation failed: {exc}") from exc
        x, t = pair(*where)
        raise KernelEvaluationError(
            f"kernel evaluation failed at (x, t) = ({x}, {t}): {exc}", x=x, t=t
        ) from exc
    if table.shape != shape:
        raise KernelEvaluationError(
            f"kernel table has shape {table.shape}, expected {shape}"
        )
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        x, t = pair(*bad[0])
        raise KernelEvaluationError(
            "kernel evaluation produced a nonfinite value", x=x, t=t
        )
    return table


def _grid_table(kernel, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Checked K0(x_i, t_j) over two 1-D point arrays, in one ``eval`` call.

    The locator probes a row with x_i and all of t, an entry with scalars.
    """

    def evaluate(i, j):
        xi = x[i]
        return kernel.eval(xi[:, None] if np.ndim(xi) else xi, t[j])

    return _checked_table(
        evaluate, (x.size, t.size), lambda i, j: (float(x[i]), float(t[j]))
    )


# The two Gauss points of a cell sit at its centre -+ _GAUSS_OFFSET h.
_GAUSS_OFFSET = 0.5 / math.sqrt(3.0)

# Entries of a general kernel's table per pair of eval calls.  With the
# whole n x n table of one Gauss grid held while the kernel evaluates the
# other, the kernel's own temporaries made a third n x n array: an n = 2048
# solve of RegularKernel(eval=polynomial_kernel(3.0).eval) reached 128 MB of
# max RSS, against 107 MB with these blocks, as with the one-point table of
# a single grid (2-core host, numpy 2.4.6).  Up to n = 1024 the table is one
# block.
_GRID_BLOCK = 1 << 20


def _difference_table(mesh: Mesh, kernel) -> np.ndarray:
    # The 2n - 1 profile of the kernel: at index m + n - 1, the integral of
    # K0 over the cell [(m - 1/2) h, (m + 1/2) h] of the differences
    # x_i - t, m = i - j, by the two Gauss points m h -+ h/(2 sqrt 3).  A
    # kernel that declares log_coefficient, K0 = S ln|d| + R, adds the
    # product weights of ``_log_weights`` for S ln|d|.  An even kernel is
    # evaluated on the cells m >= 0 only and mirrored, so its profile is
    # symmetric bit for bit.  The points go through one checked
    # (cells, 2) table, whose locator probes one cell's two points a call.
    m, points = _gauss_points(mesh.n, mesh.h, kernel.even)

    def evaluate(i, j):
        d = points[i, j]
        return np.reshape(kernel.profile_batch(np.ravel(d)), np.shape(d))

    def pair(i, j):
        # The collocation point x_i with i = max(m, 0), and t = x_i - d.
        x = mesh.colloc[max(m[i], 0)]
        return float(x), float(x - points[i, j])

    values = _checked_table(evaluate, points.shape, pair)
    cells = 0.5 * mesh.h * (values[:, 0] + values[:, 1])
    if kernel.log_coefficient is not None:
        weights = _plan(mesh).log_weights(kernel.even)
        cells = cells + (weights * kernel.log_coefficient(values)).sum(axis=1)
    return np.concatenate((cells[:0:-1], cells)) if kernel.even else cells


def _gauss_points(n: int, h: float, even: bool) -> tuple[np.ndarray, np.ndarray]:
    # The cell offsets m, from 0 for an even kernel and from 1 - n for any
    # other, and each cell's two Gauss points m h -+ h/(2 sqrt 3) as an
    # (m.size, 2) array.
    m = np.arange(0 if even else 1 - n, n)
    offset = _GAUSS_OFFSET * h
    return m, (m * h)[:, None] + np.array([-offset, offset])


def _cell_table(mesh: Mesh, kernel) -> np.ndarray:
    # A general kernel's n x n table: entry (i, j) the integral of
    # K0(x_i, t) over cell j by its Gauss points, (h/2) (K0(x_i, x_j - o)
    # + K0(x_i, x_j + o)) with o = h/(2 sqrt 3).  A block of rows at a time
    # goes through two checked grid tables, one per Gauss grid, so the
    # located pair is a Gauss point's.  The table is a fresh array: the
    # kernel's own may be an integer array or a broadcast view.
    offset = _GAUSS_OFFSET * mesh.h
    left, right = mesh.colloc - offset, mesh.colloc + offset
    step = max(1, _GRID_BLOCK // mesh.n)
    blocks = []
    for start in range(0, mesh.n, step):
        x = mesh.colloc[start : start + step]
        blocks.append(0.5 * mesh.h * (_grid_table(kernel, x, left) + _grid_table(kernel, x, right)))
    return np.concatenate(blocks)


def _log_weights(m: np.ndarray, h: float, points: np.ndarray) -> np.ndarray:
    # Weights w with w_0 S(d_0) + w_1 S(d_1) = the integral of S ln|d| over
    # cell m, for S linear through the cell's Gauss points d_0, d_1, less
    # the Gauss rule's (h/2) (S(d_0) ln|d_0| + S(d_1) ln|d_1|).  With c = m h
    # and u = d - c, S = (S_0 + S_1)/2 + (S_1 - S_0) u / (d_1 - d_0), so the
    # integral takes the moments I = int ln|d| du and J = int u ln|d| du over
    # |u| <= h/2.  For m != 0, with r = 1/(2m), ln|d| = ln|c| + ln(1 + u/c)
    # gives I = h ln|c| + c (2 atanh r + r log1p(-r^2) - 2r) and
    # J = c^2 (r - (1 - r^2) atanh r); at m = 0, I = h (ln(h/2) - 1) and
    # J = 0.  The weights then round to about |m| eps h: 6e-13 h at
    # m = 4095 against 50 digits, where differences of the antiderivatives
    # of ln|d| and d ln|d| across the cell read 1e-9 h.
    zero = m == 0
    safe = np.where(zero, 1, m)
    r = 0.5 / safe
    atanh = np.arctanh(r)
    c = m * h
    moment = h * np.log(np.abs(safe) * h) + c * (2.0 * atanh + r * np.log1p(-r * r) - 2.0 * r)
    moment[zero] = h * (math.log(0.5 * h) - 1.0)
    slope = c * c * (r - (1.0 - r * r) * atanh) / (2.0 * _GAUSS_OFFSET * h)  # 0 at m = 0
    return 0.5 * (moment[:, None] - h * np.log(np.abs(points))) + np.stack((-slope, slope), axis=1)


class _Plan:
    """What every solve on a mesh of n cells of width h shares, built on first use.

    ``inverse`` is the mesh's ``CharacteristicInverse`` (its complex Cauchy
    spectrum and end columns are kept with it), ``profile`` the singular
    profile c_m, ``spectrum`` its real FFT at ``linalg._fft_length(n)``,
    ``complex_spectrum`` its complex one, and ``log_weights(even)`` the
    product weights of ``_log_weights`` for the cells of an even kernel or
    of any other.  Each part is built by the arithmetic that a solve would
    use with no plan, so a solve on a warm plan is bit for bit one on a
    cold plan, and every array is read-only.  Only n and h of ``mesh`` are
    read, but the mesh is kept: 16 bytes per cell beside the 192 of every
    part together.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self._weights = {}

    @functools.cached_property
    def inverse(self) -> CharacteristicInverse:
        return characteristic_inverse(self.mesh)

    @functools.cached_property
    def profile(self) -> np.ndarray:
        return _frozen(_singular_profile(self.mesh))

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        return _frozen(np.fft.rfft(self.profile, _fft_length(self.mesh.n)))

    @functools.cached_property
    def complex_spectrum(self) -> np.ndarray:
        return _full_spectrum(self.spectrum, _fft_length(self.mesh.n))

    def log_weights(self, even: bool) -> np.ndarray:
        if even not in self._weights:
            m, points = _gauss_points(self.mesh.n, self.mesh.h, even)
            self._weights[even] = _frozen(_log_weights(m, self.mesh.h, points))
        return self._weights[even]


# The plans of the meshes solved on last, keyed by (n, h), oldest first.
# One is kept: a run of solves on one mesh (a sweep over k, many loads)
# reuses it, and the cache never holds a plan beside the one a solve is
# building, since the old one is dropped first.  A second slot would keep
# two alternating meshes warm, but would double what the cache holds
# through another mesh's solve: 0.85 MB at today's cap of n = 4096, and
# 208 MB at n = 10^6 once difference kernels are solved past that cap.
_PLANS_KEPT = 1
_plans: dict[tuple[int, float], _Plan] = {}
_plans_lock = threading.Lock()


def _plan(mesh: Mesh) -> _Plan:
    # The plan of meshes with ``mesh``'s n and h, from the cache or new.
    # Two threads that build one part at once build the same bits, so only
    # the cache itself is locked.
    key = (mesh.n, mesh.h)
    with _plans_lock:
        plan = _plans.get(key)
        if plan is None:
            while len(_plans) >= _PLANS_KEPT:
                del _plans[next(iter(_plans))]
            plan = _plans[key] = _Plan(mesh)
    return plan


def _kernel_table(problem: FullProblem):
    # The integrals of K0 over each cell, or None for the characteristic
    # equation: no kernel, or a checked table that is identically zero (and
    # real).  A kernel's form decides only how its table is stored: a
    # difference kernel's is its 2n - 1 profile, the integral at the
    # differences m = i - j at index m + n - 1, a general kernel's the
    # n x n array of ``_cell_table``.  The n x n size is refused before any
    # kernel is evaluated.
    kernel = problem.kernel
    if kernel is None:
        return None
    mesh = problem.mesh
    check_dense_size("n", mesh.n, mesh.n, mesh.n)
    if kernel.profile_batch is not None:
        table = _difference_table(mesh, kernel)
    else:
        table = _cell_table(mesh, kernel)
    if not np.iscomplexobj(table) and not np.any(table):
        return None
    return table


def _matrix(mesh: Mesh, table: np.ndarray) -> np.ndarray:
    # The collocation matrix of a kernel table.  A profile's is the
    # read-only Toeplitz view of its sum with the singular profile; a
    # general table has the view of the singular profile added in place.
    if table.ndim == 1:
        return _toeplitz_view(_singular_profile(mesh) + table)
    table += _toeplitz_view(_singular_profile(mesh))
    return table


def assemble_full(problem: FullProblem) -> np.ndarray:
    """Collocation matrix of the full equation: characteristic part plus the kernel's cell integrals.

    With no kernel, or an identically zero one, the result is bit-identical
    to the characteristic matrix.  The result is a writable array.  An
    n x n matrix above ``linalg.MAX_DENSE_ELEMENTS`` is refused with a
    ValueError before any kernel is evaluated.
    """
    table = _kernel_table(problem)
    if table is None:
        return assemble_characteristic(problem.mesh)
    matrix = _matrix(problem.mesh, table)
    return matrix if matrix.flags.writeable else matrix.copy()


def _gmres(operator: Callable, rhs: np.ndarray):
    # Unrestarted GMRES from zero for operator(g) = rhs, one (n,) row (Saad
    # and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986): classical
    # Gram-Schmidt done twice by matrix-vector products, and Givens
    # rotations in Python scalars.  It stops once the relative residual is
    # at most _GMRES_TOL, which a next Arnoldi vector of norm 0 gives at
    # once; a zero rhs is solved by 0.  Returns (solution, iterations,
    # relative residual), or None when it has not converged after
    # _GMRES_MAX_ITER steps or its Hessenberg matrix is singular.  Each
    # operator call returns a fresh array, which the two passes update in
    # place.
    beta = _norm2(rhs)
    if beta == 0.0:
        return np.zeros_like(rhs), 0, 0.0
    # The basis, grown by doubling up to _GMRES_MAX_ITER + 1 vectors: no
    # _GMRES_MAX_ITER x n block is allocated for a run that converges early.
    basis = np.zeros((8, len(rhs)), dtype=rhs.dtype)
    basis[0] = rhs / beta
    triangle, rotations, g = [], [], [beta]  # g: beta e_1 under the rotations
    for steps in range(1, _GMRES_MAX_ITER + 1):
        if steps == len(basis):
            basis = np.concatenate((basis, np.zeros_like(basis[: _GMRES_MAX_ITER + 1 - steps])))
        v = basis[:steps]
        w = operator(v[-1])
        column = 0.0
        for _ in range(2):
            # v^H w as conj(v conj(w)): no conjugate copy of the basis.
            projections = (v @ w.conj()).conj()
            w -= projections @ v
            column = column + projections
        norm = _norm2(w)
        if norm > 0:
            np.divide(w, norm, out=basis[steps])
        column = column.tolist()
        for i, (c, s) in enumerate(rotations):
            column[i], column[i + 1] = (
                c * column[i] + s * column[i + 1],
                -s.conjugate() * column[i] + c * column[i + 1],
            )
        a = column[-1]
        radius = math.hypot(abs(a), norm)
        if radius == 0.0:
            return None
        phase = a / abs(a) if a else 1.0
        c, s = abs(a) / radius, phase * norm / radius
        column[-1] = phase * radius
        rotations.append((c, s))
        triangle.append(column)
        g.append(-s.conjugate() * g[-1])
        g[-2] = c * g[-2]
        relative = abs(g[-1]) / beta
        if relative <= _GMRES_TOL:
            return _back_substitute(triangle, g) @ basis[:steps], steps, relative
    return None


def _norm2(w: np.ndarray) -> float:
    # ||w||_2 of a 1-D array by the arithmetic of ``np.linalg.norm``, the
    # dots of the real and imaginary parts, without its checks and dispatch.
    if np.iscomplexobj(w):
        return math.sqrt(w.real.dot(w.real) + w.imag.dot(w.imag))
    return math.sqrt(w.dot(w))


def _back_substitute(triangle: list, g: list) -> np.ndarray:
    # y with R y = g[:m] for the upper triangular R whose column j is triangle[j].
    m = len(triangle)
    y = [0.0] * m
    for i in reversed(range(m)):
        y[i] = (g[i] - sum(triangle[j][i] * y[j] for j in range(i + 1, m))) / triangle[i][i]
    return np.array(y)


def _preconditioned_operator(
    inverse: CharacteristicInverse, spectrum: np.ndarray, real: bool
) -> Callable:
    # v -> v + M^{-1} T v on an (n,) Krylov vector or (rows, n) rows, T the
    # Toeplitz matrix of a kernel profile whose FFT at ``_fft_length(n)`` is
    # ``spectrum``, real for a ``real`` profile, in four bare FFT calls: T v
    # by that spectrum, then M^{-1} by ``inverse._apply_rows``.  Complex
    # rows take complex transforms and the Cauchy spectrum that the inverse
    # keeps; a real table keeps real ones and the arithmetic of
    # ``inverse.apply``.
    n = len(inverse.left)
    length = _fft_length(n)
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)

    def operator(v):
        product = ifft(spectrum * fft(v, length), length)[..., n - 1 : 2 * n - 1]
        return v + inverse._apply_rows(product)

    return operator


def _solve_toeplitz(mesh: Mesh, table: np.ndarray, b: np.ndarray, even: bool = False):
    # (values, condition) of the Toeplitz system with kernel profile
    # ``table``, from the first and last columns x, y of A^{-1} by GMRES or
    # by one gesv call, as the module docstring says.  ``even`` declares a
    # symmetric table, so that A is symmetric and y = J x: x alone is
    # solved for.  ``b`` is a load that ``solve_full`` has checked.  A
    # table holding real values is solved in real arithmetic
    # (``linalg._real_view``), a complex answer then as the real and
    # imaginary parts of the load (``linalg._split``).  A GMRES failure
    # falls back to the dense source, whose SingularMatrixError is the
    # caller's.  What depends on the mesh alone comes from its plan.
    n = mesh.n
    plan = _plan(mesh)
    complex_answer = np.iscomplexobj(b) or np.iscomplexobj(table)
    table = _real_view(table)
    real = not np.iscomplexobj(table)
    profile = plan.profile + table
    if not np.all(np.isfinite(profile)):
        raise ValueError("matrix contains nonfinite entries")
    dtype = table.dtype
    loads = _split(b, not real, complex_answer)
    norm1 = _toeplitz_norm1(profile)
    length = _fft_length(n)
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    # The kernel profile's FFT, which GMRES applies T by.
    spectrum = fft(table, length) if n >= _GMRES_MIN_N else None

    def from_end_columns(x, y, parts=None):
        # (values, condition, backward error) from x and y, or None where the
        # formula does not hold.  With no ``parts`` (GMRES), the loads are
        # one stacked A^{-1} probe with the estimate's first sweep, and None
        # is returned unless their normwise backward error
        # ||b - A g||_1 / (||A||_1 ||g||_1 + ||b||_1), with A g one FFT
        # product by the whole profile's spectrum, the plan's singular one
        # plus the kernel's, is at most _GMRES_TOL.
        probes = _gohberg_semencul(x, y)
        if probes is None:
            return None
        first = backward = None
        if parts is None:
            *parts, first = probes[0](np.array([*loads, np.full(n, 1.0 / n)], dtype=dtype))
            singular = plan.spectrum if real else plan.complex_spectrum
            products = ifft((singular + spectrum) * fft(parts, length), length)
            error = float(np.abs(b - _join(products[:, n - 1 : 2 * n - 1])).sum())
            scale = norm1 * float(np.abs(_join(parts)).sum()) + float(np.abs(b).sum())
            backward = error / scale if scale else error  # b = 0 is solved by g = 0
            if not backward <= _GMRES_TOL:
                return None
        return _join(parts), _checked_condition(norm1, n, dtype, *probes, first=first), backward

    if n >= _GMRES_MIN_N:
        inverse = plan.inverse
        operator = _preconditioned_operator(inverse, spectrum, real)
        starts = inverse._end_columns.astype(dtype, copy=False)
        runs = [_gmres(operator, start) for start in starts[: 1 if even else 2]]
        solved = None
        if None not in runs:
            x = runs[0][0]
            try:
                solved = from_end_columns(x, x[::-1] if even else runs[1][0])
            except SingularMatrixError:
                pass
        if solved is not None:
            logger.debug("GMRES route at n=%d: %d iterations, relative residual %.3e,"
                         " load backward error %.3e", n, sum(run[1] for run in runs),
                         max(run[2] for run in runs), solved[2])
            return solved[:2]
        logger.debug("GMRES route at n=%d gave no answer", n)
    ends = [0] if even else [0, n - 1]
    columns = np.zeros((len(ends) + len(loads), n), dtype=dtype)
    columns[range(len(ends)), ends] = 1.0
    columns[len(ends) :] = loads
    view = _toeplitz_view(profile)
    x, *parts = _gesv(view, columns.T).T
    solved = from_end_columns(x, x[::-1] if even else parts.pop(0), parts)
    if solved is None:  # (A^{-1})_00 = 0
        fact = lu_factor(view, b)
        solved = fact.solution, condition_estimate_1norm(fact)
    logger.debug("dense route at n=%d", n)
    return solved[:2]


def solve_full(problem: FullProblem) -> DiscreteSolution:
    """Solve the equation by collocation on the problem's mesh.

    The characteristic equation (no kernel, or a kernel whose table is
    identically zero) is solved by ``characteristic_inverse``,
    the closed-form inverse of its matrix, in O(n log n) with no n x n
    array; its ``condition`` is exact.  Any other difference kernel takes
    one Toeplitz route, which needs the first and last columns of A^{-1}:
    the Gohberg-Semencul formula gives from them Hager's condition
    estimate, in FFT products.  An ``even`` kernel's matrix is symmetric,
    and its last column is its first reversed, so only the first is solved
    for.  From n = _GMRES_MIN_N on, GMRES solves for those columns, one
    run each, on the second-kind form (I + M^{-1} T) g = M^{-1} r,
    preconditioned by the closed-form inverse, with O(n log n) work per
    iteration and no n x n array: the operator takes four FFT calls per
    iteration, and GMRES starts from M^{-1} e_0 and M^{-1} e_{n-1}
    in closed form.  The solution is then one product with A^{-1} by the
    formula, which also takes the first sweep of the estimate, accepted
    when its normwise backward error ||b - A g||_1 / (||A||_1 ||g||_1 +
    ||b||_1) is at most _GMRES_TOL.  Below _GMRES_MIN_N, where LAPACK is
    faster, and when GMRES gives no answer (no relative residual of
    _GMRES_TOL in _GMRES_MAX_ITER iterations, a formula that does not
    apply, a solution that fails that test, or an estimate that reads
    singular), one ``gesv`` call on the read-only Toeplitz view of the
    2n - 1 profile solves for those columns and the load together, so
    the solution comes from LAPACK's LU and the only n x n array is
    LAPACK's copy.  Where (A^{-1})_00 = 0 the formula does not apply and
    that view goes through ``lu_factor``.  A general kernel assembles the
    dense matrix, one more n x n array, and solves it through LAPACK in
    the ``lu_factor`` call that takes the condition estimate.  What the
    Toeplitz route needs of the mesh alone (the closed-form inverse, the
    singular profile and its spectrum, the logarithm's product weights) is
    built once per (n, h) and kept for the next solve on that mesh, with
    the same bits as a first solve's.  Every
    route's condition number is attached to the result; a warning is
    logged above 1e12, and the route taken (with the GMRES iterations summed
    over its runs, the largest final relative residual and the load's
    backward error) at DEBUG.  The
    scalar field is complex exactly when the kernel or the right-hand side
    is complex; a real problem never leaves real arithmetic.  Raises
    SingularMatrixError for a degenerate system and ValueError for a
    right-hand side that is nonfinite or not one value per collocation
    point (shape (n,)), both read before the kernel on every route, or an
    over-budget size.
    """
    mesh = problem.mesh
    if problem.rhs.f is not None:
        problem.rhs.validate_pair(mesh.a, mesh.b)
    load = _load_values(problem.rhs.fprime, mesh.colloc, "right-hand side")
    b = _checked_rhs(load, mesh.n, "right-hand side")
    table = _kernel_table(problem)
    if table is None:
        inverse = characteristic_inverse(mesh)
        values, condition = inverse.apply(b), inverse.condition
        logger.debug("closed-form route at n=%d", mesh.n)
    elif table.ndim == 1:
        values, condition = _solve_toeplitz(mesh, table, b, problem.kernel.even)
    else:
        fact = lu_factor(_matrix(mesh, table), b)
        values, condition = fact.solution, condition_estimate_1norm(fact)
        logger.debug("dense route at n=%d", mesh.n)
    if condition > _CONDITION_WARN:
        logger.warning(
            "collocation matrix is ill conditioned: estimate %.3e", condition
        )
    return DiscreteSolution(mesh=mesh, values=values, condition=condition)


def solve_characteristic(mesh: Mesh, rhs: RightHandSide) -> DiscreteSolution:
    """Solve the characteristic equation: ``solve_full`` with no kernel, O(n log n)."""
    return solve_full(FullProblem(mesh=mesh, rhs=rhs, kernel=None))


def fredholm_residual(
    problem: FullProblem,
    solution: Union[DiscreteSolution, Callable],
    m: int,
) -> float:
    """Max residual of the equivalent second-kind equation on an 11-point grid.

    ``solution`` may be a DiscreteSolution (its evaluation rule is used)
    or any callable density.  Requires the kernel antiderivative K1 and
    the right-hand-side antiderivative f; both principal-value transforms
    and the final t-integration use ``m`` quadrature nodes.  Raises
    ValueError naming m, before any node exists, unless it is an integer
    >= 8 whose m x m Gauss-Legendre eigenproblem is within the dense budget.
    """
    kernel = problem.kernel
    k1 = getattr(kernel, "k1", None)
    if k1 is None:
        raise ValueError(
            "kernel lacks the antiderivative K1 needed by the second-kind reduction"
        )
    if problem.rhs.f is None:
        raise ValueError("second-kind reduction requires the antiderivative f")
    m = check_integer("m", m)
    if m < 8:
        raise ValueError(f"need at least 8 quadrature nodes, got {m}")
    check_dense_size("m", m, m, m)
    if not callable(solution):
        raise TypeError("solution must be a DiscreteSolution or a callable")
    mesh = problem.mesh
    a, b = mesh.a, mesh.b
    grid = a + (b - a) * np.arange(1, 12) / 12.0
    t_nodes, t_weights = gauss_legendre(m, a, b)
    g_at_t = np.asarray(solution(t_nodes))
    scale = np.sqrt((grid - a) * (b - grid)) / np.pi**2
    f1 = scale * weighted_pv_integral(problem.rhs.f, a, b, m, grid)
    n1 = scale[:, None] * weighted_pv_integral(
        lambda tau: k1(tau[:, None], t_nodes), a, b, m, grid
    )
    g_at_x = np.asarray(solution(grid))
    residual = np.abs(g_at_x + np.sum(t_weights * n1 * g_at_t, axis=1) - f1)
    return float(np.max(residual))

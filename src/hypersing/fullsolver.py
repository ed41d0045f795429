"""Collocation solver for the hypersingular equation, with or without a regular kernel.

The singular part is the characteristic matrix; the regular kernel enters
through the one-point rectangle rule h*K0(x_i, t_j), which keeps the
scheme identical to the analyzed one.  A difference kernel depends, like
the singular part, only on i - j on the uniform mesh, so its table is the
2n - 1 values at the distinct differences and the whole matrix is one
Toeplitz matrix of their sum.  A general kernel (``eval`` only) is
evaluated at all n^2 pairs, by the grid table that the spectral oracle
uses too.  Both tables go through one checked evaluation: one call for
the whole table, a shape and finiteness check, and a failure locator
that names the raising difference or pair in O(n) further calls, a row at
a time and then the entries of the failing row.
With no kernel the problem is the characteristic equation:
``solve_characteristic`` is that case of ``solve_full``.  ``solve_full``
solves it, and a difference kernel whose checked table is identically
zero, through ``characteristic.characteristic_inverse``, the closed-form
inverse M^{-1} of the characteristic matrix: O(n log n) with no n x n
array, and the exact condition number.

Any other difference kernel is solved in one place, ``_solve_toeplitz``,
from its 2n - 1 profile.  It needs the first and last columns x, y of
A^{-1}: from them the Gohberg-Semencul formula
(``linalg._gohberg_semencul``) gives every probe of Hager's condition
estimate, and the 1-norm comes from the profile in O(n).  x and y come
from one of two sources.  From n = _GMRES_MIN_N on, GMRES solves the
second-kind form (I + M^{-1} T) g = M^{-1} r for r = e_0 and e_{n-1},
with T the kernel's Toeplitz table applied by FFT (Saad and Schultz,
SIAM J. Sci. Stat. Comput. 7, 1986; Chan and Ng, SIAM Rev. 38, 1996):
O(n log n) per iteration, a few to a few dozen iterations, and no n x n
array.  The operator is built once per solve and takes each Krylov step
in four bare FFT calls of the 5-smooth length ``linalg._fft_length(n)``:
T by the kernel's spectrum, then M^{-1} by the Cauchy spectrum between
its two scalings and a reversed cumulative sum, complex transforms for a
complex table and real ones for a real table; GMRES starts from
M^{-1} e_0 and M^{-1} e_{n-1} in closed form.  The load is then one
product with A^{-1} by the formula, taken in one stacked probe with the
first sweep of Hager's estimate, and accepted when its normwise backward
error is at most _GMRES_TOL.  Below that n, where LAPACK is faster, and
whenever GMRES gives no answer (no convergence in _GMRES_MAX_ITER
iterations, a load that fails that test, or an estimate that reads
singular), one ``gesv`` call on the read-only Toeplitz view of the
profile solves e_0, e_{n-1} and the load together: the load comes from
LAPACK's LU, and the only n x n array is LAPACK's copy.  Measured with
OpenBLAS 0.3.31, a one-column and a multi-column ``gesv`` differ in the
last bits, while any two multi-column counts agree, so a real-valued
complex load (two columns for its parts) keeps the bits of a real one.
A real-valued table is solved in real arithmetic.  Only where
(A^{-1})_00 = 0, and the formula does not hold, does the view go through
``linalg.lu_factor``, which also takes a general kernel's dense matrix.

``fredholm_residual`` measures how well a solution satisfies the
equivalent second-kind equation obtained by inverting the singular part:

    g(x) + int_a^b N1(x, t) g(t) dt = f1(x),

with N1 and f1 given by the weighted principal-value transform of the
kernel antiderivative K1 and of f.  It is a diagnostic only and never
gates the solve path.
"""

from __future__ import annotations

import logging
import math
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
    _gesv,
    _gohberg_semencul,
    _toeplitz_norm1,
    check_dense_size,
    condition_estimate_1norm,
    lu_factor,
)
from hypersing.mesh import Mesh
from hypersing.quadrature import gauss_legendre

logger = logging.getLogger(__name__)

_CONDITION_WARN = 1e12

# Difference-kernel systems from this n on go to GMRES: the smallest n of
# 64, 96, 128, 192, 256, 320, 400 and 512 from which it was no slower than
# the dense LU on the screen at k = 0.5 and 2.5 (at k = 10 it catches up
# between 400 and 512).  An unconverged run after _GMRES_MAX_ITER
# iterations falls back to the dense LU.  The tolerance is on the relative
# residual of the preconditioned system: at 1e-13 the screen at k = 10 was
# up to 1.3e-12 from the dense solution, at 1e-14 within 2.2e-13, for at
# most one more iteration.  The same value bounds the normwise backward
# error of the load solved from the GMRES columns.
_GMRES_MIN_N = 400
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


def _difference_table(mesh: Mesh, kernel) -> np.ndarray:
    # K0 at the 2n - 1 differences (m - 1/2) h, m = i - j, at index
    # m + n - 1, as a checked 1 x (2n - 1) table; the locator probes one
    # difference at a time.
    n = mesh.n
    diffs = (np.arange(2 * n - 1) - (n - 1) - 0.5) * mesh.h

    def evaluate(i, m):
        return np.asarray(kernel.profile_batch(np.atleast_1d(diffs[m])))[None]

    def pair(_, m):
        # One (x_i, t_j) with i - j = m - (n - 1), the m-th difference.
        i = max(m - (n - 1), 0)
        return float(mesh.colloc[i]), float(mesh.nodes[n + i - m])

    return _checked_table(evaluate, (1, 2 * n - 1), pair)


def _kernel_table(problem: FullProblem):
    # h K0 on the mesh, or None for the characteristic equation: no kernel,
    # or a difference kernel whose checked table is identically zero (and
    # real).  A difference kernel's table is its 2n - 1 profile h K0 at the
    # differences m = i - j, at index m + n - 1; a general kernel's is the
    # n x n array h K0(x_i, t_j), a fresh array, as the kernel's own table
    # may be an integer array or a broadcast view and is never scaled in
    # place.  The n x n size is refused before any kernel is evaluated.
    kernel = problem.kernel
    if kernel is None:
        return None
    mesh = problem.mesh
    check_dense_size("n", mesh.n, mesh.n, mesh.n)
    if kernel.profile_batch is not None:
        row = _difference_table(mesh, kernel)[0]
        if not np.iscomplexobj(row) and not np.any(row):
            return None
        return mesh.h * row
    return mesh.h * _grid_table(kernel, mesh.colloc, mesh.nodes[1:])


def _matrix(mesh: Mesh, table: np.ndarray) -> np.ndarray:
    # The collocation matrix of a kernel table.  A profile's is the
    # read-only Toeplitz view of its sum with the singular profile; a
    # general table has the view of the singular profile added in place.
    if table.ndim == 1:
        return _toeplitz_view(_singular_profile(mesh) + table)
    table += _toeplitz_view(_singular_profile(mesh))
    return table


def assemble_full(problem: FullProblem) -> np.ndarray:
    """Collocation matrix of the full equation: characteristic part plus h*K table.

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
    # Unrestarted GMRES from zero for operator(g) = rhs on each row of rhs
    # (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986).  The rows
    # step in lockstep, each in its own Krylov space: row-wise FFTs, classical
    # Gram-Schmidt done twice by one matrix product per row, and Givens
    # rotations in Python scalars per row, so a row's bits do not depend on
    # the other rows.  A row stops once its relative residual is at most
    # _GMRES_TOL or its next Arnoldi vector has norm 0; its basis then stays
    # zero from there on, and a zero row is solved by 0.  Returns
    # (solutions, iterations, largest relative residual), or None when a
    # row has not converged after _GMRES_MAX_ITER steps or its Hessenberg
    # matrix is singular.
    rows, n = rhs.shape
    beta = np.linalg.norm(rhs, axis=-1)
    active = beta > 0
    # The basis of each row, grown by doubling up to _GMRES_MAX_ITER + 1
    # vectors: no n x _GMRES_MAX_ITER block is allocated for a run that
    # converges early.
    basis = np.zeros((rows, 8, n), dtype=rhs.dtype)
    basis[active, 0] = rhs[active] / beta[active, None]
    triangles = [[] for _ in range(rows)]  # rotated Hessenberg columns
    rotations = [[] for _ in range(rows)]
    residuals = [[b] for b in beta.tolist()]  # beta e_1 under the rotations
    solutions = np.zeros_like(rhs)
    steps, worst = 0, 0.0
    while active.any():
        if steps == _GMRES_MAX_ITER:
            return None
        if steps + 1 == basis.shape[1]:
            extra = min(steps + 1, _GMRES_MAX_ITER - steps)
            basis = np.concatenate((basis, np.zeros_like(basis[:, :extra])), axis=1)
        v = basis[:, : steps + 1]
        w = operator(v[:, -1])
        coefficients = 0.0
        for _ in range(2):
            # v^H w as conj(v conj(w)): no conjugate copy of the basis.
            projections = np.matmul(v, w.conj()[:, :, None])[:, :, 0].conj()
            w = w - np.matmul(projections[:, None], v)[:, 0]
            coefficients = coefficients + projections
        norms = np.linalg.norm(w, axis=-1)
        moving = active & (norms > 0)
        np.divide(w, norms[:, None], out=basis[:, steps + 1], where=moving[:, None])
        steps += 1
        for row in np.flatnonzero(active).tolist():
            column = coefficients[row].tolist()
            for i, (c, s) in enumerate(rotations[row]):
                column[i], column[i + 1] = (
                    c * column[i] + s * column[i + 1],
                    -s.conjugate() * column[i] + c * column[i + 1],
                )
            a, b = column[-1], float(norms[row])
            radius = math.hypot(abs(a), b)
            if radius == 0.0:
                return None
            phase = a / abs(a) if a else 1.0
            c, s = abs(a) / radius, phase * b / radius
            column[-1] = phase * radius
            rotations[row].append((c, s))
            triangles[row].append(column)
            g = residuals[row]
            g.append(-s.conjugate() * g[-1])
            g[-2] = c * g[-2]
            relative = abs(g[-1]) / beta[row]
            if relative <= _GMRES_TOL:
                active[row] = False
                worst = max(worst, relative)
                solutions[row] = _back_substitute(triangles[row], g) @ basis[row, :steps]
    return solutions, steps, worst


def _back_substitute(triangle: list, g: list) -> np.ndarray:
    # y with R y = g[:m] for the upper triangular R whose column j is triangle[j].
    m = len(triangle)
    y = [0.0] * m
    for i in reversed(range(m)):
        y[i] = (g[i] - sum(triangle[j][i] * y[j] for j in range(i + 1, m))) / triangle[i][i]
    return np.array(y)


def _preconditioned_operator(inverse: CharacteristicInverse, table: np.ndarray) -> Callable:
    # v -> v + M^{-1} T v on (rows, n) Krylov rows, T the Toeplitz matrix
    # of the kernel profile ``table``, in four bare FFT calls: T v by the
    # kernel's spectrum, then M^{-1} by ``inverse._apply_rows``.  Complex
    # rows take complex transforms; a real table keeps real ones and the
    # arithmetic of ``inverse.apply``.  The kernel's spectrum, and the
    # Cauchy one for complex rows, are built here, once per solve.
    n = len(inverse.left)
    length = _fft_length(n)
    if np.iscomplexobj(table):
        fft, ifft, cauchy = np.fft.fft, np.fft.ifft, inverse._complex_spectrum()
    else:
        fft, ifft, cauchy = np.fft.rfft, np.fft.irfft, inverse.spectrum
    spectrum = fft(table, length)

    def operator(v):
        product = ifft(spectrum * fft(v, length), length)[:, n - 1 : 2 * n - 1]
        return v + inverse._apply_rows(product, cauchy)

    return operator


def _solve_toeplitz(mesh: Mesh, table: np.ndarray, b: np.ndarray):
    # (values, condition) of the Toeplitz system with kernel profile
    # ``table``, from the first and last columns x, y of A^{-1} by GMRES or
    # by one gesv call, as the module docstring says.  A table holding real
    # values is solved in real arithmetic, a complex load then as its real
    # and imaginary parts.  A GMRES failure falls back to the dense source,
    # whose SingularMatrixError is the caller's.
    n = mesh.n
    b = _checked_rhs(b, n)
    profile = _singular_profile(mesh) + table
    if not np.all(np.isfinite(profile)):
        raise ValueError("matrix contains nonfinite entries")
    real = not np.any(table.imag)
    split = real and (np.iscomplexobj(b) or np.iscomplexobj(table))
    if real:
        table, profile = table.real, profile.real
    dtype = np.dtype(np.float64 if real else np.complex128)
    loads = np.array([b.real, b.imag] if split else [b], dtype=dtype)
    norm1 = _toeplitz_norm1(profile)

    def join(rows):
        return rows[0] + 1j * rows[1] if split else rows[0]

    def from_end_columns(x, y, parts=None):
        # (values, condition, backward error) from x and y, or None where the
        # formula does not hold.  With no ``parts`` (GMRES), the loads are
        # one stacked A^{-1} probe with the estimate's first sweep, and None
        # is returned unless their normwise backward error
        # ||b - A g||_1 / (||A||_1 ||g||_1 + ||b||_1), with A g one FFT
        # product with the whole profile, is at most _GMRES_TOL.
        probes = _gohberg_semencul(x, y)
        if probes is None:
            return None
        first = backward = None
        if parts is None:
            *parts, first = probes[0](np.array([*loads, np.full(n, 1.0 / n)], dtype=dtype))
            length = _fft_length(n)
            fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
            products = ifft(fft(profile, length) * fft(parts, length), length)
            error = float(np.abs(b - join(products[:, n - 1 : 2 * n - 1])).sum())
            scale = norm1 * float(np.abs(join(parts)).sum()) + float(np.abs(b).sum())
            backward = error / scale if scale else error  # b = 0 is solved by g = 0
            if not backward <= _GMRES_TOL:
                return None
        return join(parts), _checked_condition(norm1, n, dtype, *probes, first=first), backward

    if n >= _GMRES_MIN_N:
        inverse = characteristic_inverse(mesh)
        ends = _gmres(_preconditioned_operator(inverse, table), inverse._end_columns().astype(dtype))
        try:
            solved = None if ends is None else from_end_columns(*ends[0])
        except SingularMatrixError:
            solved = None
        if solved is not None:
            logger.debug("GMRES route at n=%d: %d iterations, relative residual %.3e,"
                         " load backward error %.3e", n, *ends[1:], solved[2])
            return solved[:2]
        logger.debug("GMRES route at n=%d gave no answer", n)
    columns = np.zeros((2 + len(loads), n), dtype=dtype)
    columns[0, 0] = columns[1, -1] = 1.0
    columns[2:] = loads
    view = _toeplitz_view(profile)
    x, y, *parts = _gesv(view, columns.T).T
    solved = from_end_columns(x, y, parts)
    if solved is None:  # (A^{-1})_00 = 0
        fact = lu_factor(view, b)
        solved = fact.solution, condition_estimate_1norm(fact)
    logger.debug("dense route at n=%d", n)
    return solved[:2]


def solve_full(problem: FullProblem) -> DiscreteSolution:
    """Solve the equation by collocation on the problem's mesh.

    The characteristic equation (no kernel, or a difference kernel whose
    table is identically zero) is solved by ``characteristic_inverse``,
    the closed-form inverse of its matrix, in O(n log n) with no n x n
    array; its ``condition`` is exact.  Any other difference kernel takes
    one Toeplitz route, which needs the first and last columns of A^{-1}:
    the Gohberg-Semencul formula gives from them Hager's condition
    estimate, in FFT products.  From n = _GMRES_MIN_N on, GMRES solves for
    those two columns on the second-kind form (I + M^{-1} T) g = M^{-1} r,
    preconditioned by the closed-form inverse, with O(n log n) work per
    iteration and no n x n array: the operator, built once, takes four FFT
    calls per iteration, and GMRES starts from M^{-1} e_0 and M^{-1} e_{n-1}
    in closed form.  The solution is then one product with A^{-1} by the
    formula, which also takes the first sweep of the estimate, accepted
    when its normwise backward error ||b - A g||_1 / (||A||_1 ||g||_1 +
    ||b||_1) is at most _GMRES_TOL.  Below _GMRES_MIN_N, where LAPACK is
    faster, and when GMRES gives no answer (no relative residual of
    _GMRES_TOL in _GMRES_MAX_ITER iterations, a formula that does not
    apply, a solution that fails that test, or an estimate that reads
    singular), one ``gesv`` call on the read-only Toeplitz view of the
    2n - 1 profile solves for the two columns and the load together, so
    the solution comes from LAPACK's LU and the only n x n array is
    LAPACK's copy.  Where (A^{-1})_00 = 0 the formula does not apply and
    that view goes through ``lu_factor``.  A general kernel assembles the
    dense matrix, one more n x n array, and solves it through LAPACK in
    the ``lu_factor`` call that takes the condition estimate.  Every
    route's condition number is attached to the result; a warning is
    logged above 1e12, and the route taken (with the GMRES iteration count,
    final relative residual and the load's backward error) at DEBUG.  The
    scalar field is complex exactly when the kernel or the right-hand side
    is complex; a real problem never leaves real arithmetic.  Raises
    SingularMatrixError for a degenerate system and ValueError for a
    nonfinite right-hand side or an over-budget size.
    """
    mesh = problem.mesh
    if problem.rhs.f is not None:
        problem.rhs.validate_pair(mesh.a, mesh.b)
    table = _kernel_table(problem)
    b = _load_values(problem.rhs.fprime, mesh.colloc, "right-hand side")
    if table is None:
        inverse = characteristic_inverse(mesh)
        values, condition = inverse.apply(b), inverse.condition
        logger.debug("closed-form route at n=%d", mesh.n)
    elif table.ndim == 1:
        values, condition = _solve_toeplitz(mesh, table, b)
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
    and the final t-integration use ``m`` quadrature nodes.
    """
    kernel = problem.kernel
    k1 = getattr(kernel, "k1", None)
    if k1 is None:
        raise ValueError(
            "kernel lacks the antiderivative K1 needed by the second-kind reduction"
        )
    if problem.rhs.f is None:
        raise ValueError("second-kind reduction requires the antiderivative f")
    if m < 8:
        raise ValueError(f"need at least 8 quadrature nodes, got {m}")
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

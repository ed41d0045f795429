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
inverse of the characteristic matrix: O(n log n) with no n x n array,
and the exact condition number.  Every other kernel assembles the dense
matrix and goes through ``linalg.lu_factor``.

``fredholm_residual`` measures how well a solution satisfies the
equivalent second-kind equation obtained by inverting the singular part:

    g(x) + int_a^b N1(x, t) g(t) dt = f1(x),

with N1 and f1 given by the weighted principal-value transform of the
kernel antiderivative K1 and of f.  It is a diagnostic only and never
gates the solve path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from hypersing.analytic import RightHandSide, _load_values, weighted_pv_integral
from hypersing.characteristic import (
    DiscreteSolution,
    _singular_profile,
    _toeplitz_view,
    assemble_characteristic,
    characteristic_inverse,
)
from hypersing.linalg import check_dense_size, condition_estimate_1norm, lu_factor
from hypersing.mesh import Mesh
from hypersing.quadrature import gauss_legendre

logger = logging.getLogger(__name__)

_CONDITION_WARN = 1e12


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


def _dense_matrix(problem: FullProblem):
    # The dense collocation matrix of a problem with a regular kernel, or None for
    # the characteristic equation: no kernel, or a difference kernel whose
    # checked table is identically zero (and real).  The n x n size is
    # refused before any kernel is evaluated.  A difference kernel's matrix
    # is a read-only Toeplitz view of its 2n - 1 profile, so the solve holds
    # no n x n array but LAPACK's own copy; a general kernel's is h times its
    # table, a fresh array, plus the view of the singular profile.  The
    # kernel's own table may be an integer array or a broadcast view, so it
    # is never scaled in place.
    kernel = problem.kernel
    if kernel is None:
        return None
    mesh = problem.mesh
    check_dense_size("n", mesh.n, mesh.n, mesh.n)
    if kernel.profile_batch is not None:
        row = _difference_table(mesh, kernel)[0]
        if not np.iscomplexobj(row) and not np.any(row):
            return None
        return _toeplitz_view(_singular_profile(mesh) + mesh.h * row)
    table = mesh.h * _grid_table(kernel, mesh.colloc, mesh.nodes[1:])
    table += _toeplitz_view(_singular_profile(mesh))
    return table


def assemble_full(problem: FullProblem) -> np.ndarray:
    """Collocation matrix of the full equation: characteristic part plus h*K table.

    With no kernel, or an identically zero one, the result is bit-identical
    to the characteristic matrix.  The result is a writable array.  An
    n x n matrix above ``linalg.MAX_DENSE_ELEMENTS`` is refused with a
    ValueError before any kernel is evaluated.
    """
    matrix = _dense_matrix(problem)
    if matrix is None:
        return assemble_characteristic(problem.mesh)
    return matrix if matrix.flags.writeable else matrix.copy()


def solve_full(problem: FullProblem) -> DiscreteSolution:
    """Solve the equation by collocation on the problem's mesh.

    The characteristic equation (no kernel, or a difference kernel whose
    table is identically zero) is solved by ``characteristic_inverse``,
    the closed-form inverse of its matrix, in O(n log n) with no n x n
    array; its ``condition`` is exact.  Any other kernel assembles the
    dense matrix and solves it through LAPACK in the ``lu_factor`` call
    that takes the condition estimate.  A difference kernel's matrix is a
    read-only Toeplitz view of its 2n - 1 profile, checked from that
    profile and solved in one ``gesv`` call, so the only n x n array is
    LAPACK's copy; a general kernel's table is one more.  Either route's
    condition number is attached to the result; a warning is logged above
    1e12.  The scalar field is complex exactly when the kernel or the
    right-hand side is complex; a real problem never leaves real
    arithmetic.  Raises
    SingularMatrixError for a degenerate system and ValueError for a
    nonfinite right-hand side or an over-budget size.
    """
    mesh = problem.mesh
    if problem.rhs.f is not None:
        problem.rhs.validate_pair(mesh.a, mesh.b)
    matrix = _dense_matrix(problem)
    b = _load_values(problem.rhs.fprime, mesh.colloc, "right-hand side")
    if matrix is None:
        inverse = characteristic_inverse(mesh)
        values, condition = inverse.apply(b), inverse.condition
    else:
        fact = lu_factor(matrix, b)
        values, condition = fact.solution, condition_estimate_1norm(fact)
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

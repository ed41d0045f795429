"""Collocation solver for the hypersingular equation, with or without a regular kernel.

The singular part is the characteristic matrix; the regular kernel enters
through the one-point rectangle rule h*K0(x_i, t_j), which keeps the
scheme identical to the analyzed one.  A difference kernel depends, like
the singular part, only on i - j on the uniform mesh, so its table is the
2n - 1 values at the distinct differences and the whole matrix is one
Toeplitz matrix of their sum.  A general kernel (``eval`` only) is
evaluated at all n^2 pairs.  Both tables go through one checked
evaluation: one call for the whole table, a shape and finiteness check,
and a failure locator that names the raising difference or pair in O(n)
further calls, a row at a time and then the entries of the failing row.
With no kernel the problem is the characteristic equation:
``solve_characteristic`` is that case of ``solve_full``.

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

from hypersing.analytic import RightHandSide, weighted_pv_integral
from hypersing.characteristic import (
    DiscreteSolution,
    _singular_profile,
    _toeplitz,
    assemble_characteristic,
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


def _kernel_table(problem: FullProblem) -> np.ndarray:
    """The regular kernel's values on the mesh, checked, as a 2-D table.

    A difference kernel gives one row: K0 at the 2n - 1 differences
    (m - 1/2) h, m = i - j, at index m + n - 1.  A general kernel gives the
    n x n table K0(x_i, t_j).  Either is computed in one call, and a call
    that raises, a wrong shape or a nonfinite value ends in a
    KernelEvaluationError that names an (x, t) pair where it can.  The
    failure locator probes a row with an array and an entry with the
    scalars (or the one difference) alone.
    """
    mesh, kernel = problem.mesh, problem.kernel
    n = mesh.n
    if kernel.profile_batch is not None:
        diffs = (np.arange(2 * n - 1) - (n - 1) - 0.5) * mesh.h
        shape = (1, 2 * n - 1)

        def evaluate(i, m):
            return np.asarray(kernel.profile_batch(np.atleast_1d(diffs[m])))[None]

        def pair(_, m):
            # One (x_i, t_j) with i - j = m - (n - 1), the m-th difference.
            i = max(m - (n - 1), 0)
            return float(mesh.colloc[i]), float(mesh.nodes[n + i - m])

    else:
        shape = (n, n)

        def evaluate(i, j):
            x, t = mesh.colloc[i], mesh.nodes[1:][j]
            return kernel.eval(x[:, None] if np.ndim(x) else x, t)

        def pair(i, j):
            return float(mesh.colloc[i]), float(mesh.nodes[1 + j])

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


def assemble_full(problem: FullProblem) -> np.ndarray:
    """Collocation matrix of the full equation: characteristic part plus h*K table.

    With no kernel, or an identically zero one, the result is bit-identical
    to the characteristic matrix.  An n x n matrix above
    ``linalg.MAX_DENSE_ELEMENTS`` is refused with a ValueError before any
    kernel is evaluated.
    """
    mesh = problem.mesh
    if problem.kernel is None:
        return assemble_characteristic(mesh)
    check_dense_size("n", mesh.n, mesh.n, mesh.n)
    table = mesh.h * _kernel_table(problem)
    if problem.kernel.profile_batch is not None:
        return _toeplitz(_singular_profile(mesh) + table[0])
    table += assemble_characteristic(mesh)
    return table


def _evaluate_rhs(rhs: RightHandSide, points: np.ndarray) -> np.ndarray:
    vals = np.asarray(rhs.fprime(points))
    if vals.ndim == 0:
        vals = np.full(points.shape, vals[()])
    if not np.all(np.isfinite(vals)):
        raise ValueError("right-hand side is nonfinite at a collocation point")
    return vals


def solve_full(problem: FullProblem) -> DiscreteSolution:
    """Solve the equation by dense collocation on the problem's mesh.

    Solves through LAPACK in the ``lu_factor`` call that takes the
    condition estimate (one ``gesv`` call for the Toeplitz matrix of a
    difference kernel) and attaches the estimate to the result; a warning
    is logged above 1e12.
    The scalar field is complex exactly when the kernel or the right-hand
    side is complex; a real problem never leaves real arithmetic.  Raises
    SingularMatrixError for a degenerate system and ValueError for a
    nonfinite right-hand side.
    """
    if problem.rhs.f is not None:
        problem.rhs.validate_pair(problem.mesh.a, problem.mesh.b)
    matrix = assemble_full(problem)
    b = _evaluate_rhs(problem.rhs, problem.mesh.colloc)
    fact = lu_factor(matrix, b)
    values = fact.solution
    condition = condition_estimate_1norm(fact)
    if condition > _CONDITION_WARN:
        logger.warning(
            "collocation matrix is ill conditioned: estimate %.3e", condition
        )
    return DiscreteSolution(mesh=problem.mesh, values=values, condition=condition)


def solve_characteristic(mesh: Mesh, rhs: RightHandSide) -> DiscreteSolution:
    """Solve the characteristic equation: ``solve_full`` with no kernel."""
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
    worst = 0.0
    for x in grid:
        f1 = (
            np.sqrt((x - a) * (b - x))
            / np.pi**2
            * weighted_pv_integral(problem.rhs.f, a, b, m, x)
        )
        n1 = (
            np.sqrt((x - a) * (b - x))
            / np.pi**2
            * np.array(
                [
                    weighted_pv_integral(lambda tau, tq=tq: k1(tau, tq), a, b, m, x)
                    for tq in t_nodes
                ]
            )
        )
        residual = abs(solution(x) + np.sum(t_weights * n1 * g_at_t) - f1)
        worst = max(worst, float(residual))
    return worst

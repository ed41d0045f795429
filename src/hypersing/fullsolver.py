"""Collocation solver for the hypersingular equation, with or without a regular kernel.

The singular part is the characteristic matrix; the regular kernel enters
through the one-point rectangle rule h*K0(x_i, t_j), which keeps the
scheme identical to the analyzed one.  A convolution kernel depends, like
the singular part, only on i - j on the uniform mesh, so its table is the
2n - 1 values at the distinct differences and the whole matrix is one
Toeplitz matrix of their sum.  Kernels without ``profile_batch`` are
evaluated at all n^2 pairs.  With no kernel the problem is the
characteristic equation: ``solve_characteristic`` is that case of
``solve_full``.

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
from hypersing.linalg import condition_estimate_1norm, lu_factor
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


def _difference_pair(mesh: Mesh, m: int) -> tuple[float, float]:
    # One (x_i, t_j) with x_i - t_j = (m - (n - 1) - 1/2) h, the m-th difference.
    i = max(m - (mesh.n - 1), 0)
    j = i - m + mesh.n - 1
    return float(mesh.colloc[i]), float(mesh.nodes[1 + j])


def _kernel_table(problem: FullProblem) -> np.ndarray:
    # K0 at the 2n - 1 differences (m - 1/2) h, m = i - j, at index m + n - 1.
    mesh = problem.mesh
    n = mesh.n
    batch = problem.kernel.profile_batch
    diffs = (np.arange(2 * n - 1) - (n - 1) - 0.5) * mesh.h
    try:
        table = np.asarray(batch(diffs))
    except Exception as exc:  # locate the difference by probing each alone
        for m in range(2 * n - 1):
            try:
                batch(diffs[m : m + 1])
            except Exception:
                x, t = _difference_pair(mesh, m)
                raise KernelEvaluationError(
                    f"kernel evaluation failed at (x, t) = ({x}, {t}): {exc}", x=x, t=t
                ) from exc
        raise KernelEvaluationError(f"kernel evaluation failed: {exc}") from exc
    if table.shape != diffs.shape:
        raise KernelEvaluationError(
            f"kernel table has shape {table.shape}, expected {diffs.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(table))
    if bad.size:
        x, t = _difference_pair(mesh, int(bad[0]))
        raise KernelEvaluationError(
            "kernel evaluation produced a nonfinite value", x=x, t=t
        )
    return table


def _pointwise_table(mesh: Mesh, kernel) -> np.ndarray:
    n = mesh.n
    try:
        values = np.asarray(kernel.eval(mesh.colloc[:, None], mesh.nodes[None, 1:]))
    except Exception as exc:  # locate the pair by scalar probing
        for xi in mesh.colloc:
            for tj in mesh.nodes[1:]:
                try:
                    kernel.eval(xi, tj)
                except Exception:
                    raise KernelEvaluationError(
                        f"kernel evaluation failed at (x, t) = ({xi}, {tj}): {exc}",
                        x=float(xi),
                        t=float(tj),
                    ) from exc
        raise KernelEvaluationError(f"kernel evaluation failed: {exc}") from exc
    if values.shape != (n, n):
        raise KernelEvaluationError(
            f"kernel table has shape {values.shape}, expected {(n, n)}"
        )
    bad = ~np.isfinite(values)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise KernelEvaluationError(
            "kernel evaluation produced a nonfinite value",
            x=float(mesh.colloc[i]),
            t=float(mesh.nodes[1 + j]),
        )
    return values


def assemble_full(problem: FullProblem) -> np.ndarray:
    """Collocation matrix of the full equation: characteristic part plus h*K table.

    With no kernel, or an identically zero one, the result is bit-identical
    to the characteristic matrix.
    """
    mesh = problem.mesh
    if problem.kernel is None:
        return assemble_characteristic(mesh)
    if getattr(problem.kernel, "profile_batch", None) is None:
        matrix = mesh.h * _pointwise_table(mesh, problem.kernel)
        matrix += assemble_characteristic(mesh)
        return matrix
    return _toeplitz(_singular_profile(mesh) + mesh.h * _kernel_table(problem))


def _evaluate_rhs(rhs: RightHandSide, points: np.ndarray) -> np.ndarray:
    vals = np.asarray(rhs.fprime(points))
    if vals.ndim == 0:
        vals = np.full(points.shape, vals[()])
    if not np.all(np.isfinite(vals)):
        raise ValueError("right-hand side is nonfinite at a collocation point")
    return vals


def solve_full(problem: FullProblem) -> DiscreteSolution:
    """Solve the equation by dense collocation on the problem's mesh.

    Solves through LAPACK (``lu_factor``) and attaches the condition
    estimate taken there to the result; a warning is logged above 1e12.
    The scalar field is complex exactly when the kernel or the right-hand
    side is complex; a real problem never leaves real arithmetic.  Raises
    SingularMatrixError for a degenerate system and ValueError for a
    nonfinite right-hand side.
    """
    if problem.rhs.f is not None:
        problem.rhs.validate_pair(problem.mesh.a, problem.mesh.b)
    matrix = assemble_full(problem)
    b = _evaluate_rhs(problem.rhs, problem.mesh.colloc)
    fact = lu_factor(matrix)
    values = fact.solve(b)
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

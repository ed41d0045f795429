"""Collocation solver for the characteristic hypersingular equation.

Over each subinterval (t_{j-1}, t_j) the finite part of the 1/(x-t)^2
kernel integrates in closed form, so approximating the solution by one
value per subinterval and enforcing the equation at the midpoints x_i
gives the dense system

    sum_j g_j * ( 1/(x_i - t_j) - 1/(x_i - t_{j-1}) ) = f'(x_i),

whose matrix costs nothing to assemble.  The unknown attached to
subinterval j is most accurate at the midpoint x_j, and the bounded
solution class is zero at both endpoints; the evaluation rule between
nodes interpolates linearly through exactly that data.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from hypersing.analytic import RightHandSide
from hypersing.linalg import condition_estimate_1norm, lu_factor
from hypersing.mesh import Mesh

logger = logging.getLogger(__name__)

_CONDITION_WARN = 1e12
_DETERMINANT_MAX_N = 12


@dataclass
class DiscreteSolution:
    """Per-subinterval solution values on a mesh, real or complex.

    ``values[j]`` is the unknown attached to subinterval (t_j, t_{j+1}] in
    zero-based indexing; ``nodes`` exposes the subinterval right endpoints
    t_1..t_n it is conventionally indexed by.  Calling the solution
    evaluates the piecewise-linear rule anchored at the subinterval
    midpoints with zero values pinned at both endpoints, which is where
    the discretization carries its accuracy.  ``condition`` holds the
    1-norm condition estimate of the collocation matrix as a diagnostic.
    """

    mesh: Mesh
    values: np.ndarray
    condition: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.values) != self.mesh.n:
            raise ValueError(
                f"expected {self.mesh.n} values, got {len(self.values)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("solution values contain nonfinite entries")

    @property
    def nodes(self) -> np.ndarray:
        return self.mesh.nodes[1:]

    @property
    def is_complex(self) -> bool:
        return bool(np.iscomplexobj(self.values))

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        if np.any((xs < self.mesh.a) | (xs > self.mesh.b)):
            raise ValueError(f"evaluation outside [{self.mesh.a}, {self.mesh.b}]")
        xp = np.concatenate(([self.mesh.a], self.mesh.colloc, [self.mesh.b]))
        if self.is_complex:
            fp = np.concatenate(([0.0], self.values.real, [0.0]))
            out = np.interp(xs, xp, fp).astype(np.complex128)
            fp = np.concatenate(([0.0], self.values.imag, [0.0]))
            out += 1j * np.interp(xs, xp, fp)
        else:
            fp = np.concatenate(([0.0], self.values, [0.0]))
            out = np.interp(xs, xp, fp)
        return out[0] if scalar else out


def assemble_characteristic(mesh: Mesh) -> np.ndarray:
    """Collocation matrix M[i, j] = 1/(x_i - t_j) - 1/(x_i - t_{j-1}).

    Depends only on the mesh; the interleaving of collocation points and
    nodes rules out any zero denominator.  Row sums telescope to the
    finite part of the unit density.
    """
    x = mesh.colloc[:, None]
    t = mesh.nodes[None, :]
    # In place: at most two n x n arrays live, with the same bits as 1.0 / d.
    out = x - t[:, 1:]
    np.reciprocal(out, out=out)
    left = x - t[:, :-1]
    out -= np.reciprocal(left, out=left)
    return out


def _evaluate_rhs(rhs: RightHandSide, points: np.ndarray) -> np.ndarray:
    vals = np.asarray(rhs.fprime(points))
    if vals.ndim == 0:
        vals = np.full(points.shape, vals[()])
    if not np.all(np.isfinite(vals)):
        raise ValueError("right-hand side is nonfinite at a collocation point")
    return vals


def solve_characteristic(mesh: Mesh, rhs: RightHandSide) -> DiscreteSolution:
    """Solve the characteristic equation on the mesh by dense collocation.

    Solves through LAPACK (``lu_factor``) and attaches the condition
    estimate taken there to the result; a warning is logged above 1e12.
    Raises SingularMatrixError for a degenerate system and ValueError for a
    nonfinite right-hand side.
    """
    if rhs.f is not None:
        rhs.validate_pair(mesh.a, mesh.b)
    matrix = assemble_characteristic(mesh)
    b = _evaluate_rhs(rhs, mesh.colloc)
    fact = lu_factor(matrix)
    values = fact.solve(b)
    condition = condition_estimate_1norm(fact)
    if condition > _CONDITION_WARN:
        logger.warning(
            "collocation matrix is ill conditioned: estimate %.3e", condition
        )
    return DiscreteSolution(mesh=mesh, values=values, condition=condition)


def characteristic_determinant_closed_form(mesh: Mesh) -> float:
    """Closed-form determinant of the collocation matrix, for n <= 12.

    The matrix reduces to a Cauchy-type determinant with the product form

        prod_j (t_j - t_0) / prod_i (x_i - t_0)
        * prod_{q<p} (t_q - t_p) * prod_{q<p} (x_p - x_q)
        / prod_{q,p} (x_q - t_p),

    all indices running over 1..n.  The factor count grows quadratically
    and the magnitudes factorially, so sizes beyond 12 are refused rather
    than silently overflowing.
    """
    n = mesh.n
    if n > _DETERMINANT_MAX_N:
        raise ValueError(
            f"closed-form determinant is limited to n <= {_DETERMINANT_MAX_N}, got {n}"
        )
    t0 = mesh.nodes[0]
    t = mesh.nodes[1:]
    x = mesh.colloc
    head = math.prod((t[j] - t0) / (x[j] - t0) for j in range(n))
    tq_tp = math.prod(
        t[q] - t[p] for q in range(n) for p in range(q + 1, n)
    )
    xp_xq = math.prod(
        x[p] - x[q] for q in range(n) for p in range(q + 1, n)
    )
    cross = math.prod(x[q] - t[p] for q in range(n) for p in range(n))
    return head * tq_tp * xp_xq / cross

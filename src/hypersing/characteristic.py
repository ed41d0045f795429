"""Collocation matrix of the characteristic hypersingular equation.

Over each subinterval (t_{j-1}, t_j) the finite part of the 1/(x-t)^2
kernel integrates in closed form, so approximating the solution by one
value per subinterval and enforcing the equation at the midpoints x_i
gives the dense system

    sum_j g_j * ( 1/(x_i - t_j) - 1/(x_i - t_{j-1}) ) = f'(x_i).

On the uniform mesh x_i - t_j = (i - j - 1/2) h, so the entry collapses
to c_{i-j} = 1/(((i-j)^2 - 1/4) h): a symmetric Toeplitz matrix built
from its 2n - 1 closed-form values.  The solver is ``solve_full`` with no
regular kernel (``fullsolver.solve_characteristic``).  The unknown
attached to subinterval j is most accurate at the midpoint x_j, and the
bounded solution class is zero at both endpoints; ``DiscreteSolution``
interpolates linearly through exactly that data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from hypersing.linalg import check_dense_size
from hypersing.mesh import Mesh

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


def _singular_profile(mesh: Mesh) -> np.ndarray:
    # c_m = 1/((m^2 - 1/4) h) for m = i - j = -(n-1)..n-1, at index m + n - 1.
    m = np.arange(1 - mesh.n, mesh.n)
    return 1.0 / ((m**2 - 0.25) * mesh.h)


def _toeplitz(profile: np.ndarray) -> np.ndarray:
    """Writable C-contiguous T[i, j] = profile[i - j + n - 1] from 2n - 1 values."""
    n = (len(profile) + 1) // 2
    return np.lib.stride_tricks.sliding_window_view(profile, n)[:, ::-1].copy()


def assemble_characteristic(mesh: Mesh) -> np.ndarray:
    """Collocation matrix M[i, j] = 1/(x_i - t_j) - 1/(x_i - t_{j-1}).

    Depends only on the mesh and only on i - j: the entry is
    1/(((i-j)^2 - 1/4) h), computed once per difference, so the matrix is
    exactly symmetric.  Row sums telescope to the finite part of the unit
    density.  An n x n matrix above ``linalg.MAX_DENSE_ELEMENTS`` is refused
    with a ValueError before it is allocated.
    """
    check_dense_size("n", mesh.n, mesh.n, mesh.n)
    return _toeplitz(_singular_profile(mesh))


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

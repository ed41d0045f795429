"""Direct collocation solvers for hypersingular integral equations on an interval.

The package solves equations of the form

    int_a^b g(t) [ 1/(x-t)^2 + K0(x,t) ] dt = f'(x),        a < x < b,

for the solution class that stays bounded on the closed interval (and
therefore vanishes like the square root of the distance to each endpoint).
It provides

* a finite-part (Hadamard) evaluator for the 1/(x-t)^2 integral,
* the closed-form inversion of the characteristic equation as a reference,
* uniform-mesh collocation solvers for the characteristic and full
  equations over real or complex scalars,
* a Chebyshev-series solver used as an independent cross-check,
* packaged problems: pressurized straight crack opening and plane-wave
  diffraction by a rigid screen,
* a command line front end that writes CSV comparison tables.
"""

from hypersing.mesh import Mesh, make_mesh
from hypersing.quadrature import QuadratureConvergenceError, adaptive_gauss
from hypersing.hypersingular import Density, cauchy_pv, finite_part, finite_part_constant
from hypersing.linalg import (
    LUFactorization,
    SingularMatrixError,
    condition_estimate_1norm,
    lu_factor,
    solve,
)
from hypersing.analytic import (
    InversionResult,
    RightHandSide,
    crack_exact,
    full_example_exact,
    invert_characteristic,
)
from hypersing.characteristic import (
    DiscreteSolution,
    assemble_characteristic,
    characteristic_determinant_closed_form,
    solve_characteristic,
)
from hypersing.kernels import (
    CrackParams,
    FourierSymbol,
    RegularKernel,
    ScreenParams,
    SymbolDecayError,
    TailTruncationError,
    acoustic_kernel,
    crack_problem,
    kernel_from_symbol,
    normalize_to_canonical,
    polynomial_kernel,
    screen_problem,
    zero_kernel,
)
from hypersing.fullsolver import (
    FullProblem,
    KernelEvaluationError,
    assemble_full,
    fredholm_residual,
    solve_full,
)
from hypersing.spectral import ChebyshevSolution, chebyshev_U, solve_spectral

__version__ = "0.1.0"

__all__ = [
    "Mesh",
    "make_mesh",
    "QuadratureConvergenceError",
    "adaptive_gauss",
    "Density",
    "finite_part",
    "finite_part_constant",
    "cauchy_pv",
    "LUFactorization",
    "SingularMatrixError",
    "lu_factor",
    "solve",
    "condition_estimate_1norm",
    "RightHandSide",
    "InversionResult",
    "invert_characteristic",
    "crack_exact",
    "full_example_exact",
    "DiscreteSolution",
    "assemble_characteristic",
    "solve_characteristic",
    "characteristic_determinant_closed_form",
    "RegularKernel",
    "FourierSymbol",
    "CrackParams",
    "ScreenParams",
    "TailTruncationError",
    "SymbolDecayError",
    "polynomial_kernel",
    "kernel_from_symbol",
    "zero_kernel",
    "crack_problem",
    "acoustic_kernel",
    "screen_problem",
    "normalize_to_canonical",
    "FullProblem",
    "KernelEvaluationError",
    "assemble_full",
    "solve_full",
    "fredholm_residual",
    "chebyshev_U",
    "ChebyshevSolution",
    "solve_spectral",
]

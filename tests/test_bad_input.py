"""Bad input to the public entry points ends in a ValueError before any work.

Each test draws NaN, +-inf, zero, negative or out-of-interval values for
one parameter and keeps the others valid.  The loads, densities, symbols
and kernels handed in fail the test if they are evaluated, and sizes that
are legal but large ride along, so a refusal must come first.  Sizes over
the dense budget are refused before allocating too; those run in the
address-space-capped subprocesses of test_linalg.py and test_cli.py.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersing import (
    ChebyshevSolution,
    CrackParams,
    Density,
    DiscreteSolution,
    FourierSymbol,
    FullProblem,
    RegularKernel,
    RightHandSide,
    ScreenParams,
    cauchy_pv,
    chebyshev_U,
    crack_exact,
    crack_problem,
    finite_part,
    finite_part_constant,
    fredholm_residual,
    full_example_exact,
    invert_characteristic,
    kernel_from_symbol,
    make_mesh,
    polynomial_kernel,
    screen_problem,
    solve_full,
    solve_spectral,
    zero_kernel,
)
from hypersing.analytic import weighted_pv_integral
from hypersing.fullsolver import _GMRES_MIN_N

_FEW = settings(max_examples=25, deadline=None)

NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FINITE = st.floats(min_value=-1e300, max_value=1e300)
NONPOSITIVE = st.one_of(NONFINITE, st.floats(max_value=0.0))
# Outside the closed interval [-1, 1], NaN included.
OUTSIDE_UNIT = st.one_of(
    NONFINITE,
    st.floats(min_value=1.0, exclude_min=True),
    st.floats(max_value=-1.0, exclude_max=True),
)
# Outside [-1, 1] by more than the 1e-12 that U_j and the closed-form
# solutions accept as rounding, NaN included.
OUTSIDE_UNIT_PAST_ROUNDING = st.one_of(
    NONFINITE, st.floats(min_value=1.0 + 1e-9), st.floats(max_value=-1.0 - 1e-9)
)
# A nonfinite end, or b <= a.
BAD_INTERVAL = st.one_of(
    st.tuples(NONFINITE, st.just(1.0)),
    st.tuples(st.just(-1.0), NONFINITE),
    st.tuples(FINITE, FINITE).map(lambda ends: (max(ends), min(ends))),
)

# (a, b, x) with x not strictly inside a valid (a, b), and the arguments
# (a, b, x, tol) of the adaptive finite-part and principal-value integrals.
BAD_INTERIOR_POINT = st.one_of(
    BAD_INTERVAL.map(lambda ends: (*ends, 0.0)),
    OUTSIDE_UNIT.map(lambda x: (-1.0, 1.0, x)),
    st.sampled_from([-1.0, 1.0]).map(lambda x: (-1.0, 1.0, x)),
)
BAD_INTEGRAL = st.one_of(
    BAD_INTERIOR_POINT.map(lambda args: (*args, 1e-9)),
    NONPOSITIVE.map(lambda tol: (-1.0, 1.0, 0.0, tol)),
    st.just((-1.0, 1.0, 0.0, math.inf)),
)


def _untouched(*args, **kwargs):
    raise AssertionError("evaluated before the bad input was refused")


UNTOUCHED_LOAD = RightHandSide(fprime=_untouched, f=_untouched)
UNTOUCHED_DENSITY = Density(value=_untouched, deriv=_untouched)
UNTOUCHED_SYMBOL = FourierSymbol(L=_untouched, A=1.0, L0=_untouched, decay=1.0)
UNTOUCHED_KERNEL = RegularKernel(profile_batch=_untouched, k1=_untouched)


def _with_bad_point(bad, size=10**5):
    # ``size`` interior points with the bad one last.
    points = np.zeros(size)
    points[-1] = bad
    return points


@_FEW
@given(st.one_of(
    BAD_INTERVAL.map(lambda ends: (*ends, 10**6)),
    st.integers(max_value=1).map(lambda n: (-1.0, 1.0, n)),
))
def test_make_mesh(args):
    with pytest.raises(ValueError):
        make_mesh(*args)


@_FEW
@given(st.one_of(
    NONFINITE.map(lambda v: {"sigma0": v}),
    NONPOSITIVE.map(lambda v: {"mu": v}),
    st.one_of(NONFINITE, st.floats(max_value=0.0), st.floats(min_value=0.5))
    .map(lambda v: {"nu": v}),
    NONPOSITIVE.map(lambda v: {"a": v}),
))
def test_crack_params(bad):
    with pytest.raises(ValueError):
        CrackParams(**{"sigma0": 1.0, "mu": 1.0, "nu": 0.3, "a": 1.0, **bad})


@_FEW
@given(st.one_of(
    NONPOSITIVE.map(lambda v: {"k": v}),
    NONPOSITIVE.map(lambda v: {"a": v}),
))
def test_screen_params(bad):
    with pytest.raises(ValueError):
        ScreenParams(**{"k": 1.0, "a": 1.0, **bad})


@_FEW
@given(st.one_of(
    BAD_INTERVAL.map(lambda ends: (*ends, 4096)),
    st.integers(max_value=7).map(lambda m: (-1.0, 1.0, m)),
))
def test_invert_characteristic(args):
    with pytest.raises(ValueError):
        invert_characteristic(UNTOUCHED_LOAD, *args)


@_FEW
@given(st.one_of(
    BAD_INTERVAL.map(lambda ends: (*ends, 64, 0.0)),
    st.integers(max_value=0).map(lambda m: (-1.0, 1.0, m, 0.0)),
    OUTSIDE_UNIT.map(lambda x: (-1.0, 1.0, 64, _with_bad_point(x))),
))
def test_weighted_pv_integral(args):
    with pytest.raises(ValueError):
        weighted_pv_integral(_untouched, *args)


@_FEW
@given(st.one_of(
    st.integers(max_value=1).map(lambda N: (N, 64, (-1.0, 1.0))),
    st.integers(min_value=2, max_value=64).flatmap(
        lambda N: st.integers(max_value=2 * N - 1).map(lambda mquad: (N, mquad, (-1.0, 1.0)))
    ),
    BAD_INTERVAL.map(lambda ends: (32, 4000, ends)),
))
def test_solve_spectral(args):
    N, mquad, interval = args
    with pytest.raises(ValueError):
        solve_spectral(UNTOUCHED_KERNEL, UNTOUCHED_LOAD, N, mquad, interval=interval)


@_FEW
@given(st.one_of(
    st.integers(max_value=-1).map(lambda j: (j, 0.5)),
    OUTSIDE_UNIT_PAST_ROUNDING.map(lambda x: (10**6, _with_bad_point(x, 16))),
))
def test_chebyshev_U(args):
    with pytest.raises(ValueError):
        chebyshev_U(*args)


@_FEW
@given(st.one_of(
    st.integers(max_value=0).map(lambda count: {"count": count}),
    st.integers(max_value=0).map(lambda mquad: {"mquad": mquad}),
    BAD_INTERVAL.map(lambda ends: {"interval": ends, "mquad": 4000}),
))
def test_chebyshev_from_function(bad):
    with pytest.raises(ValueError):
        ChebyshevSolution.from_function(_untouched, **{"count": 4, **bad})


@_FEW
@given(BAD_INTEGRAL)
def test_finite_part(args):
    with pytest.raises(ValueError):
        finite_part(UNTOUCHED_DENSITY, *args)


@_FEW
@given(BAD_INTEGRAL)
def test_cauchy_pv(args):
    with pytest.raises(ValueError):
        cauchy_pv(UNTOUCHED_DENSITY, *args)


@_FEW
@given(BAD_INTERIOR_POINT)
def test_finite_part_constant(args):
    with pytest.raises(ValueError):
        finite_part_constant(*args)


# Finite ends whose width b - a overflows.
_WIDE = (-1e308, 1e308)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    pytest.param(lambda: make_mesh(*_WIDE, 4), id="make_mesh"),
    pytest.param(lambda: finite_part_constant(*_WIDE, 0.0), id="finite_part_constant"),
    pytest.param(lambda: solve_spectral(UNTOUCHED_KERNEL, UNTOUCHED_LOAD, 32, 64, interval=_WIDE),
                 id="solve_spectral"),
    pytest.param(lambda: ChebyshevSolution.from_function(_untouched, 4, interval=_WIDE),
                 id="chebyshev_from_function"),
])
def test_interval_of_overflowing_width(call):
    with pytest.raises(ValueError, match=r"too wide: its width b - a overflows"):
        call()


@_FEW
@given(st.one_of(
    NONFINITE.map(lambda v: {"sigma0": v}),
    NONPOSITIVE.map(lambda v: {"mu": v}),
    st.one_of(NONFINITE, st.floats(max_value=0.0), st.floats(min_value=0.5))
    .map(lambda v: {"nu": v}),
    NONPOSITIVE.map(lambda v: {"a": v}),
    OUTSIDE_UNIT_PAST_ROUNDING.map(lambda x: {"x": _with_bad_point(x)}),
))
def test_crack_exact(bad):
    with pytest.raises(ValueError):
        crack_exact(**{"sigma0": 1.0, "mu": 1.0, "nu": 0.3, "a": 1.0, "x": 0.0, **bad})


@_FEW
@given(st.one_of(
    NONFINITE.map(lambda A: (A, 0.0)),
    OUTSIDE_UNIT_PAST_ROUNDING.map(lambda x: (1.0, _with_bad_point(x))),
))
def test_full_example_exact(args):
    with pytest.raises(ValueError):
        full_example_exact(*args)


_MESH = make_mesh(-1.0, 1.0, 4096)


@_FEW
@given(st.one_of(
    st.integers(max_value=7),
    st.integers(min_value=4097),
    st.floats(min_value=8.0, max_value=4096.0),
    NONFINITE,
))
def test_fredholm_residual(m):
    problem = FullProblem(mesh=_MESH, rhs=UNTOUCHED_LOAD, kernel=UNTOUCHED_KERNEL)
    with pytest.raises(ValueError):
        fredholm_residual(problem, _untouched, m)


@_FEW
@given(NONFINITE, st.integers(min_value=0, max_value=4095))
def test_solve_full_nonfinite_load(bad, where):
    # The load is read before the kernel is evaluated.
    def load(x):
        values = np.ones_like(x)
        values[where] = bad
        return values

    problem = FullProblem(mesh=_MESH, rhs=RightHandSide(fprime=load), kernel=UNTOUCHED_KERNEL)
    with pytest.raises(ValueError):
        solve_full(problem)


def _two_columns(x):
    return np.stack([np.ones_like(x), x], axis=-1)


_TWO_COLUMNS = RightHandSide(fprime=_two_columns)


def _unevaluated(kernel):
    # The kernel with its evaluation failing the test: its form, evenness
    # and log coefficient, which pick the solve's route, are kept.
    if kernel.profile_batch is None:
        return dataclasses.replace(kernel, eval=_untouched)
    return dataclasses.replace(kernel, profile_batch=_untouched)


def _solve_screen(n):
    problem = screen_problem(ScreenParams(k=1.3, a=1.0), n)
    return solve_full(dataclasses.replace(
        problem, rhs=_TWO_COLUMNS, kernel=_unevaluated(problem.kernel)))


@pytest.mark.parametrize("solve", [
    pytest.param(lambda: solve_full(dataclasses.replace(
        crack_problem(CrackParams(1.0, 1.0, 0.3, 1.0), 8), rhs=_TWO_COLUMNS)),
                 id="closed-form-crack"),
    pytest.param(lambda: solve_full(FullProblem(
        make_mesh(-1.0, 1.0, 8), _TWO_COLUMNS, _unevaluated(zero_kernel()))),
                 id="closed-form-zero-kernel"),
    pytest.param(lambda: _solve_screen(80), id="toeplitz-dense-screen"),
    pytest.param(lambda: _solve_screen(_GMRES_MIN_N), id="toeplitz-gmres-screen"),
    pytest.param(lambda: solve_full(FullProblem(
        make_mesh(-1.0, 1.0, 8), _TWO_COLUMNS, RegularKernel(eval=_untouched))),
                 id="general-kernel"),
    pytest.param(lambda: solve_spectral(
        _unevaluated(polynomial_kernel(3.0)), _TWO_COLUMNS, 8, 16), id="spectral-oracle"),
    pytest.param(lambda: ChebyshevSolution.from_function(_two_columns, 2), id="expansion-fit"),
])
def test_two_column_load_is_refused_before_the_kernel(solve):
    # A load is one value per point on every route: two values per point
    # are refused by their shape, not solved column by column or dropped.
    with pytest.raises(ValueError, match=r"got \(\d+, 2\)"):
        solve()


def test_two_column_load_refusal_names_the_callers_argument():
    # The refusal names the argument that the caller passed: the fit's fn,
    # and the full solve's right-hand side, never the solver's own rhs.
    with pytest.raises(ValueError, match=r"^fn must have shape \(64,\), got \(64, 2\)$"):
        ChebyshevSolution.from_function(_two_columns, 2)
    with pytest.raises(ValueError, match=r"^right-hand side must have shape \(8,\), got \(8, 2\)$"):
        solve_full(dataclasses.replace(
            crack_problem(CrackParams(1.0, 1.0, 0.3, 1.0), 8), rhs=_TWO_COLUMNS))


@_FEW
@given(st.one_of(
    NONPOSITIVE.map(lambda cap: (cap, 1e-8)),
    st.just((math.inf, 1e-8)),
    NONPOSITIVE.map(lambda tol: (100.0, tol)),
    st.just((100.0, math.inf)),
))
def test_kernel_from_symbol(args):
    with pytest.raises(ValueError):
        kernel_from_symbol(UNTOUCHED_SYMBOL, *args)


_SOLUTION = DiscreteSolution(mesh=make_mesh(-1.0, 1.0, 8), values=np.ones(8))


@_FEW
@given(OUTSIDE_UNIT)
def test_discrete_solution_call(x):
    with pytest.raises(ValueError):
        _SOLUTION(x)
    with pytest.raises(ValueError):
        _SOLUTION(_with_bad_point(x))

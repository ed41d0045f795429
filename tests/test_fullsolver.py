import dataclasses
import logging
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from hypersing import (
    CrackParams,
    FullProblem,
    KernelEvaluationError,
    RegularKernel,
    RightHandSide,
    ScreenParams,
    SingularMatrixError,
    assemble_characteristic,
    assemble_full,
    crack_problem,
    fredholm_residual,
    full_example_exact,
    lu_factor,
    make_mesh,
    polynomial_kernel,
    screen_problem,
    solve_characteristic,
    solve_full,
    solve_spectral,
    zero_kernel,
)
from hypersing import fullsolver
from hypersing.analytic import _load_values
from hypersing.characteristic import CharacteristicInverse, characteristic_inverse
from hypersing.quadrature import gauss_chebyshev1, gauss_chebyshev2
from tests.conftest import const_pi_rhs, count_gesv, unit_semicircle


def benchmark_problem(n: int, kernel) -> FullProblem:
    return FullProblem(mesh=make_mesh(-1.0, 1.0, n), rhs=const_pi_rhs(), kernel=kernel)


def assert_spectral_reports_pair(kernel, calls: list, match=None) -> None:
    # The spectral oracle's mquad x (mquad + 1) table goes through the same
    # check: a pair of its second-kind x grid and first-kind t grid, located
    # in at most 2 mquad + 2 calls.
    calls.clear()
    with pytest.raises(KernelEvaluationError, match=match) as info:
        solve_spectral(kernel, const_pi_rhs(), 8, 32)
    assert info.value.x in gauss_chebyshev2(32)[0]
    assert info.value.t in gauss_chebyshev1(33)[0]
    assert abs(info.value.x - info.value.t) < 0.1
    assert len(calls) <= 2 * 32 + 2


def zero_kernels():
    # The zero kernel as a profile, declared even (its table mirrored), and
    # by ``eval`` alone: a kernel's form decides how its table is stored,
    # never whether it takes the closed-form route.
    return (zero_kernel(), dataclasses.replace(zero_kernel(), even=True),
            RegularKernel(eval=zero_kernel().eval))


def test_zero_kernel_matrix_is_bitwise_characteristic():
    for kernel in zero_kernels():
        problem = benchmark_problem(24, kernel)
        full = assemble_full(problem)
        char = assemble_characteristic(problem.mesh)
        assert full.dtype == char.dtype == np.float64
        assert np.array_equal(full, char)


def test_zero_kernel_solution_matches_characteristic(semicircle_rhs):
    for n in (24, 40):
        for kernel in zero_kernels():
            problem = benchmark_problem(n, kernel)
            full = solve_full(problem)
            char = solve_characteristic(problem.mesh, semicircle_rhs)
            assert np.array_equal(full.values, char.values)
            assert full.condition == char.condition


@pytest.mark.parametrize("n", [40, 400])
def test_eval_and_profile_forms_solve_alike(n):
    # One rule for both forms: the linear kernel by ``eval`` alone (a dense
    # n x n table and LU) matches its profile (Toeplitz route) to rounding;
    # the paper's one-point rule for the eval form was 2.9e-3 of the peak
    # away at n = 400.
    profile = benchmark_problem(n, polynomial_kernel(3.0))
    general = benchmark_problem(n, RegularKernel(eval=polynomial_kernel(3.0).eval))
    want, got = assemble_full(profile), assemble_full(general)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    want, got = solve_full(profile).values, solve_full(general).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_linear_kernel_benchmark_forty_subintervals():
    solution = solve_full(benchmark_problem(40, polynomial_kernel(3.0)))
    nodes = solution.nodes
    assert np.max(np.abs(solution(nodes) - full_example_exact(3.0, nodes))) <= 0.05


def test_zero_slope_reduces_to_semicircle_benchmark():
    solution = solve_full(benchmark_problem(40, polynomial_kernel(0.0)))
    nodes = solution.nodes
    assert np.max(np.abs(solution(nodes) - unit_semicircle(nodes))) <= 0.05


def test_error_decreases_with_refinement():
    errors = []
    for n in (10, 20, 40, 80):
        solution = solve_full(benchmark_problem(n, polynomial_kernel(3.0)))
        nodes = solution.nodes
        errors.append(np.max(np.abs(solution(nodes) - full_example_exact(3.0, nodes))))
    assert all(e1 > e2 for e1, e2 in zip(errors, errors[1:]))


@pytest.mark.parametrize("alpha", [2.0, -1.0, 1j], ids=["double", "negate", "rotate"])
def test_solution_scales_linearly_with_rhs(alpha):
    from hypersing import RightHandSide

    base = benchmark_problem(16, polynomial_kernel(3.0))
    scaled = FullProblem(
        mesh=base.mesh,
        rhs=RightHandSide(
            fprime=lambda x: alpha * -np.pi * np.ones_like(np.asarray(x, dtype=float))
        ),
        kernel=base.kernel,
    )
    ref = solve_full(base).values
    got = solve_full(scaled).values
    assert np.max(np.abs(got - alpha * ref)) <= 1e-12 * np.max(np.abs(ref))


def test_second_kind_residual_small_for_converged_solution():
    problem = benchmark_problem(80, zero_kernel())
    solution = solve_full(problem)
    assert fredholm_residual(problem, solution, 128) <= 5e-2


def test_second_kind_residual_floor_with_exact_density():
    problem = benchmark_problem(80, zero_kernel())
    assert fredholm_residual(problem, unit_semicircle, 128) <= 1e-3


def test_second_kind_residual_decreases_with_quadrature():
    problem = benchmark_problem(80, polynomial_kernel(3.0))
    exact = lambda x: full_example_exact(3.0, x)
    residuals = [fredholm_residual(problem, exact, m) for m in (32, 64, 128)]
    assert residuals[0] > residuals[1] > residuals[2]


def test_second_kind_residual_requires_antiderivatives(semicircle_rhs):
    from hypersing import RightHandSide

    problem = benchmark_problem(16, polynomial_kernel(3.0))
    solution = solve_full(problem)
    no_k1 = RegularKernel(eval=polynomial_kernel(3.0).eval)
    with pytest.raises(ValueError, match="antiderivative K1"):
        fredholm_residual(
            FullProblem(mesh=problem.mesh, rhs=problem.rhs, kernel=no_k1),
            solution,
            64,
        )
    no_f = RightHandSide(
        fprime=lambda x: -np.pi * np.ones_like(np.asarray(x, dtype=float))
    )
    with pytest.raises(ValueError, match="antiderivative f"):
        fredholm_residual(
            FullProblem(mesh=problem.mesh, rhs=no_f, kernel=polynomial_kernel(3.0)),
            solution,
            64,
        )


def test_kernel_evaluation_failure_reports_offending_pair():
    calls = []

    def bad_eval(x, t):
        calls.append(1)
        out = np.asarray(x) - np.asarray(t)
        return np.where(np.abs(out) < 0.1, np.nan, out)

    kernel = RegularKernel(eval=bad_eval)
    with pytest.raises(KernelEvaluationError) as info:
        assemble_full(benchmark_problem(12, kernel))
    assert np.isfinite(info.value.x) and np.isfinite(info.value.t)
    assert abs(info.value.x - info.value.t) < 0.1
    assert_spectral_reports_pair(kernel, calls)


def test_batch_kernel_failure_probes_differences_not_pairs():
    # The batch path fails near d = 0 while pointwise evaluation would not:
    # the failure must be located among the 2n - 1 cells, one cell's two
    # Gauss points a call and then a point of the failing cell, without
    # falling back to n^2 pointwise calls.
    batch_calls, eval_calls = [], []

    def fragile_batch(d):
        d = np.atleast_1d(np.asarray(d, dtype=float))
        batch_calls.append(d.size)
        if np.any(np.abs(d) < 0.1):
            raise ValueError("too close")
        return d.copy()

    def pointwise(x, t):
        eval_calls.append(1)
        return np.asarray(x) - np.asarray(t)

    kernel = RegularKernel(eval=pointwise, profile_batch=fragile_batch)
    n = 40
    with pytest.raises(KernelEvaluationError, match="too close") as info:
        assemble_full(benchmark_problem(n, kernel))
    assert abs(info.value.x - info.value.t) < 0.1
    assert len(batch_calls) <= 2 * n
    first, *located, point = batch_calls
    assert first == 2 * (2 * n - 1) and point == 1 and set(located) <= {1, 2}
    assert not eval_calls


@pytest.mark.parametrize("failing, match", [
    pytest.param(lambda d: np.where(np.abs(d) < 0.1, np.nan, np.abs(d)), "nonfinite", id="nan"),
    pytest.param(None, "too close", id="raising"),
])
def test_even_kernel_failure_located_on_the_oracle_half_table(failing, match):
    # The oracle evaluates an even kernel on half its x rows; a failure is
    # still located at a pair of its two grids.
    calls = []

    def batch(d):
        calls.append(1)
        d = np.abs(np.atleast_1d(np.asarray(d, dtype=float)))
        if failing is not None:
            return failing(d)
        if np.any(d < 0.1):
            raise ValueError("too close")
        return d

    assert_spectral_reports_pair(RegularKernel(profile_batch=batch, even=True), calls, match)


def test_general_kernel_failure_located_in_linear_calls():
    # A vectorized eval that raises somewhere in the n x n table is located
    # a row at a time and then within the failing row, not pair by pair.
    calls = []

    def picky_eval(x, t):
        calls.append(1)
        x, t = np.asarray(x), np.asarray(t)
        if np.any((x > 0.5) & (t > 0.25)):
            raise ValueError("no kernel here")
        return x - t

    n = 1000
    with pytest.raises(KernelEvaluationError, match="no kernel here") as info:
        assemble_full(benchmark_problem(n, RegularKernel(eval=picky_eval)))
    assert info.value.x > 0.5 and info.value.t > 0.25
    assert len(calls) <= 2 * n + 1


def test_general_kernel_failure_located_on_the_second_gauss_grid():
    # A kernel that raises only at the right Gauss points t = x_j + h/(2 sqrt 3)
    # costs one more call, the left grid's whole-table call, and the pair it
    # names is a right Gauss point.
    calls = []
    n = 1000
    mesh = make_mesh(-1.0, 1.0, n)

    def right_only(x, t):
        calls.append(1)
        x, t = np.broadcast_arrays(x, t)
        right = ((t - mesh.a) / mesh.h) % 1.0 > 0.5  # x_j - o sits at 0.21, x_j + o at 0.79
        if np.any((x > 0.5) & right):
            raise ValueError("not on the right")
        return x - t

    with pytest.raises(KernelEvaluationError, match="not on the right") as info:
        assemble_full(benchmark_problem(n, RegularKernel(eval=right_only)))
    assert info.value.x > 0.5
    gauss = mesh.colloc + mesh.h / (2.0 * np.sqrt(3.0))
    assert np.min(np.abs(gauss - info.value.t)) <= 1e-15
    assert len(calls) <= 2 * n + 2


def test_kernel_raising_is_wrapped():
    calls = []

    def angry_eval(x, t):
        calls.append(1)
        raise RuntimeError("no table today")

    kernel = RegularKernel(eval=angry_eval)
    with pytest.raises(KernelEvaluationError, match="no table today"):
        assemble_full(benchmark_problem(4, kernel))
    assert_spectral_reports_pair(kernel, calls, match="no table today")


def test_kernel_table_of_wrong_shape_is_refused():
    # A general kernel's eval that returns one value per point of one axis
    # only is refused by the table's shape, before any solve.
    kernel = RegularKernel(eval=lambda x, t: np.zeros(3))
    with pytest.raises(KernelEvaluationError, match=r"shape \(3,\), expected \(4, 4\)"):
        solve_full(benchmark_problem(4, kernel))


def test_difference_table_matches_direct_evaluation():
    # The 2n-1 entry convolution shortcut must agree with the integral of
    # the linear kernel over each cell, h times its value at the cell's
    # midpoint t = x_j, evaluated pointwise.
    kernel = polynomial_kernel(2.5)
    problem = benchmark_problem(15, kernel)
    table = assemble_full(problem) - assemble_characteristic(problem.mesh)
    mesh = problem.mesh
    direct = mesh.h * kernel.eval(mesh.colloc[:, None], mesh.colloc[None, :])
    assert np.max(np.abs(table - direct)) <= 1e-14


@pytest.mark.parametrize(
    "problem, gesv_calls",
    [
        # The characteristic equation takes the closed-form route: no LAPACK.
        pytest.param(lambda: crack_problem(CrackParams(1.0, 1.0, 0.3, 1.0), 40), [],
                     id="crack"),
        # The screen's kernel is even: e_0 and the load.
        pytest.param(lambda: screen_problem(ScreenParams(k=1.3, a=1.0), 40), [(40, 2)],
                     id="screen"),
        # A real matrix with a complex load: b's real and imaginary parts.
        pytest.param(lambda: dataclasses.replace(
            crack_problem(CrackParams(1.0, 1.0, 0.3, 1.0), 40),
            rhs=RightHandSide(fprime=lambda x: np.exp(1j * np.asarray(x))),
        ), [], id="crack-complex-rhs"),
    ],
)
def test_toeplitz_solve_makes_one_lapack_call(problem, gesv_calls, monkeypatch):
    # A dense Toeplitz solve is one gesv for the first and last columns of
    # A^{-1}, which serve every probe of the condition estimate, and the
    # right-hand side; a symmetric matrix's last column is its first
    # reversed, and only e_0 is solved for.
    problem = problem()
    calls = count_gesv(monkeypatch)
    solution = solve_full(problem)
    assert calls == gesv_calls
    assert solution.condition > 1.0


def test_dense_screen_solve_holds_no_n_by_n_array():
    # The screen's matrix is a read-only Toeplitz view of its 2n - 1 profile,
    # checked and normed from that profile, so after a warm-up call the
    # traced peak of a solve at n = 400 stays below one real n x n array
    # (1.3 MB; a dense complex copy is 2.6 MB, |A| for the 1-norm 1.3 MB).
    # LAPACK's own copy of the matrix is not a numpy allocation.
    def solve():
        return solve_full(screen_problem(ScreenParams(1.5, 1.0), 400))

    solve()
    tracemalloc.start()
    try:
        solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 400 * np.dtype(float).itemsize


def ones_int(x, t):
    return np.ones(np.broadcast(x, t).shape, dtype=int)


def log_moments(lower, upper):
    # int ln|d| and int d ln|d| over [lower, upper], from the antiderivatives.
    def antiderivatives(d):
        log = np.log(np.abs(d))
        return d * log - d, 0.5 * d * d * log - 0.25 * d * d

    (i0, i1), (j0, j1) = antiderivatives(lower), antiderivatives(upper)
    return j0 - i0, j1 - i1


def pointwise_cell_rule(mesh, kernel):
    # Entry (i, j) of the kernel's table, the integral of K0(x_i - t) over
    # cell j, pair by pair: ``eval`` at the cell's Gauss points
    # t = x_j -+ h/(2 sqrt 3), and for a declared log_coefficient the
    # product weights of the linear interpolant of S against ln|d|.
    h = mesh.h
    x, t = mesh.colloc[:, None], mesh.colloc[None, :]
    offset = h / (2.0 * np.sqrt(3.0))
    values = kernel.eval(x, t + offset), kernel.eval(x, t - offset)
    table = 0.5 * h * (values[0] + values[1])
    if kernel.log_coefficient is not None:
        centre = x - t
        log, first = log_moments(centre - 0.5 * h, centre + 0.5 * h)
        first = first - centre * log  # int (d - centre) ln|d|
        for sign, value in zip((-1.0, 1.0), values):
            weight = 0.5 * log + sign * first / (2.0 * offset)
            weight = weight - 0.5 * h * np.log(np.abs(centre + sign * offset))
            table = table + weight * kernel.log_coefficient(value)
    return table


@pytest.mark.parametrize("kernel", [
    pytest.param(lambda: screen_problem(ScreenParams(k=1.3, a=1.0), 12).kernel,
                 id="difference"),
    pytest.param(lambda: RegularKernel(eval=ones_int), id="general-int"),
])
def test_assembled_matrices_are_writable(kernel):
    # The solve path holds views, but the public assemblers return arrays of
    # their own.  Either kernel's table is its integral over each cell: a
    # general kernel's integer table goes into a fresh float array, the
    # Gauss rule + M bit for bit; the screen's takes its logarithm's
    # product weights.
    problem = benchmark_problem(12, kernel())
    full = assemble_full(problem)
    char = assemble_characteristic(problem.mesh)
    for matrix in (full, char):
        assert matrix.flags.writeable and matrix.flags.c_contiguous
    direct = pointwise_cell_rule(problem.mesh, problem.kernel)
    if problem.kernel.profile_batch is None:
        assert np.array_equal(full, direct + char)
    assert np.max(np.abs(full - direct - char)) <= 1e-14 * np.max(np.abs(full))


def test_cell_rule_integrates_low_degree_kernels_exactly():
    # Two Gauss points integrate a cubic exactly over each cell.  With a
    # declared log_coefficient, K0 = S ln|d| + R, the product weights
    # integrate S ln|d| exactly for a linear S, and R by the Gauss points:
    # here S = 1 + d/2 and R = -i (pi/2) S, so that S = -(2/pi) Im K0 as for
    # the screen.  Against the closed-form antiderivatives on all 2n - 1
    # cells, including the one around d = 0, and for a general cubic on
    # every cell of every row.
    n = 24
    mesh = make_mesh(-1.0, 1.0, n)
    lower, upper = (np.arange(1 - n, n) + np.array([[-0.5], [0.5]])) * mesh.h

    def cubic_antiderivative(d):
        return d - d**2 + d**3 / 6 + d**4 / 16

    cubic = RegularKernel(profile_batch=lambda d: 1 - 2 * d + 0.5 * d**2 + 0.25 * d**3)
    want = cubic_antiderivative(upper) - cubic_antiderivative(lower)
    got = fullsolver._kernel_table(benchmark_problem(n, cubic))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def slope_log(d):
        d = np.asarray(d, dtype=float)
        return (1 + 0.5 * d) * (np.log(np.abs(d)) - 0.5j * np.pi)

    logarithmic = RegularKernel(profile_batch=slope_log,
                                log_coefficient=lambda v: (-2 / np.pi) * np.imag(v))
    log, first = log_moments(lower, upper)
    plain = (upper - lower) + 0.25 * (upper**2 - lower**2)
    want = log + 0.5 * first - 0.5j * np.pi * plain
    got = fullsolver._kernel_table(benchmark_problem(n, logarithmic))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def general_antiderivative(x, t):
        return t + x * t**2 / 2 - 2 * t**3 / 3 + x * t**4 / 4

    general = RegularKernel(eval=lambda x, t: 1 + x * t - 2 * t**2 + x * t**3)
    x = mesh.colloc[:, None]
    want = general_antiderivative(x, mesh.nodes[1:]) - general_antiderivative(x, mesh.nodes[:-1])
    got = fullsolver._kernel_table(benchmark_problem(n, general))
    assert got.shape == (n, n)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_even_kernel_table_is_mirrored_bit_for_bit():
    # An even kernel is evaluated on the n cells m >= 0 at their 2n Gauss
    # points and mirrored: its profile is symmetric bit for bit, and equal
    # to rounding to the same kernel evaluated on all 2n - 1 cells.
    n = 50
    mesh = make_mesh(-1.0, 1.0, n)
    kernel = screen_problem(ScreenParams(k=10.0, a=1.0), n).kernel
    batches = []
    batch = kernel.profile_batch

    def counted(d):
        batches.append(np.size(d))
        return batch(d)

    table = fullsolver._difference_table(mesh, dataclasses.replace(kernel, profile_batch=counted))
    assert np.array_equal(table, table[::-1]) and batches == [2 * n]
    full = fullsolver._difference_table(mesh, dataclasses.replace(kernel, even=False))
    assert np.max(np.abs(full - table)) <= 1e-14 * np.max(np.abs(table))


def one_point_rule(mesh, kernel):
    # The paper's table: h K0 at each cell's right node, d = (m - 1/2) h.
    n = mesh.n
    return mesh.h * kernel.profile_batch((np.arange(2 * n - 1) - (n - 1) - 0.5) * mesh.h)


@pytest.mark.parametrize("k", [2.5, 10.0, 40.0])
def test_cell_rule_cuts_the_screen_interior_error(k):
    # At the collocation points with |x| <= 1/2, relative to the oracle's
    # peak, the screen's error under the cell rule is at least 4x below the
    # one-point rule's: measured 5.2x, 7.0x and 16.5x at n = 400.  The
    # one-point system is solved by numpy.linalg.solve.
    n = 400
    problem = screen_problem(ScreenParams(k=k, a=1.0), n)
    mesh = problem.mesh
    terms = int(np.ceil(1.6 * k)) + 16
    want = solve_spectral(problem.kernel, problem.rhs, terms, 2 * terms,
                          interval=(-1.0, 1.0))(mesh.colloc)
    profile = one_point_rule(mesh, problem.kernel)
    matrix = assemble_characteristic(mesh) + profile[np.subtract.outer(range(n), range(n)) + n - 1]
    paper = np.linalg.solve(matrix, _load_values(problem.rhs.fprime, mesh.colloc, "load"))
    interior = np.abs(mesh.colloc) <= 0.5
    errors = [np.max(np.abs(values - want)[interior]) / np.max(np.abs(want))
              for values in (solve_full(problem).values, paper)]
    assert errors[1] >= 4.0 * errors[0]


def test_oversized_matrix_refused_before_assembly():
    problem = benchmark_problem(2, polynomial_kernel(3.0))
    mesh = make_mesh(-1.0, 1.0, 4097)
    for call in (
        lambda: assemble_full(FullProblem(mesh=mesh, rhs=problem.rhs, kernel=problem.kernel)),
        lambda: assemble_characteristic(mesh),
    ):
        with pytest.raises(ValueError, match="n=4097 needs a 4097 x 4097 dense array"):
            call()


# The GMRES route for a difference kernel from fullsolver._GMRES_MIN_N on.
N0 = fullsolver._GMRES_MIN_N


def replace_kept() -> None:
    """Replace the kept closed-form inverse and log weights with a 7-cell mesh's.

    No other test solves on 7 cells, so the next solve on any other mesh
    builds both afresh.
    """
    mesh = make_mesh(-1.0, 1.0, 7)
    characteristic_inverse(mesh)
    fullsolver._log_weights(mesh.n, mesh.h)


def count_lu_factor(monkeypatch) -> list:
    """Record the size of every dense ``lu_factor`` call that ``solve_full`` makes."""
    calls = []
    factor = fullsolver.lu_factor

    def counted(a, rhs=None):
        calls.append(a.shape[0])
        return factor(a, rhs)

    monkeypatch.setattr(fullsolver, "lu_factor", counted)
    return calls


def dense_route(problem: FullProblem):
    """(solution, condition) of ``lu_factor`` on the assembled matrix."""
    b = _load_values(problem.rhs.fprime, problem.mesh.colloc, "right-hand side")
    fact = lu_factor(assemble_full(problem), b)
    return fact.solution, fact.condition


def gaussian_kernel() -> RegularKernel:
    return RegularKernel(
        profile_batch=lambda d: np.exp(-np.asarray(d) ** 2 / 4) / (2 * np.sqrt(np.pi))
    )


def kinked_kernel() -> RegularKernel:
    return RegularKernel(profile_batch=lambda d: np.exp(-np.abs(np.asarray(d))) / 2)


GMRES_PROBLEMS = [
    *(
        pytest.param(lambda n=n, k=k: screen_problem(ScreenParams(k=k, a=1.0), n),
                     id=f"screen-{n}-k{k}")
        for n in sorted({N0, 400, 1000})
        for k in (0.5, 2.5, 10.0)
    ),
    pytest.param(lambda: benchmark_problem(N0, polynomial_kernel(3.0)), id="linear"),
    pytest.param(lambda: benchmark_problem(N0, gaussian_kernel()), id="gaussian"),
    pytest.param(lambda: benchmark_problem(N0, kinked_kernel()), id="kinked"),
]


@pytest.mark.parametrize("problem", GMRES_PROBLEMS)
def test_gmres_route_matches_dense_route(problem, monkeypatch):
    # Within 1e-12 of LAPACK's solution, with a condition estimate within
    # 1e-10 of the dense route's, and no dense factorization.
    problem = problem()
    want, condition = dense_route(problem)
    calls = count_gesv(monkeypatch)
    got = solve_full(problem)
    assert calls == []
    assert got.values.dtype == want.dtype
    assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))
    assert got.condition == pytest.approx(condition, rel=1e-10)


def test_gmres_route_keeps_real_arithmetic_and_bits():
    # A real problem returns float64.  A complex load is two real solves,
    # one probe product each: its real and imaginary parts keep the bits of
    # the real solves, and a real-valued complex load is the real solve bit
    # for bit.
    mesh = make_mesh(-1.0, 1.0, N0)
    kernel = polynomial_kernel(3.0)

    def solve_with(load):
        return solve_full(FullProblem(mesh=mesh, rhs=RightHandSide(fprime=load), kernel=kernel))

    re = solve_with(lambda x: np.cos(3.0 * x))
    im = solve_with(lambda x: x**2 - 0.5)
    assert re.values.dtype == im.values.dtype == np.float64
    mixed = solve_with(lambda x: np.cos(3.0 * x) + 1j * (x**2 - 0.5))
    assert np.array_equal(mixed.values.real, re.values)
    assert np.array_equal(mixed.values.imag, im.values)
    real_valued = solve_with(lambda x: np.cos(3.0 * x) + 0j)
    assert np.array_equal(real_valued.values.real, re.values)
    assert np.all(real_valued.values.imag == 0.0)
    assert mixed.condition == real_valued.condition == re.condition


def test_gmres_route_rerun_is_bit_identical():
    problem = screen_problem(ScreenParams(k=2.5, a=1.0), N0)
    first, second = solve_full(problem), solve_full(problem)
    assert np.array_equal(first.values, second.values)
    assert first.condition == second.condition


def test_gmres_cap_falls_back_to_dense_route_bit_for_bit(monkeypatch, caplog):
    problem = screen_problem(ScreenParams(k=2.5, a=1.0), N0)
    monkeypatch.setattr(fullsolver, "_GMRES_MIN_N", N0 + 1)
    dense = solve_full(problem)
    monkeypatch.setattr(fullsolver, "_GMRES_MIN_N", N0)
    monkeypatch.setattr(fullsolver, "_GMRES_MAX_ITER", 1)
    calls = count_gesv(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="hypersing.fullsolver"):
        capped = solve_full(problem)
    assert calls == [(N0, 2)]  # the dense source: e_0 and b in one gesv
    assert np.array_equal(capped.values, dense.values)
    assert capped.condition == dense.condition
    messages = [record.getMessage() for record in caplog.records]
    assert messages == [f"GMRES route at n={N0} gave no answer", f"dense route at n={N0}"]


def test_gmres_route_refuses_bad_load_and_kernel():
    mesh = make_mesh(-1.0, 1.0, N0)
    nan_load = RightHandSide(fprime=lambda x: np.where(np.abs(x) < 0.01, np.nan, 1.0))
    with pytest.raises(ValueError, match="right-hand side is nonfinite"):
        solve_full(FullProblem(mesh=mesh, rhs=nan_load, kernel=polynomial_kernel(3.0)))

    def raising(d):
        d = np.atleast_1d(d)
        if np.any(np.abs(d) < 0.01):
            raise ValueError("too close")
        return d

    for kernel, match in (
        (RegularKernel(profile_batch=raising), "too close"),
        (RegularKernel(profile_batch=lambda d: np.where(np.abs(d) < 0.01, np.nan, d)),
         "nonfinite"),
    ):
        with pytest.raises(KernelEvaluationError, match=match) as info:
            solve_full(benchmark_problem(N0, kernel))
        assert abs(info.value.x - info.value.t) < 0.01


@pytest.mark.parametrize("problem, runs", [
    pytest.param(lambda: screen_problem(ScreenParams(k=2.5, a=1.0), N0), 1, id="screen"),
    pytest.param(lambda: benchmark_problem(N0, polynomial_kernel(3.0)), 2, id="real"),
    pytest.param(lambda: dataclasses.replace(
        benchmark_problem(N0, polynomial_kernel(3.0)),
        rhs=RightHandSide(fprime=lambda x: np.exp(1j * np.asarray(x))),
    ), 2, id="real-complex-load"),
])
def test_gmres_runs_only_the_two_generator_rows(problem, runs, monkeypatch):
    # GMRES solves only for the generators x = A^{-1} e_0 and
    # y = A^{-1} e_{n-1}, one (n,) row a call: the even screen kernel's
    # symmetric A has y = J x and takes one call, the linear kernel two.
    # The load comes from the Gohberg-Semencul probe of x and y, within
    # 1e-12 of LAPACK.
    problem = problem()
    want, _ = dense_route(problem)
    rows = []
    gmres = fullsolver._gmres

    def counted(operator, rhs):
        rows.append(rhs.shape)
        return gmres(operator, rhs)

    monkeypatch.setattr(fullsolver, "_gmres", counted)
    calls = count_gesv(monkeypatch)
    got = solve_full(problem)
    assert rows == [(N0,)] * runs and calls == []
    assert got.values.dtype == want.dtype
    assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [80, N0])
def test_one_row_route_matches_two_row_route(n, monkeypatch):
    # The screen kernel declared even solves for x alone and takes y = J x;
    # declared not even, the same kernel solves for x and y: on the dense
    # source (n = 80) and on GMRES (n = N0) the answers agree to 1e-13.
    problem = screen_problem(ScreenParams(k=10.0, a=1.0), n)
    runs = capture_operator(monkeypatch)
    one = solve_full(problem)
    two = solve_full(dataclasses.replace(
        problem, kernel=dataclasses.replace(problem.kernel, even=False)))
    assert len(runs) == (3 if n >= N0 else 0)
    assert np.max(np.abs(one.values - two.values)) <= 1e-13 * np.max(np.abs(two.values))
    assert one.condition == pytest.approx(two.condition, rel=1e-12)


def test_load_failing_backward_error_falls_back_bit_for_bit(monkeypatch, caplog):
    # A load whose backward error exceeds _GMRES_TOL, here from a probe that
    # perturbs its output by 1e-10, is solved by the dense route instead.
    # The dense source builds the probes from its own x and y; only the
    # first ``_gohberg_semencul`` call, the GMRES one, is perturbed.
    problem = screen_problem(ScreenParams(k=2.5, a=1.0), N0)
    monkeypatch.setattr(fullsolver, "_GMRES_MIN_N", N0 + 1)
    dense = solve_full(problem)
    monkeypatch.setattr(fullsolver, "_GMRES_MIN_N", N0)
    builder = fullsolver._gohberg_semencul
    built = []

    def perturbed(x, y):
        inverse, inverse_adjoint = builder(x, y)
        built.append(len(built))
        if len(built) > 1:
            return inverse, inverse_adjoint
        return (lambda r: inverse(r) * (1.0 + 1e-10)), inverse_adjoint

    monkeypatch.setattr(fullsolver, "_gohberg_semencul", perturbed)
    calls = count_gesv(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="hypersing.fullsolver"):
        fallen = solve_full(problem)
    assert calls == [(N0, 2)] and len(built) == 2
    assert np.array_equal(fallen.values, dense.values)
    assert fallen.condition == dense.condition
    messages = [record.getMessage() for record in caplog.records]
    assert messages == [f"GMRES route at n={N0} gave no answer", f"dense route at n={N0}"]


def test_ill_conditioned_solve_logs_one_warning(caplog):
    # The linear kernel A (x - t) at A = 1e13 on 100 cells is solved, with
    # one WARNING naming the estimate, 2.222e12, past the 1e12 threshold.
    with caplog.at_level(logging.WARNING, logger="hypersing.fullsolver"):
        solution = solve_full(benchmark_problem(100, polynomial_kernel(1e13)))
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    assert record.getMessage() == (
        f"collocation matrix is ill conditioned: estimate {solution.condition:.3e}")
    assert solution.condition == pytest.approx(2.222e12, rel=1e-3)


def test_gmres_estimate_reading_singular_falls_back_to_dense(monkeypatch, caplog):
    # At A = 5e13 the linear kernel's GMRES runs converge, and a zero load
    # passes the backward-error gate, but the condition estimate from the
    # GMRES end columns reads singular: the solve gives no answer there,
    # and the dense source's own estimate refuses the matrix.  (The load
    # -pi fails the gate first, with a backward error of 1.2e-3.)
    refusals = []
    checked = fullsolver._checked_condition

    def recorded(*args, **kwargs):
        try:
            return checked(*args, **kwargs)
        except SingularMatrixError:
            refusals.append(len(caplog.records))
            raise

    monkeypatch.setattr(fullsolver, "_checked_condition", recorded)
    problem = dataclasses.replace(
        benchmark_problem(N0, polynomial_kernel(5e13)), rhs=RightHandSide(fprime=lambda x: 0.0)
    )
    with caplog.at_level(logging.DEBUG, logger="hypersing.fullsolver"):
        with pytest.raises(SingularMatrixError):
            solve_full(problem)
    messages = [record.getMessage() for record in caplog.records]
    assert messages == [f"GMRES route at n={N0} gave no answer", f"dense route at n={N0}"]
    assert refusals == [0, 2]  # the GMRES source's, then the dense source's


@pytest.mark.parametrize("n", [80, N0])
def test_toeplitz_condition_holds_at_tiny_scales(n, caplog):
    # On a screen of half-width 1e-200 the matrix entries are near 1e200
    # and those of A^{-1} near 1e-200, so the products of the end columns'
    # entries and the norm of a GMRES start would underflow without their
    # power-of-two scaling: the estimate would read 1, and GMRES give no
    # answer.  The condition is that of half-width 1e-100 to 1e-12.
    conditions = []
    for a in (1e-100, 1e-200):
        with caplog.at_level(logging.DEBUG, logger="hypersing.fullsolver"):
            conditions.append(solve_full(screen_problem(ScreenParams(k=1.5, a=a), n)).condition)
    assert conditions[1] == pytest.approx(conditions[0], rel=1e-12)
    assert conditions[0] > 50.0
    assert not any("gave no answer" in record.getMessage() for record in caplog.records)


def test_huge_linear_kernel_is_refused_as_singular():
    # A (x - t) at A = 1e200 swamps the characteristic part: the estimate
    # from the scaled end columns reads singular, where unscaled products
    # underflowed to a condition of 1.
    with pytest.raises(SingularMatrixError):
        solve_full(benchmark_problem(100, polynomial_kernel(1e200)))


def test_gmres_route_solves_zero_load_by_zero(monkeypatch):
    # ||b||_1 = ||g||_1 = 0 reads as backward error 0, not 0/0.
    problem = dataclasses.replace(
        benchmark_problem(N0, polynomial_kernel(3.0)), rhs=RightHandSide(fprime=lambda x: 0.0)
    )
    calls = count_gesv(monkeypatch)
    solution = solve_full(problem)
    assert calls == []
    assert not np.any(solution.values)


def capture_operator(monkeypatch) -> list:
    """Record the (operator, rhs) of every ``_gmres`` call that ``solve_full`` makes."""
    runs = []
    gmres = fullsolver._gmres

    def captured(operator, rhs):
        runs.append((operator, rhs))
        return gmres(operator, rhs)

    monkeypatch.setattr(fullsolver, "_gmres", captured)
    return runs


@pytest.mark.parametrize("problem, bits", [
    pytest.param(lambda: benchmark_problem(N0, polynomial_kernel(3.0)), True, id="linear"),
    *(pytest.param(lambda k=k: screen_problem(ScreenParams(k=k, a=1.0), N0), False,
                   id=f"screen-k{k}") for k in (0.5, 2.5, 10.0)),
])
def test_operator_is_identity_plus_preconditioned_table(problem, bits, monkeypatch):
    # Row by row, the operator is v + M^{-1} T v with M^{-1} from ``apply``
    # and T v one FFT product with the kernel profile: bit for bit on a
    # real table, which keeps ``apply``'s real transforms, and within
    # 1e-14 on the screen's complex one, which takes complex transforms.
    problem = problem()
    runs = capture_operator(monkeypatch)
    solve_full(problem)
    operator, rhs = runs[0]
    n = problem.mesh.n
    table = fullsolver._kernel_table(problem)
    fft, ifft = (np.fft.fft, np.fft.ifft) if np.iscomplexobj(table) else (np.fft.rfft, np.fft.irfft)
    length = fullsolver._fft_length(n)
    rng = np.random.default_rng(n)
    v = rng.standard_normal((2, n)).astype(rhs.dtype)
    if not bits:
        v = v + 1j * rng.standard_normal((2, n))
    tv = ifft(fft(table, length) * fft(v, length), length)[:, n - 1 : 2 * n - 1]
    want = v + characteristic_inverse(problem.mesh).apply(tv.T).T
    got = operator(v)
    assert got.dtype == want.dtype == rhs.dtype
    if bits:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("problem, transforms", [
    pytest.param(lambda: screen_problem(ScreenParams(k=2.5, a=1.0), N0), {"fft", "ifft"},
                 id="screen"),
    pytest.param(lambda: benchmark_problem(N0, polynomial_kernel(3.0)), {"rfft", "irfft"},
                 id="linear"),
])
def test_krylov_step_costs_four_transforms_and_no_apply(problem, transforms, monkeypatch):
    # Each Krylov step makes at most four FFT calls (complex for the
    # screen, real for a real table) and no ``CharacteristicInverse.apply``
    # call; GMRES starts from M^{-1} e_0 and M^{-1} e_{n-1} in closed form,
    # with no transform between its runs; and one stacked probe solves the
    # load together with Hager's first sweep, whose later sweeps probe one
    # vector each.  Before GMRES a solve with no inverse kept transforms
    # the kernel and then the Cauchy values, and one that reuses the kept
    # inverse the kernel alone.
    problem = problem()
    replace_kept()
    n = problem.mesh.n
    kernel_transform = "fft" if "fft" in transforms else "rfft"
    transformed = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            transformed.append(_name)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    applied = []
    apply = CharacteristicInverse.apply

    def counted_apply(self, r):
        applied.append(np.shape(r))
        return apply(self, r)

    monkeypatch.setattr(CharacteristicInverse, "apply", counted_apply)
    steps, before_gmres = [], []
    gmres = fullsolver._gmres

    def counted_gmres(operator, rhs):
        def step(v):
            before = len(transformed)
            out = operator(v)
            steps.append(transformed[before:])
            return out

        if not steps:
            before_gmres[:] = transformed
        start = len(before_gmres)
        solved = gmres(step, rhs)
        assert transformed[start:] == [name for calls in steps for name in calls]
        return solved

    monkeypatch.setattr(fullsolver, "_gmres", counted_gmres)
    probed = []
    builder = fullsolver._gohberg_semencul

    def counted_builder(x, y):
        inverse, inverse_adjoint = builder(x, y)

        def probe(r):
            probed.append(np.array(r))
            return inverse(r)

        return probe, inverse_adjoint

    monkeypatch.setattr(fullsolver, "_gohberg_semencul", counted_builder)
    for spectra in ([kernel_transform, "rfft"], [kernel_transform]):
        for record in (transformed, steps, probed):
            record.clear()
        solve_full(problem)
        assert before_gmres == spectra
        assert applied == []
        assert steps and all(len(calls) <= 4 and set(calls) == transforms for calls in steps)
        first, *later = probed
        assert first.shape == (2, n) and np.all(first[-1] == 1.0 / n)
        assert all(r.shape == (n,) for r in later)


@pytest.mark.parametrize("n", [80, N0 - 1])
def test_screen_below_threshold_stays_on_one_dense_factorization(n, monkeypatch):
    # One gesv call for e_0 and the load, and no lu_factor call.
    factored = count_lu_factor(monkeypatch)
    calls = count_gesv(monkeypatch)
    solve_full(screen_problem(ScreenParams(k=1.5, a=1.0), n))
    assert calls == [(n, 2)] and factored == []


def test_zero_corner_of_the_inverse_goes_to_lu_factor(monkeypatch):
    # At n = 2 on (-1, 1), h = 1 and the singular profile is (4/3, -4, 4/3):
    # this kernel, constant on each cell, makes the table (-1/3, 4, -1/3)
    # and the collocation matrix the swap [[0, 1], [1, 0]],
    # whose inverse has (A^{-1})_00 = 0, where the Gohberg-Semencul formula
    # does not hold.  After the dense source's one gesv call, the view goes
    # through the general lu_factor, which returns the swapped load.
    kernel = RegularKernel(profile_batch=lambda d: np.where(np.abs(d) < 0.5, 4.0, -1 / 3))
    problem = FullProblem(make_mesh(-1.0, 1.0, 2), RightHandSide(fprime=lambda x: 2.5 + x),
                          kernel)
    assert np.array_equal(assemble_full(problem), [[0.0, 1.0], [1.0, 0.0]])
    factored = count_lu_factor(monkeypatch)
    calls = count_gesv(monkeypatch)
    solution = solve_full(problem)
    assert factored == [2] and calls[0] == (2, 3)
    assert set(calls[1:]) == {(2,)}  # lu_factor's own probes and solve
    assert np.array_equal(solution.values, [3.0, 2.0])
    assert solution.condition == 1.0


def test_gmres_route_logs_iterations_and_residual(caplog):
    problem = screen_problem(ScreenParams(k=2.5, a=1.0), N0)
    quiet = solve_full(problem)
    with caplog.at_level(logging.DEBUG, logger="hypersing.fullsolver"):
        logged = solve_full(problem)
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    n, iterations, residual, backward = record.args
    assert record.getMessage().startswith(f"GMRES route at n={N0}: {iterations} iterations")
    assert n == N0 and 0 < iterations <= fullsolver._GMRES_MAX_ITER
    assert residual <= fullsolver._GMRES_TOL
    assert 0.0 <= backward <= fullsolver._GMRES_TOL
    assert np.array_equal(logged.values, quiet.values)
    assert logged.condition == quiet.condition


@pytest.mark.parametrize("problem", [
    pytest.param(lambda: screen_problem(ScreenParams(k=2.5, a=1.0), 400), id="screen-gmres"),
    pytest.param(lambda: screen_problem(ScreenParams(k=2.5, a=1.0), 80), id="screen-dense"),
    pytest.param(lambda: benchmark_problem(400, polynomial_kernel(3.0)), id="linear-gmres"),
])
def test_plan_reuse_leaves_no_trace_in_the_results(problem):
    # A solve with nothing kept, one that reuses the kept closed-form
    # inverse and log weights, and one after a closed-form solve on another
    # mesh has replaced them give the same values and condition bit for
    # bit.  Repeated calls on one mesh return the same inverse, every kept
    # array is read-only, and the replaced inverse is freed by that one
    # other solve.
    problem = problem()
    mesh = problem.mesh
    replace_kept()
    cold = solve_full(problem)
    inverse = characteristic_inverse(mesh)
    warm = solve_full(problem)
    assert characteristic_inverse(mesh) is inverse
    for array in (fullsolver._log_weights(mesh.n, mesh.h), inverse.left, inverse.right,
                  inverse.spectrum, inverse._complex_spectrum, inverse._end_columns):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    replaced = weakref.ref(inverse)
    del inverse
    solve_characteristic(make_mesh(-1.0, 1.0, mesh.n + 1), const_pi_rhs())
    assert replaced() is None
    evicted = solve_full(problem)
    for run in (warm, evicted):
        assert run.values.tobytes() == cold.values.tobytes()
        assert run.condition == cold.condition


def test_plan_cache_holds_under_threads():
    # Threads that look up inverses and solve on two meshes at once, each
    # replacing the other's kept inverse, get the inverse of the mesh they
    # ask for and the bits of a lone solve, and one GMRES solve on a third
    # mesh afterwards frees every inverse they got.
    problems = [screen_problem(ScreenParams(k=2.5, a=1.0), n) for n in (N0, N0 + 1)]
    want = [solve_full(problem).values.tobytes() for problem in problems]
    same, failures, kept = [], [], []

    def work(start):
        try:
            for i in range(1000):
                mesh = problems[(start + i) % 2].mesh
                inverse = characteristic_inverse(mesh)
                assert (len(inverse.left), inverse.h) == (mesh.n, mesh.h)
                kept.append(weakref.ref(inverse))
            for i in range(6):
                j = (start + i) % 2
                same.append(solve_full(problems[j]).values.tobytes() == want[j])
        except Exception as exc:  # reported by the main thread below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [] and len(same) == 24 and all(same)
    solve_full(screen_problem(ScreenParams(k=2.5, a=1.0), N0 + 2))
    assert len(kept) == 4000 and all(inverse() is None for inverse in kept)


def test_gmres_rows_step_alone_and_stop_at_the_cap(monkeypatch):
    # A diagonal operator with n distinct eigenvalues needs n steps for a
    # full row, one step for an eigenvector row, and none for a zero row,
    # which is solved by 0 with no 0/0; a run that needs more steps than
    # the cap gives no answer.
    diagonal = np.arange(1.0, 9.0)
    full, eigenvector = np.ones(8), np.zeros(8)
    eigenvector[3] = 2.0

    def operator(v):
        assert v.shape == (8,)
        return diagonal * v

    solution, iterations, residual = fullsolver._gmres(operator, full)
    assert iterations == 8 and residual <= fullsolver._GMRES_TOL
    assert np.max(np.abs(solution - 1.0 / diagonal)) <= 1e-14
    solution, iterations, _ = fullsolver._gmres(operator, eigenvector)
    assert iterations == 1 and solution[3] == 0.5 and np.count_nonzero(solution) == 1
    solution, iterations, residual = fullsolver._gmres(operator, np.zeros(8))
    assert np.array_equal(solution, np.zeros(8)) and iterations == 0 and residual == 0.0
    monkeypatch.setattr(fullsolver, "_GMRES_MAX_ITER", 7)
    assert fullsolver._gmres(operator, full) is None
    # An operator that sends the first Krylov vector to 0 leaves a
    # singular Hessenberg matrix, and no answer.
    assert fullsolver._gmres(lambda v: np.array([v[0], 0.0]), np.array([0.0, 1.0])) is None

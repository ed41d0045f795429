import dataclasses

import numpy as np
import pytest

from hypersing import (
    CrackParams,
    FullProblem,
    KernelEvaluationError,
    RegularKernel,
    RightHandSide,
    ScreenParams,
    assemble_characteristic,
    assemble_full,
    crack_problem,
    fredholm_residual,
    full_example_exact,
    make_mesh,
    polynomial_kernel,
    screen_problem,
    solve_characteristic,
    solve_full,
    solve_spectral,
    zero_kernel,
)
from hypersing.quadrature import gauss_chebyshev2
from tests.conftest import const_pi_rhs, count_gesv, unit_semicircle


def benchmark_problem(n: int, kernel) -> FullProblem:
    return FullProblem(mesh=make_mesh(-1.0, 1.0, n), rhs=const_pi_rhs(), kernel=kernel)


def assert_spectral_reports_pair(kernel, calls: list, match=None) -> None:
    # The spectral oracle's mquad x (mquad + 1) table goes through the same
    # check: a pair on its two grids, located in at most 2 mquad + 2 calls.
    calls.clear()
    with pytest.raises(KernelEvaluationError, match=match) as info:
        solve_spectral(kernel, const_pi_rhs(), 8, 32)
    assert info.value.x in gauss_chebyshev2(32)[0]
    assert info.value.t in gauss_chebyshev2(33)[0]
    assert abs(info.value.x - info.value.t) < 0.1
    assert len(calls) <= 2 * 32 + 2


def test_zero_kernel_matrix_is_bitwise_characteristic():
    problem = benchmark_problem(24, zero_kernel())
    full = assemble_full(problem)
    char = assemble_characteristic(problem.mesh)
    assert full.dtype == char.dtype == np.float64
    assert np.array_equal(full, char)


def test_zero_kernel_solution_matches_characteristic(semicircle_rhs):
    problem = benchmark_problem(24, zero_kernel())
    full = solve_full(problem)
    char = solve_characteristic(problem.mesh, semicircle_rhs)
    assert np.array_equal(full.values, char.values)


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
    # the failure must be located among the 2n - 1 differences, without
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
    assert not eval_calls


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


def test_kernel_raising_is_wrapped():
    calls = []

    def angry_eval(x, t):
        calls.append(1)
        raise RuntimeError("no table today")

    kernel = RegularKernel(eval=angry_eval)
    with pytest.raises(KernelEvaluationError, match="no table today"):
        assemble_full(benchmark_problem(4, kernel))
    assert_spectral_reports_pair(kernel, calls, match="no table today")


def test_difference_table_matches_direct_evaluation():
    # The 2n-1 entry convolution shortcut must agree with pointwise eval.
    kernel = polynomial_kernel(2.5)
    problem = benchmark_problem(15, kernel)
    table = assemble_full(problem) - assemble_characteristic(problem.mesh)
    mesh = problem.mesh
    direct = mesh.h * kernel.eval(mesh.colloc[:, None], mesh.nodes[None, 1:])
    assert np.max(np.abs(table - direct)) <= 1e-14


@pytest.mark.parametrize(
    "problem, columns",
    [
        pytest.param(lambda: crack_problem(CrackParams(1.0, 1.0, 0.3, 1.0), 40), 3,
                     id="crack"),
        pytest.param(lambda: screen_problem(ScreenParams(k=1.3, a=1.0), 40), 3, id="screen"),
        # A real matrix with a complex load: b's real and imaginary parts.
        pytest.param(lambda: dataclasses.replace(
            crack_problem(CrackParams(1.0, 1.0, 0.3, 1.0), 40),
            rhs=RightHandSide(fprime=lambda x: np.exp(1j * np.asarray(x))),
        ), 4, id="crack-complex-rhs"),
    ],
)
def test_toeplitz_solve_makes_one_lapack_call(problem, columns, monkeypatch):
    # One gesv for the first and last columns of A^{-1}, which serve every
    # probe of the condition estimate, and the right-hand side.
    problem = problem()
    calls = count_gesv(monkeypatch)
    solution = solve_full(problem)
    assert calls == [(40, columns)]
    assert solution.condition > 1.0


def test_oversized_matrix_refused_before_assembly():
    problem = benchmark_problem(2, polynomial_kernel(3.0))
    mesh = make_mesh(-1.0, 1.0, 4097)
    for call in (
        lambda: assemble_full(FullProblem(mesh=mesh, rhs=problem.rhs, kernel=problem.kernel)),
        lambda: assemble_characteristic(mesh),
    ):
        with pytest.raises(ValueError, match="n=4097 needs a 4097 x 4097 dense array"):
            call()

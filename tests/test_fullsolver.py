import dataclasses
import logging
import tracemalloc

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
    "problem, gesv_calls",
    [
        # The characteristic equation takes the closed-form route: no LAPACK.
        pytest.param(lambda: crack_problem(CrackParams(1.0, 1.0, 0.3, 1.0), 40), [],
                     id="crack"),
        pytest.param(lambda: screen_problem(ScreenParams(k=1.3, a=1.0), 40), [(40, 3)],
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
    # right-hand side.
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


@pytest.mark.parametrize("kernel", [
    pytest.param(lambda: screen_problem(ScreenParams(k=1.3, a=1.0), 12).kernel,
                 id="difference"),
    pytest.param(lambda: RegularKernel(eval=ones_int), id="general-int"),
])
def test_assembled_matrices_are_writable(kernel):
    # The solve path holds views, but the public assemblers return arrays of
    # their own.  A general kernel's integer table is scaled into a fresh
    # array, h * table + M bit for bit.
    problem = benchmark_problem(12, kernel())
    full = assemble_full(problem)
    char = assemble_characteristic(problem.mesh)
    for matrix in (full, char):
        assert matrix.flags.writeable and matrix.flags.c_contiguous
    direct = problem.mesh.h * problem.kernel.eval(
        problem.mesh.colloc[:, None], problem.mesh.nodes[None, 1:]
    )
    if problem.kernel.profile_batch is None:
        assert np.array_equal(full, direct + char)
    assert np.max(np.abs(full - direct - char)) <= 1e-14 * np.max(np.abs(full))


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
    calls = count_lu_factor(monkeypatch)
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
    calls = count_lu_factor(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="hypersing.fullsolver"):
        capped = solve_full(problem)
    assert calls == [N0]
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


@pytest.mark.parametrize("problem", [
    pytest.param(lambda: screen_problem(ScreenParams(k=2.5, a=1.0), N0), id="screen"),
    pytest.param(lambda: benchmark_problem(N0, polynomial_kernel(3.0)), id="real"),
    pytest.param(lambda: dataclasses.replace(
        benchmark_problem(N0, polynomial_kernel(3.0)),
        rhs=RightHandSide(fprime=lambda x: np.exp(1j * np.asarray(x))),
    ), id="real-complex-load"),
])
def test_gmres_runs_only_the_two_generator_rows(problem, monkeypatch):
    # GMRES solves for e_0 and e_{n-1} alone; the load comes from the
    # Gohberg-Semencul probe of their solutions, within 1e-12 of LAPACK.
    problem = problem()
    want, _ = dense_route(problem)
    rows = []
    gmres = fullsolver._gmres

    def counted(operator, rhs):
        rows.append(rhs.shape[0])
        return gmres(operator, rhs)

    monkeypatch.setattr(fullsolver, "_gmres", counted)
    calls = count_lu_factor(monkeypatch)
    got = solve_full(problem)
    assert rows == [2] and calls == []
    assert got.values.dtype == want.dtype
    assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))


def test_load_failing_backward_error_falls_back_bit_for_bit(monkeypatch, caplog):
    # A load whose backward error exceeds _GMRES_TOL, here from a probe that
    # perturbs its output by 1e-10, is solved by the dense route instead.
    problem = screen_problem(ScreenParams(k=2.5, a=1.0), N0)
    monkeypatch.setattr(fullsolver, "_GMRES_MIN_N", N0 + 1)
    dense = solve_full(problem)
    monkeypatch.setattr(fullsolver, "_GMRES_MIN_N", N0)
    builder = fullsolver._gohberg_semencul

    def perturbed(x, y):
        inverse, inverse_adjoint = builder(x, y)
        return (lambda r: inverse(r) * (1.0 + 1e-10)), inverse_adjoint

    monkeypatch.setattr(fullsolver, "_gohberg_semencul", perturbed)
    calls = count_lu_factor(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="hypersing.fullsolver"):
        fallen = solve_full(problem)
    assert calls == [N0]
    assert np.array_equal(fallen.values, dense.values)
    assert fallen.condition == dense.condition
    messages = [record.getMessage() for record in caplog.records]
    assert messages == [f"GMRES route at n={N0} gave no answer", f"dense route at n={N0}"]


def test_gmres_route_solves_zero_load_by_zero(monkeypatch):
    # ||b||_1 = ||g||_1 = 0 reads as backward error 0, not 0/0.
    problem = dataclasses.replace(
        benchmark_problem(N0, polynomial_kernel(3.0)), rhs=RightHandSide(fprime=lambda x: 0.0)
    )
    calls = count_lu_factor(monkeypatch)
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
    ((operator, rhs),) = runs
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
    # call; GMRES starts from M^{-1} e_0 and M^{-1} e_{n-1} in closed form;
    # and one stacked probe solves the load together with Hager's first
    # sweep, whose later sweeps probe one vector each.
    problem = problem()
    n = problem.mesh.n
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
    before, steps = [], []
    gmres = fullsolver._gmres

    def counted_gmres(operator, rhs):
        def step(v):
            before = len(transformed)
            out = operator(v)
            steps.append(transformed[before:])
            return out

        before.extend(transformed)
        solved = gmres(step, rhs)
        assert transformed[len(before):] == [name for calls in steps for name in calls]
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
    solve_full(problem)
    # Before GMRES only the Cauchy and the kernel spectra are transformed:
    # the start columns take none.
    assert len(before) == 2 and applied == []
    assert steps and all(len(calls) <= 4 and set(calls) == transforms for calls in steps)
    first, *later = probed
    assert first.shape == (2, n) and np.all(first[-1] == 1.0 / n)
    assert all(r.shape == (n,) for r in later)


@pytest.mark.parametrize("n", [80, N0 - 1])
def test_screen_below_threshold_stays_on_one_dense_factorization(n, monkeypatch):
    calls = count_lu_factor(monkeypatch)
    solve_full(screen_problem(ScreenParams(k=1.5, a=1.0), n))
    assert calls == [n]


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


def test_gmres_rows_step_alone_and_stop_at_the_cap(monkeypatch):
    # A diagonal operator with n distinct eigenvalues needs n steps for a
    # full row, one step for an eigenvector row, and none for a zero row,
    # which is solved by 0 with no 0/0; a run that needs more steps than
    # the cap gives no answer.
    diagonal = np.arange(1.0, 9.0)
    rhs = np.zeros((3, 8))
    rhs[0] = 1.0
    rhs[2, 3] = 2.0
    solutions, iterations, residual = fullsolver._gmres(lambda v: diagonal * v, rhs)
    assert iterations == 8 and residual <= fullsolver._GMRES_TOL
    assert np.max(np.abs(solutions[0] - 1.0 / diagonal)) <= 1e-14
    assert np.array_equal(solutions[1], np.zeros(8))
    assert solutions[2, 3] == 0.5 and np.count_nonzero(solutions[2]) == 1
    monkeypatch.setattr(fullsolver, "_GMRES_MAX_ITER", 7)
    assert fullsolver._gmres(lambda v: diagonal * v, rhs) is None

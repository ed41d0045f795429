import dataclasses

import mpmath
import numpy as np
import pytest

from hypersing import (
    ChebyshevSolution,
    KernelEvaluationError,
    RegularKernel,
    RightHandSide,
    ScreenParams,
    SingularMatrixError,
    chebyshev_U,
    full_example_exact,
    invert_characteristic,
    kernel_from_symbol,
    polynomial_kernel,
    screen_problem,
    solve_spectral,
    zero_kernel,
)
from hypersing import linalg, spectral
from hypersing.quadrature import gauss_chebyshev1, gauss_chebyshev2
from tests.conftest import const_pi_rhs, gaussian_symbol, unit_semicircle


def test_second_kind_polynomial_values():
    assert chebyshev_U(2, 0.3) == pytest.approx(-0.64, rel=1e-14)
    for j in range(7):
        assert chebyshev_U(j, 1.0) == pytest.approx(j + 1.0, rel=1e-13)


def test_second_kind_polynomial_matches_fifty_digits():
    # sin((j + 1) theta) / sin(theta) at theta = arccos|x|, against
    # mpmath.chebyu for j <= 200 on a grid with both ends and points within
    # 1e-15 of them, where sin(arccos(-1)) would not round to 0.
    ends = [-1.0, 1.0, -1.0 + 1e-15, 1.0 - 1e-15, np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0)]
    x = np.concatenate((ends, [-1.0 + 1e-8, 1.0 - 1e-8, -0.0], np.linspace(-1.0, 1.0, 41)))
    with mpmath.workdps(50):
        for j in range(201):
            want = [float(mpmath.chebyu(j, mpmath.mpf(float(p)), zeroprec=400)) for p in x]
            assert np.max(np.abs(chebyshev_U(j, x) - want)) <= 1e-13 * (j + 1)
    assert chebyshev_U(10, -1.0) == 11.0 and chebyshev_U(3, -1.0) == -4.0


def test_second_kind_polynomial_at_any_degree_needs_no_table():
    # No (j + 1)-row recurrence table: j = 10^9 costs what j = 2 does, the
    # ends are exact, and U_j(1/2) = sin((j + 1) pi/3) / sin(pi/3) = -1 for
    # j + 1 = 5 mod 6.
    for j in (10**9, 10**9 + 1):
        assert chebyshev_U(j, np.array([1.0]))[0] == j + 1
        assert chebyshev_U(j, -1.0) == (-1) ** j * (j + 1)
    assert abs(chebyshev_U(10**9, 0.5) + 1.0) <= 1e-13 * (10**9 + 1)


def test_second_kind_polynomial_domain_and_degree():
    for outside in (1.5, np.nan):
        with pytest.raises(ValueError, match=r"\|x\|"):
            chebyshev_U(3, outside)
    with pytest.raises(ValueError, match="nonnegative"):
        chebyshev_U(-1, 0.5)


def test_orthogonality_under_semicircle_weight():
    x, w = gauss_chebyshev2(64)
    for i in range(9):
        for j in range(9):
            inner = np.sum(w * chebyshev_U(i, x) * chebyshev_U(j, x))
            want = np.pi / 2.0 if i == j else 0.0
            assert abs(inner - want) <= 1e-10


def test_characteristic_solution_is_single_mode(semicircle_rhs):
    solution = solve_spectral(zero_kernel(), semicircle_rhs, 8, 32)
    assert solution.coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(solution.coeffs[1:])) <= 1e-10
    xs = np.linspace(-1.0, 1.0, 21)
    assert np.max(np.abs(solution(xs) - unit_semicircle(xs))) <= 1e-10


def test_zero_kernel_object_equals_no_kernel(semicircle_rhs):
    with_obj = solve_spectral(zero_kernel(), semicircle_rhs, 6, 16)
    without = solve_spectral(None, semicircle_rhs, 6, 16)
    assert np.array_equal(with_obj.coeffs, without.coeffs)


def test_linear_kernel_benchmark_to_spectral_accuracy(semicircle_rhs):
    solution = solve_spectral(polynomial_kernel(3.0), semicircle_rhs, 8, 32)
    xs = np.linspace(-0.95, 0.95, 11)
    assert np.max(np.abs(solution(xs) - full_example_exact(3.0, xs))) <= 1e-6
    # the exact solution has two modes: 32/41 and 12/41
    assert solution.coeffs[0] == pytest.approx(32.0 / 41.0, abs=1e-12)
    assert solution.coeffs[1] == pytest.approx(12.0 / 41.0, abs=1e-12)


def test_truncation_tail_is_negligible_for_two_mode_solution(semicircle_rhs):
    # The benchmark solution is exactly two modes, so every kept trailing
    # coefficient sits at the quadrature noise floor.
    for n_terms in (4, 8, 16):
        solution = solve_spectral(polynomial_kernel(3.0), semicircle_rhs, n_terms, 40)
        assert abs(solution.coeffs[-1]) <= 1e-12


def test_truncation_tail_decays_for_generic_data():
    # A right-hand side with a pole near the interval produces genuinely
    # decaying coefficients.
    rhs = RightHandSide(
        fprime=lambda x: -np.pi / (1.0 + 0.9 * np.asarray(x, dtype=float))
    )
    tails = []
    for n_terms in (4, 8, 16):
        solution = solve_spectral(zero_kernel(), rhs, n_terms, 64)
        tails.append(abs(solution.coeffs[-1]))
    assert tails[0] > tails[1] > tails[2]


def test_screen_solution_stable_under_truncation_growth(screen_cases):
    problem, _, oracle32 = screen_cases(1.5)
    oracle48 = solve_spectral(problem.kernel, problem.rhs, 48, 128, interval=(-1, 1))
    rel = abs(oracle32(0.0) - oracle48(0.0)) / abs(oracle48(0.0))
    assert rel <= 1e-3


def test_scaled_interval_agrees_with_inversion():
    rhs = const_pi_rhs()
    solution = solve_spectral(None, rhs, 8, 32, interval=(0.0, 3.0))
    oracle = invert_characteristic(rhs, 0.0, 3.0, 64).g
    xs = np.linspace(0.2, 2.8, 9)
    assert np.max(np.abs(solution(xs) - oracle(xs))) <= 1e-8
    assert np.max(np.abs(solution(xs) - np.sqrt(xs * (3.0 - xs)))) <= 1e-8


def test_resolution_preconditions(semicircle_rhs):
    with pytest.raises(ValueError, match="at least 2"):
        solve_spectral(None, semicircle_rhs, 1, 16)
    with pytest.raises(ValueError, match="2N"):
        solve_spectral(None, semicircle_rhs, 8, 15)


def test_counts_must_be_integers_named(semicircle_rhs):
    with pytest.raises(ValueError, match="^count must be at least 1, got 0"):
        ChebyshevSolution.from_function(np.cos, 0)
    for call, name in (
        (lambda: ChebyshevSolution.from_function(np.cos, 4.0), "count"),
        (lambda: ChebyshevSolution.from_function(np.cos, 4, mquad=64.5), "mquad"),
        (lambda: solve_spectral(None, semicircle_rhs, 8.0, 32), "N"),
        (lambda: solve_spectral(None, semicircle_rhs, 8, 32.5), "mquad"),
        (lambda: chebyshev_U(2.5, 0.3), "j"),
        (lambda: chebyshev_U("2", 0.3), "j"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call()
    # numpy integers are integers
    assert chebyshev_U(np.int64(2), 0.3) == chebyshev_U(2, 0.3)
    assert ChebyshevSolution.from_function(np.cos, np.int32(1)).coeffs.shape == (1,)


def test_nonfinite_interval_end_refused_by_name(semicircle_rhs):
    for interval, name in (((0.0, np.inf), "b"), ((np.nan, 1.0), "a"), ((-np.inf, 1.0), "a")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            solve_spectral(None, semicircle_rhs, 4, 16, interval=interval)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ChebyshevSolution.from_function(np.cos, 4, interval=interval)


def test_expansion_fit_round_trip():
    coeffs = np.zeros(6)
    coeffs[0], coeffs[3] = 1.0, 0.3

    def target(x):
        xs = np.asarray(x, dtype=float)
        w = np.sqrt(np.clip(1.0 - xs * xs, 0.0, None))
        return w * (chebyshev_U(0, xs) + 0.3 * chebyshev_U(3, xs))

    fit = ChebyshevSolution.from_function(target, 6, mquad=64)
    assert np.max(np.abs(fit.coeffs - coeffs)) <= 1e-12


def test_expansion_fit_refuses_fewer_nodes_than_coefficients():
    # With 3 nodes for 6 coefficients the rule aliases: c_5 of
    # sqrt(1 - x^2) (U_0 + U_1/2) read -0.5, where it is 0.  From
    # mquad = count on, the rule integrates U_j (1 + x) exactly.
    def target(x):
        return np.sqrt(1.0 - x * x) * (1.0 + x)

    with pytest.raises(ValueError, match="^mquad must be at least count = 6, got 3"):
        ChebyshevSolution.from_function(target, 6, mquad=3)
    fit = ChebyshevSolution.from_function(target, 6, mquad=6)
    assert np.max(np.abs(fit.coeffs - [1.0, 0.5, 0.0, 0.0, 0.0, 0.0])) <= 1e-15


def test_expansion_fit_refuses_a_nonfinite_value_by_point():
    def broken(x):
        return np.where(x > 0.5, np.nan, np.sqrt(1.0 - x * x))

    with pytest.raises(ValueError, match="nonfinite at x = ") as info:
        ChebyshevSolution.from_function(broken, 8)
    assert float(str(info.value).rsplit("= ", 1)[1]) > 0.5


def test_expansion_fit_takes_a_scalar_value_at_every_point():
    # fn = 2 is broadcast to every node: the fit equals that of the array
    # form, and sum_k sin((j + 1) theta_k) = cot((j + 1) pi/(2 (m + 1))) for
    # even j and 0 for odd j, so c_j = (4/(m + 1)) times that sum.
    m = 64
    fit = ChebyshevSolution.from_function(lambda x: 2.0, 6, mquad=m)
    array = ChebyshevSolution.from_function(lambda x: np.full(np.shape(x), 2.0), 6, mquad=m)
    assert np.array_equal(fit.coeffs, array.coeffs)
    j = np.arange(6)
    want = np.where(j % 2 == 0, 4.0 / (m + 1) / np.tan((j + 1) * np.pi / (2 * (m + 1))), 0.0)
    assert np.max(np.abs(fit.coeffs - want)) <= 1e-13 * np.max(np.abs(want))


def test_expansion_evaluation_rules():
    solution = ChebyshevSolution(coeffs=np.array([1.0, 0.5]), interval=(-1.0, 1.0))
    assert solution(-1.0) == 0.0
    assert solution(1.0) == 0.0
    for outside in (1.2, np.nan):
        with pytest.raises(ValueError, match="outside"):
            solution(outside)
    step = 1e-6
    fd = (solution(0.3 + step) - solution(0.3 - step)) / (2 * step)
    assert solution.deriv(0.3) == pytest.approx(fd, abs=1e-8)
    with pytest.raises(ValueError, match="strictly inside"):
        solution.deriv(1.0)


def test_expansion_density_reproduces_eigenrelation():
    from hypersing import finite_part

    solution = ChebyshevSolution(coeffs=np.array([0.0, 1.0]), interval=(-1.0, 1.0))
    density = solution.as_density()
    got = finite_part(density, -1.0, 1.0, 0.25, 1e-10)
    assert got == pytest.approx(-2.0 * np.pi * chebyshev_U(1, 0.25), abs=1e-8)


def test_oversized_kernel_table_refused_before_allocation():
    # 4096 x 4097 kernel-table entries are just above linalg.MAX_DENSE_ELEMENTS.
    with pytest.raises(ValueError, match="mquad=4096 needs a 4096 x 4097 dense array"):
        solve_spectral(None, const_pi_rhs(), 2, 4096)
    assert solve_spectral(None, const_pi_rhs(), 2, 4095).coeffs.shape == (2,)


def constant_kernel(value: float):
    """The even difference kernel K0 = value."""
    return RegularKernel(
        profile_batch=lambda d: np.full(np.shape(np.atleast_1d(d)), value), even=True
    )


@pytest.mark.parametrize("N, mquad", [(2, 4), (8, 17), (32, 64)])
def test_degenerate_galerkin_system_refused(N, mquad):
    # K0 = 2 on (-1, 1) adds 2 (pi/2)^2 to the (0, 0) entry -pi^2/2 and
    # nothing elsewhere, so the truncated system is singular.
    with pytest.raises(SingularMatrixError):
        solve_spectral(constant_kernel(2.0), const_pi_rhs(), N, mquad)


def test_nonfinite_moment_refused():
    # Every kernel and load value is finite, but their moments overflow.
    huge_load = RightHandSide(fprime=lambda x: np.full(np.shape(x), 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="nonfinite moments"):
            solve_spectral(constant_kernel(1e308), const_pi_rhs(), 8, 16)
        with pytest.raises(ValueError, match="nonfinite moments"):
            solve_spectral(None, huge_load, 8, 16, interval=(-2.0, 2.0))


def test_galerkin_system_solved_without_lu_factor(monkeypatch):
    # The oracle shares no solver code with the collocation route.
    def refuse(*args, **kwargs):
        raise AssertionError("lu_factor called")

    monkeypatch.setattr(linalg, "lu_factor", refuse)
    monkeypatch.setattr(spectral, "lu_factor", refuse, raising=False)
    kernel, rhs = screen_case(2.5)
    solution = solve_spectral(kernel, rhs, 20, 40)
    assert np.all(np.isfinite(solution.coeffs))


def test_galerkin_solve_refuses_what_lu_factor_refuses():
    # The exact cond_1 is never below Hager's estimate, so every matrix
    # lu_factor refuses is refused here too; the solutions agree otherwise.
    refused = 0
    for n in range(2, 15):
        i = np.arange(n)
        matrix = 1.0 / (i[:, None] + i + 1.0)
        rhs = np.ones(n)
        try:
            want = linalg.lu_factor(matrix, rhs).solution
        except SingularMatrixError:
            refused += 1
            with pytest.raises(SingularMatrixError, match="at most 1e-13"):
                spectral._solve_galerkin(matrix, rhs)
            continue
        got = spectral._solve_galerkin(matrix, rhs)
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))
    assert refused == 5  # n = 10 .. 14, cond_1 from 3.5e13 up


def screen_case(k: float):
    problem = screen_problem(ScreenParams(k=k, a=1.0), 8)
    return problem.kernel, problem.rhs


def undeclared(kernel):
    """The same profile with neither the even nor the log declaration."""
    return dataclasses.replace(kernel, even=False, log_coefficient=None)


def symbol_case():
    return kernel_from_symbol(gaussian_symbol(), 10.0, tol=1e-6), const_pi_rhs()


EVEN_CASES = [
    *(pytest.param(lambda k=k: screen_case(k), id=f"screen-k{k}") for k in (0.05, 0.5, 2.5, 10.0)),
    pytest.param(symbol_case, id="symbol"),
]


@pytest.mark.parametrize("mquad", [128, 129])
@pytest.mark.parametrize("case", EVEN_CASES)
def test_even_kernel_half_table_matches_full_table(case, mquad):
    # The mirror identity changes only rounding: the half table with
    # doubled rows and the parity mask agrees with the full table.  An odd
    # mquad has a middle row x = 0 that is its own mirror and counts once.
    kernel, rhs = case()
    assert kernel.even
    full = dataclasses.replace(kernel, even=False)
    half = solve_spectral(kernel, rhs, 32, mquad)
    want = solve_spectral(full, rhs, 32, mquad)
    scale = np.max(np.abs(want.coeffs))
    assert np.max(np.abs(half.coeffs - want.coeffs)) <= 1e-13 * scale
    nodes = np.linspace(-1.0, 1.0, 41)
    assert np.max(np.abs(half(nodes) - want(nodes))) <= 1e-13 * np.max(np.abs(want(nodes)))


@pytest.mark.parametrize("kernel", [
    pytest.param(lambda: polynomial_kernel(3.0), id="odd"),
    pytest.param(lambda: undeclared(screen_case(2.5)[0]), id="undeclared"),
])
def test_full_table_moments_are_bitwise_reference(kernel, monkeypatch):
    # A kernel declared neither even nor logarithmic takes all rows with
    # factor 1 and no parity mask, so its Galerkin matrix is bit for bit
    # the plain ux @ (r^2 (table @ ut.T)) of the one rule: x on the mquad
    # second-kind nodes, t on the mquad + 1 first-kind nodes, and both U
    # rows in the sine form, weighted by pi/(mquad + 1).
    kernel = kernel()
    N, mquad, (a, b) = 8, 40, (0.0, 3.0)
    matrices = []
    solve_galerkin = spectral._solve_galerkin

    def recording(matrix, rhs):
        matrices.append(matrix)
        return solve_galerkin(matrix, rhs)

    monkeypatch.setattr(spectral, "_solve_galerkin", recording)
    solve_spectral(kernel, const_pi_rhs(), N, mquad, interval=(a, b))
    center, radius = 0.5 * (a + b), 0.5 * (b - a)
    theta = np.arange(1, mquad + 1) * np.pi / (mquad + 1)
    phi = (2 * np.arange(1, mquad + 2) - 1) * np.pi / (2 * (mquad + 1))
    orders = np.arange(1, N + 1)
    ux = np.pi / (mquad + 1) * np.sin(theta) * np.sin(orders[:, None] * theta)
    ut = np.pi / (mquad + 1) * np.sin(phi) * np.sin(orders[:, None] * phi)
    table = kernel.eval((center + radius * np.cos(theta))[:, None], center + radius * np.cos(phi))
    moments = ux @ (radius * radius * (table @ ut.T))
    assert np.array_equal(matrices[0], np.diag(-orders * (np.pi**2 / 2.0)) + moments)


@pytest.mark.parametrize("mquad", [128, 129])
@pytest.mark.parametrize("kernel, even", [
    pytest.param(lambda: screen_case(2.5)[0], True, id="screen"),
    pytest.param(lambda: symbol_case()[0], True, id="symbol"),
    pytest.param(lambda: polynomial_kernel(3.0), False, id="odd"),
    pytest.param(lambda: dataclasses.replace(screen_case(2.5)[0], even=False), False,
                 id="undeclared"),
])
def test_even_kernel_asked_for_half_the_differences(kernel, even, mquad):
    kernel = kernel()
    sizes = []
    batch = kernel.profile_batch

    def counted(d):
        sizes.append(np.size(d))
        return batch(d)

    solve_spectral(dataclasses.replace(kernel, profile_batch=counted), const_pi_rhs(), 16, mquad)
    rows = -(-mquad // 2) if even else mquad
    assert sum(sizes) == rows * (mquad + 1)


def log_kernel(even=True):
    """K0(d) = ln|d|: S = 1 and R = 0; asked for d = 0 it raises."""

    def profile_batch(d):
        d = np.abs(np.atleast_1d(np.asarray(d, dtype=float)))
        if np.any(d == 0.0):
            raise ValueError("ln|d| asked for d = 0")
        return np.log(d)

    return RegularKernel(profile_batch=profile_batch, even=even, log_coefficient=np.ones_like)


def galerkin_matrix(kernel, N, mquad, interval, monkeypatch):
    matrices = []
    solve_galerkin = spectral._solve_galerkin

    def recording(matrix, rhs):
        matrices.append(matrix)
        return solve_galerkin(matrix, rhs)

    monkeypatch.setattr(spectral, "_solve_galerkin", recording)
    solve_spectral(kernel, const_pi_rhs(), N, mquad, interval=interval)
    return matrices[0]


@pytest.mark.parametrize("mquad", [16, 17, 40])
@pytest.mark.parametrize("even", [True, False])
@pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.0, 3.0)])
def test_log_kernel_moments_are_exact(interval, even, mquad, monkeypatch):
    # For K0(d) = ln|d| the t integral is closed form: with
    # (1 - t^2) U_b = (T_b - T_{b+2})/2 and
    # int ln|x - t| T_n(t)/sqrt(1 - t^2) dt = L_n(x) = -(pi/n) T_n(x),
    # L_0 = -pi ln 2, it is (L_b - L_{b+2})/2, a polynomial that a fine
    # second-kind rule integrates against U_a exactly.  On a half-width r
    # the kernel is ln|xi - tau| + ln r, and ln r adds (pi/2)^2 to k_00.
    N = 8
    (a, b) = interval
    radius = 0.5 * (b - a)
    got = galerkin_matrix(log_kernel(even), N, mquad, interval, monkeypatch)
    x, w = gauss_chebyshev2(64)
    theta = np.arccos(x)
    orders = np.arange(N + 2)[:, None]
    L = -np.pi * np.cos(orders * theta) / np.maximum(orders, 1)
    L[0] = -np.pi * np.log(2.0)
    ux = np.array([chebyshev_U(j, x) for j in range(N)]) * w
    moments = ux @ (0.5 * (L[:N] - L[2:])).T
    moments[0, 0] += np.log(radius) * (np.pi / 2.0) ** 2
    want = np.diag(-np.arange(1, N + 1) * (np.pi**2 / 2.0)) + radius * radius * moments
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def absolute_kernel(even=True):
    """K0(d) = |d|, declaring no log part; asked for d = 0 it raises."""

    def profile_batch(d):
        d = np.abs(np.atleast_1d(np.asarray(d, dtype=float)))
        if np.any(d == 0.0):
            raise ValueError("|d| asked for d = 0")
        return d

    return RegularKernel(profile_batch=profile_batch, even=even)


def test_log_kernel_never_asked_for_a_zero_difference():
    # Every kernel takes x at even and t at odd multiples of
    # pi/(2 (mquad + 1)), so no difference is 0 for any mquad, whether or
    # not the kernel declares a log part; ln|d| and |d| raise if one is.
    for mquad in range(4, 200):
        for even in (True, False):
            for kernel in (log_kernel(even), absolute_kernel(even)):
                solve_spectral(kernel, const_pi_rhs(), 2, mquad)


def test_log_kernel_failure_located_on_the_first_kind_grid():
    # A failing kernel that declares a log part is located at a pair of
    # the second-kind x grid and the first-kind t grid.
    def batch(d):
        d = np.abs(np.atleast_1d(np.asarray(d, dtype=float)))
        if np.any(d < 0.1):
            raise ValueError("too close")
        return np.log(d)

    kernel = RegularKernel(profile_batch=batch, even=True, log_coefficient=np.ones_like)
    with pytest.raises(KernelEvaluationError, match="too close") as info:
        solve_spectral(kernel, const_pi_rhs(), 8, 32)
    assert info.value.x in gauss_chebyshev2(32)[0]
    assert info.value.t in gauss_chebyshev1(33)[0]
    assert abs(info.value.x - info.value.t) < 0.1


CONVERGENCE_CASES = [
    *((k, 1.0, (-1.0, 1.0)) for k in (0.05, 0.5, 1.5, 2.5, 5.0, 10.0)),
    *((k, 1.0, (0.0, 3.0)) for k in (0.05, 0.5, 1.5, 2.5, 5.0)),
    *((k, 2.0, (-2.0, 2.0)) for k in (0.05, 0.5, 1.5, 2.5, 5.0)),
]


@pytest.mark.parametrize("k, a, interval", CONVERGENCE_CASES,
                         ids=[f"k{k}-{lo:g},{hi:g}" for k, _, (lo, hi) in CONVERGENCE_CASES])
def test_screen_oracle_converged_at_its_floor(k, a, interval):
    # With the logarithm integrated exactly, N = 32 at mquad = 2N, 2N + 1
    # or 4N + 1 is within 1e-10 of N = 48 at mquad = 4N, up to k times the
    # half-width = 10; above that N must grow with k.
    problem = screen_problem(ScreenParams(k=k, a=a), 8)
    nodes = np.linspace(*interval, 161)
    want = solve_spectral(problem.kernel, problem.rhs, 48, 192, interval=interval)(nodes)
    peak = np.max(np.abs(want))
    for mquad in (64, 65, 129):
        got = solve_spectral(problem.kernel, problem.rhs, 32, mquad, interval=interval)(nodes)
        assert np.max(np.abs(got - want)) <= 1e-10 * peak, mquad


def test_tensor_rule_converges_to_the_log_oracle_at_first_order():
    # The screen kernel with its log declaration dropped takes the plain
    # first-kind t rule, with no product-integration correction.  It tends
    # to the same oracle as mquad grows, with error halving per doubling:
    # a first-order rule across ln|x - t|.
    kernel, rhs = screen_case(2.5)
    nodes = np.linspace(-1.0, 1.0, 81)
    want = solve_spectral(kernel, rhs, 32, 64)(nodes)
    tensor = dataclasses.replace(kernel, log_coefficient=None)
    errors = []
    for mquad in (512, 2048):
        got = solve_spectral(tensor, rhs, 32, mquad)(nodes)
        errors.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert errors[1] <= errors[0] / 3.0
    assert errors[1] <= 1e-3


def test_smooth_kernel_oracle_converged_at_mquad_2n():
    # The Gaussian symbol kernel declares no log part; at N = 16 and
    # mquad = 2N the one rule is within 1e-13 of N = 48 at mquad = 4N.
    kernel, rhs = symbol_case()
    nodes = np.linspace(-1.0, 1.0, 161)
    want = solve_spectral(kernel, rhs, 48, 192)(nodes)
    got = solve_spectral(kernel, rhs, 16, 32)(nodes)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_sine_form_evaluation_matches_recurrence():
    # sqrt(1 - x^2) U_j(x) = sin((j+1) arccos x); the ends are exact zeros,
    # though sin((j+1) arccos(-1)) is not 0 in floating point.
    assert np.sin(np.arccos(-1.0)) != 0.0
    kernel, rhs = screen_case(2.5)
    rng = np.random.default_rng(7)
    for coeffs in (solve_spectral(kernel, rhs, 32, 64).coeffs,
                   rng.standard_normal(24) + 1j * rng.standard_normal(24),
                   np.array([1.0])):
        for interval in ((-1.0, 1.0), (0.0, 3.0)):
            solution = ChebyshevSolution(coeffs=coeffs, interval=interval)
            x = np.linspace(*interval, 2001)
            xi = solution._map(x)
            recurrence = np.sqrt(1.0 - xi * xi) * (
                coeffs @ np.array([chebyshev_U(j, xi) for j in range(len(coeffs))])
            )
            got = solution(x)
            assert np.max(np.abs(got - recurrence)) <= 1e-14 * np.max(np.abs(recurrence))
            assert solution(interval[0]) == 0.0 and solution(interval[1]) == 0.0
            assert got[0] == 0.0 and got[-1] == 0.0

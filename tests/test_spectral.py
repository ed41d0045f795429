import numpy as np
import pytest

from hypersing import (
    ChebyshevSolution,
    RightHandSide,
    chebyshev_U,
    full_example_exact,
    invert_characteristic,
    polynomial_kernel,
    solve_spectral,
    zero_kernel,
)
from hypersing.quadrature import gauss_chebyshev2
from tests.conftest import const_pi_rhs, unit_semicircle


def test_second_kind_polynomial_values():
    assert chebyshev_U(2, 0.3) == pytest.approx(-0.64, rel=1e-14)
    for j in range(7):
        assert chebyshev_U(j, 1.0) == pytest.approx(j + 1.0, rel=1e-13)


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

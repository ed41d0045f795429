from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hypersing import (
    CrackParams,
    DiscreteSolution,
    FullProblem,
    Mesh,
    RightHandSide,
    assemble_characteristic,
    characteristic_determinant_closed_form,
    crack_exact,
    crack_problem,
    finite_part_constant,
    invert_characteristic,
    lu_factor,
    make_mesh,
    solve_characteristic,
    solve_full,
    solve_spectral,
)
from hypersing.characteristic import (
    cauchy_weights,
    characteristic_inverse,
    check_closed_form_size,
)
from tests.conftest import unit_semicircle


def test_two_by_two_entries():
    mesh = make_mesh(-1.0, 1.0, 2)
    m = assemble_characteristic(mesh)
    assert m[0, 0] == pytest.approx(-4.0, rel=1e-15)
    assert m[0, 1] == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert m[1, 1] == pytest.approx(-4.0, rel=1e-15)
    assert m[1, 0] == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_matrix_is_symmetric_toeplitz():
    # x_i - t_j = (i - j - 1/2) h on a uniform mesh, so the entry collapses
    # to 1/(((i-j)^2 - 1/4) h): a symmetric Toeplitz matrix.  Far from the
    # origin the per-entry differences x_i - t_j cancel, so only the formula
    # in i - j is exact there.
    for a, b, n in ((-1.0, 1.0, 7), (0.0, 3.0, 12), (1e6 - 1.0, 1e6 + 1.0, 9)):
        mesh = make_mesh(a, b, n)
        m = assemble_characteristic(mesh)
        i, j = np.indices((n, n))
        formula = 1.0 / (((i - j) ** 2 - 0.25) * mesh.h)
        assert np.array_equal(m, formula)
        assert np.array_equal(m, m.T)


@pytest.mark.parametrize("a,b,n", [(-1.0, 1.0, 2), (-1.0, 1.0, 40), (0.0, 3.0, 17)])
def test_row_sums_telescope_to_unit_density_value(a, b, n):
    mesh = make_mesh(a, b, n)
    sums = assemble_characteristic(mesh).sum(axis=1)
    want = np.array([finite_part_constant(a, b, x) for x in mesh.colloc])
    assert np.max(np.abs(sums - want) / np.abs(want)) <= 1e-12


def test_zero_right_hand_side_gives_zero_solution():
    rhs = RightHandSide(fprime=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    sol = solve_characteristic(make_mesh(-1.0, 1.0, 16), rhs)
    assert np.all(sol.values == 0.0)


def test_benchmark_forty_subintervals(semicircle_rhs):
    sol = solve_characteristic(make_mesh(-1.0, 1.0, 40), semicircle_rhs)
    nodes = sol.nodes
    assert np.max(np.abs(sol(nodes) - unit_semicircle(nodes))) <= 0.05
    assert sol.condition is not None and sol.condition > 1.0


def test_error_at_center_strictly_decreases(semicircle_rhs):
    errors = []
    for n in (10, 20, 40):
        sol = solve_characteristic(make_mesh(-1.0, 1.0, n), semicircle_rhs)
        node = sol.nodes[np.argmin(np.abs(sol.nodes))]
        errors.append(abs(sol(node) - unit_semicircle(node)))
    assert errors[0] > errors[1] > errors[2]


def test_max_node_error_roughly_halves_per_doubling(semicircle_rhs):
    errors = []
    for n in (10, 20, 40, 80):
        sol = solve_characteristic(make_mesh(-1.0, 1.0, n), semicircle_rhs)
        errors.append(np.max(np.abs(sol(sol.nodes) - unit_semicircle(sol.nodes))))
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.3 <= coarse / fine <= 3.0


@pytest.mark.xfail(
    strict=True,
    reason="the gap to the inversion oracle at the first node is 2.4e-2 at "
    "n=80 (square-root endpoint profile under linear interpolation); the "
    "2e-2 bound would need n of at least ~115",
)
def test_oracle_agreement_within_two_hundredths(semicircle_rhs):
    sol = solve_characteristic(make_mesh(-1.0, 1.0, 80), semicircle_rhs)
    oracle = invert_characteristic(semicircle_rhs, -1.0, 1.0, 64).g
    assert np.max(np.abs(sol(sol.nodes) - oracle(sol.nodes))) <= 2e-2


def test_determinant_two_by_two_direct():
    mesh = make_mesh(-1.0, 1.0, 2)
    m = assemble_characteristic(mesh)
    direct = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert characteristic_determinant_closed_form(mesh) == pytest.approx(
        direct, rel=1e-12
    )


@pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.0, 3.0), (1e6 - 1.0, 1e6 + 1.0)])
@pytest.mark.parametrize("n", range(3, 13))
def test_determinant_matches_factorization(interval, n):
    # The closed form reads only n and h, so differences of mesh coordinates
    # near 1e6, which cancel, cost it no accuracy.
    mesh = make_mesh(*interval, n)
    closed = characteristic_determinant_closed_form(mesh)
    numeric = lu_factor(assemble_characteristic(mesh)).determinant()
    assert closed == pytest.approx(numeric, rel=1e-13)


def test_determinant_nonzero_up_to_limit():
    for n in range(2, 133):
        assert characteristic_determinant_closed_form(make_mesh(-1.0, 1.0, n)) != 0.0


def test_determinant_size_limit_enforced():
    # |det M| on (-1, 1) passes the largest float at n = 133.
    with pytest.raises(ValueError, match="n=133"):
        characteristic_determinant_closed_form(make_mesh(-1.0, 1.0, 133))


@pytest.mark.parametrize("n", [2, 13, 132, 600, 1000])
@pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.0, 3.0), (1e6 - 1.0, 1e6 + 1.0)])
def test_log_determinant_matches_numpy(interval, n):
    mesh = make_mesh(*interval, n)
    sign, logdet = characteristic_inverse(mesh).slogdet()
    want_sign, want = np.linalg.slogdet(assemble_characteristic(mesh))
    assert sign == want_sign == (-1.0) ** n
    assert abs(logdet - want) <= 1e-13 * abs(want)


def test_nonfinite_right_hand_side_rejected():
    rhs = RightHandSide(fprime=lambda x: np.where(np.asarray(x) > 0, np.nan, 1.0))
    with pytest.raises(ValueError, match="nonfinite at x = 0.125"):
        solve_characteristic(make_mesh(-1.0, 1.0, 8), rhs)
    # The spectral oracle reads the load through the same check.
    with pytest.raises(ValueError, match=r"nonfinite at x = 0\.99"):
        solve_spectral(None, rhs, 8, 32)


def test_discrete_solution_validation_and_evaluation(semicircle_rhs):
    mesh = make_mesh(-1.0, 1.0, 8)
    for values in (np.ones(5), np.zeros((8, 2)), np.zeros((1, 8)), np.float64(0.0)):
        with pytest.raises(ValueError, match="expected 8"):
            DiscreteSolution(mesh=mesh, values=values)
    with pytest.raises(ValueError, match="nonfinite"):
        DiscreteSolution(mesh=mesh, values=np.full(8, np.nan))
    sol = solve_characteristic(mesh, semicircle_rhs)
    assert sol(-1.0) == 0.0
    assert sol(1.0) == 0.0
    # at a collocation midpoint the rule returns the raw unknown
    assert sol(mesh.colloc[3]) == sol.values[3]
    for outside in (1.5, np.nan):
        with pytest.raises(ValueError, match="outside"):
            sol(outside)


# The closed-form route: M^{-1} b from the Cauchy inverse in O(n log n).

CRACK_LOAD = -np.pi * (1.0 - 0.3)  # crack_problem's f' at sigma0 = mu = 1, nu = 0.3


def build_mesh(a: float, b: float, n: int) -> Mesh:
    # make_mesh needs n >= 2; one subinterval is built by hand.
    if n >= 2:
        return make_mesh(a, b, n)
    return Mesh(a=a, b=b, n=1, h=b - a, nodes=np.array([a, b]),
                colloc=np.array([0.5 * (a + b)]))


def solve_with_load(mesh: Mesh, b: np.ndarray) -> DiscreteSolution:
    rhs = RightHandSide(fprime=lambda x: b)
    return solve_full(FullProblem(mesh=mesh, rhs=rhs, kernel=None))


def central_binomials(n: int) -> list[int]:
    # binom(2k, k) for k = 0..n, exactly.
    out = [1]
    for k in range(1, n + 1):
        out.append(out[-1] * 2 * (2 * k - 1) // k)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 160, 4096])
def test_cauchy_weights_match_exact_rationals(n):
    # Gamma(k + 1/2) = sqrt(pi) (2k)! / (4^k k!), so Gamma(k + 1/2) / (sqrt(pi) k!)
    # = binom(2k, k) / 4^k and both weights are rational:
    # alpha_j = j binom(2j, j) binom(2m, m) / 4^n with m = n - j, and
    # beta_j = -alpha_j (m + 1/2) / (j - 1/2).
    alpha, beta = cauchy_weights(n)
    cb = central_binomials(n)
    for j in range(1, n + 1):
        m = n - j
        exact_alpha = Fraction(j * cb[j] * cb[m], 4**n)
        exact_beta = -exact_alpha * Fraction(2 * m + 1, 2 * j - 1)
        assert abs(alpha[j - 1] / float(exact_alpha) - 1.0) <= 2e-14
        assert abs(beta[j - 1] / float(exact_beta) - 1.0) <= 2e-14


@pytest.mark.parametrize("n", [1, 2, 3, 40, 600, 4096])
@pytest.mark.parametrize("interval", [(-1.0, 1.0), (1e6 - 1.0, 1e6 + 1.0)])
def test_closed_form_solve_matches_gesv(n, interval):
    mesh = build_mesh(*interval, n)
    loads = [np.full(n, CRACK_LOAD), np.random.default_rng(n).standard_normal(n)]
    want = np.linalg.solve(assemble_characteristic(mesh), np.column_stack(loads))
    for b, ref in zip(loads, want.T):
        got = solve_with_load(mesh, b).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "n, seeds", [(40, [None, 40]), (80, [None])], ids=["n40", "n80"]
)
def test_both_routes_match_forty_digit_solve(n, seeds):
    # 40-digit LU of the matrix with the mesh's own h; seed None is the crack load.
    mesh = make_mesh(-1.0, 1.0, n)
    dense = assemble_characteristic(mesh)
    with mpmath.workdps(40):
        h = mpmath.mpf(mesh.h)
        quarter = mpmath.mpf(1) / 4
        a = mpmath.matrix([[1 / ((mpmath.mpf(i - j) ** 2 - quarter) * h)
                            for j in range(n)] for i in range(n)])
        for seed in seeds:
            if seed is None:
                b = np.full(n, CRACK_LOAD)
            else:
                b = np.random.default_rng(seed).standard_normal(n)
            x = mpmath.lu_solve(a, mpmath.matrix([mpmath.mpf(v) for v in b]))
            exact = np.array([float(v) for v in x])
            scale = np.max(np.abs(exact))
            for got in (solve_with_load(mesh, b).values, np.linalg.solve(dense, b)):
                assert np.max(np.abs(got - exact)) <= 1e-14 * scale


@pytest.mark.parametrize("n", [2, 3, 7, 40, 600, 4096])
def test_closed_form_condition_matches_dense_estimate(n):
    mesh = make_mesh(-1.0, 1.0, n)
    load = np.full(n, CRACK_LOAD)
    got = characteristic_inverse(mesh).condition
    assert solve_with_load(mesh, load).condition == got
    dense = assemble_characteristic(mesh)
    assert got == pytest.approx(lu_factor(dense).condition, rel=1e-10)
    if n <= 600:
        # Exact, not an estimate: numpy's cond_1 through the explicit inverse.
        assert got == pytest.approx(np.linalg.cond(dense, 1), rel=1e-13)


@pytest.mark.parametrize("load, calls", [(np.ones(50), 2), (np.full(50, 1j), 2)],
                         ids=["real", "complex"])
def test_closed_form_fft_solves(load, calls, monkeypatch):
    # One inverse FFT per product with M^{-1}: one for the load, whose real
    # and imaginary parts are two columns of one product, and one for the
    # condition number.
    count = []
    irfft = np.fft.irfft

    def counted(*args, **kwargs):
        count.append(1)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counted)
    solve_with_load(make_mesh(-1.0, 1.0, 50), load)
    assert len(count) == calls


@pytest.mark.parametrize("n", [1, 2, 3, 40, 600, 4096])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_apply_to_columns_equals_single_applies(n, kind):
    inverse = characteristic_inverse(build_mesh(-1.0, 1.0, n))
    rng = np.random.default_rng(n)
    block = rng.standard_normal((n, 3))
    if kind == "complex":
        block = block + 1j * rng.standard_normal((n, 3))
    got = inverse.apply(block)
    assert got.shape == block.shape and got.dtype == block.dtype
    for j in range(3):
        assert np.array_equal(got[:, j], inverse.apply(block[:, j]))


@pytest.mark.parametrize("n", [1, 2, 7, 400, 1001])
def test_end_columns_match_apply(n):
    # M^{-1} e_0 and M^{-1} e_{n-1} in closed form, with no transform, are
    # the two products with the unit vectors.
    inverse = characteristic_inverse(build_mesh(-1.0, 1.0, n))
    unit = np.eye(n)
    want = np.array([inverse.apply(unit[0]), inverse.apply(unit[-1])])
    got = inverse._end_columns
    assert got.shape == (2, n)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_closed_form_complex_load_is_two_real_solves():
    mesh = make_mesh(-1.0, 1.0, 64)
    re = np.cos(3.0 * mesh.colloc)
    im = np.random.default_rng(7).standard_normal(64)
    real = solve_with_load(mesh, re).values
    # A complex load with zero imaginary part: the real solve bit for bit.
    embedded = solve_with_load(mesh, re.astype(np.complex128)).values
    assert embedded.dtype == np.complex128
    assert np.array_equal(embedded.real, real)
    assert np.all(embedded.imag == 0.0)
    mixed = solve_with_load(mesh, re + 1j * im).values
    assert np.array_equal(mixed.real, real)
    assert np.array_equal(mixed.imag, solve_with_load(mesh, im).values)


def test_crack_at_one_hundred_thousand_nodes():
    params = CrackParams(1.0, 1.0, 0.3, 1.0)
    solution = solve_full(crack_problem(params, 100_000))
    nodes = solution.nodes
    exact = crack_exact(1.0, 1.0, 0.3, 1.0, nodes)
    assert np.max(np.abs(solution(nodes) - exact)) <= 1e-3 * np.max(exact)


def test_closed_form_size_budget_and_input_checks():
    # The FFT length, the smallest 2^a 3^b 5^c >= 2n - 1, is held to the
    # dense budget: n = 2^23 fits (length 2^24) and 2^23 + 1 is refused by
    # name (length 16796160 = 2^9 3^8 5 > 2^24).
    check_closed_form_size(2**23)
    with pytest.raises(ValueError, match="n=8388609 needs a 1 x 16796160 dense array"):
        check_closed_form_size(2**23 + 1)
    inverse = characteristic_inverse(make_mesh(-1.0, 1.0, 8))
    for shape in (7, (7, 2), (8, 2, 1)):
        with pytest.raises(ValueError, match=r"shape \(8,\) or \(8, c\)"):
            inverse.apply(np.ones(shape))
    with pytest.raises(ValueError, match="nonfinite"):
        inverse.apply(np.full(8, np.inf))

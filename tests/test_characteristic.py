import numpy as np
import pytest

from hypersing import (
    DiscreteSolution,
    RightHandSide,
    assemble_characteristic,
    characteristic_determinant_closed_form,
    finite_part_constant,
    invert_characteristic,
    lu_factor,
    make_mesh,
    solve_characteristic,
    solve_spectral,
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


@pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.0, 3.0)])
@pytest.mark.parametrize("n", range(3, 9))
def test_determinant_matches_factorization(interval, n):
    mesh = make_mesh(*interval, n)
    closed = characteristic_determinant_closed_form(mesh)
    numeric = lu_factor(assemble_characteristic(mesh)).determinant()
    assert closed == pytest.approx(numeric, rel=1e-8)


def test_determinant_nonzero_up_to_limit():
    for n in range(2, 13):
        assert characteristic_determinant_closed_form(make_mesh(-1.0, 1.0, n)) != 0.0


def test_determinant_size_limit_enforced():
    with pytest.raises(ValueError, match="n <= 12"):
        characteristic_determinant_closed_form(make_mesh(-1.0, 1.0, 13))


def test_nonfinite_right_hand_side_rejected():
    rhs = RightHandSide(fprime=lambda x: np.where(np.asarray(x) > 0, np.nan, 1.0))
    with pytest.raises(ValueError, match="nonfinite at x = 0.125"):
        solve_characteristic(make_mesh(-1.0, 1.0, 8), rhs)
    # The spectral oracle reads the load through the same check.
    with pytest.raises(ValueError, match=r"nonfinite at x = 0\.99"):
        solve_spectral(None, rhs, 8, 32)


def test_discrete_solution_validation_and_evaluation(semicircle_rhs):
    mesh = make_mesh(-1.0, 1.0, 8)
    with pytest.raises(ValueError, match="expected 8"):
        DiscreteSolution(mesh=mesh, values=np.ones(5))
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

import numpy as np
import pytest

from hypersing import Density, cauchy_pv, chebyshev_U, finite_part, finite_part_constant


def unit_density() -> Density:
    return Density(
        value=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        deriv=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        second_deriv=lambda t: 0.0,
    )


def weighted_cheb_density(j: int) -> Density:
    """phi(t) = sqrt(1-t^2) U_j(t); its finite-part image is -pi (j+1) U_j."""

    def value(t):
        ts = np.asarray(t, dtype=float)
        return np.sqrt(np.clip(1.0 - ts * ts, 0.0, None)) * chebyshev_U(j, ts)

    def deriv(t):
        ts = np.clip(np.asarray(t, dtype=float), -1.0 + 1e-15, 1.0 - 1e-15)
        theta = np.arccos(ts)
        return -(j + 1) * np.cos((j + 1) * theta) / np.sqrt(1.0 - ts * ts)

    return Density(value=value, deriv=deriv)


def test_unit_density_center_value():
    assert finite_part(unit_density(), -1.0, 1.0, 0.0, 1e-9) == pytest.approx(
        -2.0, abs=1e-9
    )
    assert finite_part_constant(-1.0, 1.0, 0.0) == -2.0


def test_unit_density_shifted_interval():
    want = (0.0 - 2.0) / (0.5 * 1.5)
    assert finite_part(unit_density(), 0.0, 2.0, 0.5, 1e-9) == pytest.approx(
        want, abs=1e-9
    )
    assert finite_part_constant(0.0, 2.0, 0.5) == pytest.approx(want, rel=1e-15)
    assert finite_part_constant(-1.0, 1.0, 0.5) == pytest.approx(-8.0 / 3.0, rel=1e-15)


def test_weighted_second_degree_polynomial_value():
    # U_2(0.3) = 4*0.09 - 1 = -0.64, so the image at 0.3 is 3*pi*0.64.
    got = finite_part(weighted_cheb_density(2), -1.0, 1.0, 0.3, 1e-9)
    assert got == pytest.approx(3.0 * np.pi * 0.64, abs=1e-7)


@pytest.mark.parametrize("j", [0, 4, 8])
def test_weighted_polynomials_are_eigenfunctions(j):
    density = weighted_cheb_density(j)
    for x in np.linspace(-0.95, 0.95, 7):
        got = finite_part(density, -1.0, 1.0, float(x), 1e-9)
        assert got == pytest.approx(-np.pi * (j + 1) * chebyshev_U(j, float(x)), abs=1e-6)


def test_constant_density_matches_closed_form_on_grid():
    density = unit_density()
    for a, b in ((-1.0, 1.0), (0.25, 3.0)):
        for x in a + (b - a) * np.linspace(0.05, 0.95, 9):
            got = finite_part(density, a, b, float(x), 1e-10)
            assert got == pytest.approx(finite_part_constant(a, b, float(x)), abs=1e-9)


def test_reflection_symmetry_of_closed_form():
    for a, b, x in ((-1.0, 1.0, 0.4), (0.0, 2.0, 1.3), (-5.0, -1.0, -2.2)):
        assert finite_part_constant(a, b, x) == pytest.approx(
            finite_part_constant(-b, -a, -x), rel=1e-15
        )


def test_matches_derivative_of_principal_value():
    # Central differences of the 1/(x-t) principal value must converge at
    # second order to minus the finite part.
    density = Density(value=np.cos, deriv=lambda t: -np.sin(t))
    x = 0.3
    reference = finite_part(density, -1.0, 1.0, x, 1e-12)
    errors = []
    deltas = (1e-2, 5e-3, 2.5e-3)
    for delta in deltas:
        upper = cauchy_pv(density, -1.0, 1.0, x + delta, 1e-12)
        lower = cauchy_pv(density, -1.0, 1.0, x - delta, 1e-12)
        errors.append(abs(-(upper - lower) / (2.0 * delta) - reference))
    orders = [
        np.log(errors[i] / errors[i + 1]) / np.log(deltas[i] / deltas[i + 1])
        for i in range(2)
    ]
    assert min(orders) >= 1.8


def test_principal_value_of_odd_kernel_around_center():
    # For phi = 1 the principal value is ln((x-a)/(b-x)); zero at center.
    got = cauchy_pv(unit_density(), -1.0, 1.0, 0.0, 1e-12)
    assert got == pytest.approx(0.0, abs=1e-12)
    got = cauchy_pv(unit_density(), -1.0, 1.0, 0.5, 1e-12)
    assert got == pytest.approx(np.log(1.5 / 0.5), abs=1e-11)


def test_evaluation_point_must_be_interior():
    density = unit_density()
    for x in (-1.0, 1.0, -2.0, 7.5):
        with pytest.raises(ValueError, match="strictly inside"):
            finite_part(density, -1.0, 1.0, x, 1e-9)
    with pytest.raises(ValueError, match="strictly inside"):
        finite_part_constant(-1.0, 1.0, -1.0)


def test_tolerance_must_be_positive():
    for tol in (-1e-9, 0.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            finite_part(unit_density(), -1.0, 1.0, 0.0, tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            cauchy_pv(unit_density(), -1.0, 1.0, 0.0, tol)

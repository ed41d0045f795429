import numpy as np
import pytest

from hypersing import (
    ChebyshevSolution,
    RightHandSide,
    crack_exact,
    finite_part,
    full_example_exact,
    invert_characteristic,
)
from hypersing.analytic import weighted_pv_integral
from tests.conftest import const_pi_rhs, unit_semicircle


def test_linear_f_gives_semicircle():
    inv = invert_characteristic(const_pi_rhs(), -1.0, 1.0, 64)
    assert inv.g(0.0) == pytest.approx(1.0, abs=1e-12)
    assert inv.g(0.6) == pytest.approx(0.8, abs=1e-12)
    xs = np.linspace(-0.9, 0.9, 11)
    assert np.max(np.abs(inv.g(xs) - unit_semicircle(xs))) <= 1e-6


def test_odd_f_has_zero_constant():
    inv = invert_characteristic(const_pi_rhs(), -1.0, 1.0, 64)
    assert abs(inv.C) <= 1e-14


def test_zero_f_gives_zero_solution():
    rhs = RightHandSide(
        fprime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        f=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    inv = invert_characteristic(rhs, -1.0, 1.0, 64)
    assert inv.C == 0.0
    assert np.all(inv.g(np.linspace(-1.0, 1.0, 21)) == 0.0)


def test_solution_vanishes_at_endpoints_and_outside_rejected():
    inv = invert_characteristic(const_pi_rhs(), -1.0, 1.0, 64)
    assert inv.g(-1.0) == 0.0
    assert inv.g(1.0) == 0.0
    for outside in (1.5, np.nan):
        with pytest.raises(ValueError):
            inv.g(outside)


def test_missing_antiderivative_rejected():
    rhs = RightHandSide(fprime=lambda x: -np.pi * np.ones_like(np.asarray(x, dtype=float)))
    with pytest.raises(ValueError, match="antiderivative"):
        invert_characteristic(rhs, -1.0, 1.0, 64)
    # A nonfinite f: NaN above 0.5 is seen by the pair check at x = 2/3;
    # NaN above 0.99 passes it and is seen at the outermost node of C.
    for cut, where in ((0.5, "0.66"), (0.99, "0.99")):
        rhs = RightHandSide(
            fprime=const_pi_rhs().fprime,
            f=lambda x, cut=cut: np.where(np.asarray(x) > cut, np.nan, -np.pi * np.asarray(x)),
        )
        with pytest.raises(ValueError, match=f"^f is nonfinite at x = {where}"):
            invert_characteristic(rhs, -1.0, 1.0, 64)


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError, match="at least 8"):
        invert_characteristic(const_pi_rhs(), -1.0, 1.0, 4)


def test_inconsistent_pair_rejected():
    rhs = RightHandSide(
        fprime=lambda x: np.cos(np.asarray(x, dtype=float)),
        f=lambda x: np.sin(2.0 * np.asarray(x, dtype=float)),
    )
    with pytest.raises(ValueError, match="derivative of f"):
        rhs.validate_pair(-1.0, 1.0)
    # A nonfinite f or fprime is named, not compared: NaN > bound is False.
    nan_above_half = lambda x: np.where(np.asarray(x) > 0.5, np.nan, -np.pi * np.asarray(x))
    for rhs, name in (
        (RightHandSide(fprime=const_pi_rhs().fprime, f=nan_above_half), "f"),
        (RightHandSide(fprime=nan_above_half, f=const_pi_rhs().f), "fprime"),
    ):
        with pytest.raises(ValueError, match=f"^{name} is nonfinite at x = 0.66"):
            rhs.validate_pair(-1.0, 1.0)


def test_scaled_interval_inversion():
    # f = -pi x on (0, 3) inverts to sqrt(x (3 - x)).
    inv = invert_characteristic(const_pi_rhs(), 0.0, 3.0, 64)
    xs = np.linspace(0.2, 2.8, 9)
    assert np.max(np.abs(inv.g(xs) - np.sqrt(xs * (3.0 - xs)))) <= 1e-6


@pytest.mark.parametrize(
    "rhs_pair",
    [
        (lambda x: -np.pi * np.asarray(x, dtype=float),
         lambda x: -np.pi * np.ones_like(np.asarray(x, dtype=float))),
        (lambda x: 0.5 * np.sin(np.pi * np.asarray(x, dtype=float)),
         lambda x: 0.5 * np.pi * np.cos(np.pi * np.asarray(x, dtype=float))),
    ],
    ids=["linear", "sine"],
)
def test_inversion_satisfies_original_equation(rhs_pair):
    # Fit the inverted solution with a weighted Chebyshev expansion and
    # push it back through the finite-part operator; the result must
    # reproduce f' at interior points.
    f, fprime = rhs_pair
    rhs = RightHandSide(fprime=fprime, f=f)
    inv = invert_characteristic(rhs, -1.0, 1.0, 64)
    fit = ChebyshevSolution.from_function(inv.g, 32, mquad=128)
    density = fit.as_density()
    for x in np.linspace(-0.85, 0.85, 11):
        got = finite_part(density, -1.0, 1.0, float(x), 1e-9)
        want = fprime(np.array([x]))[0]
        scale = max(1.0, abs(want))
        assert abs(got - want) <= 1e-3 * scale


def test_endpoint_vanishing_rate_is_square_root():
    inv = invert_characteristic(const_pi_rhs(), -1.0, 1.0, 64)
    deltas = np.array([1e-2, 1e-3, 1e-4])
    for gv in (
        np.array([abs(inv.g(-1.0 + d)) for d in deltas]),
        np.array([abs(inv.g(1.0 - d)) for d in deltas]),
    ):
        slope = np.polyfit(np.log(deltas), np.log(gv), 1)[0]
        assert 0.4 <= slope <= 0.6


def test_crack_opening_closed_form():
    assert crack_exact(1.0, 1.0, 0.3, 1.0, 0.0) == pytest.approx(0.7, abs=1e-15)
    assert crack_exact(2.0, 1.0, 0.25, 2.0, 1.0) == pytest.approx(
        1.5 * np.sqrt(3.0), rel=1e-15
    )
    assert crack_exact(5.0, 2.0, 0.4, 1.5, 1.5) == 0.0
    assert crack_exact(5.0, 2.0, 0.4, 1.5, -1.5) == 0.0


def test_crack_opening_validation():
    for outside in (1.25, np.nan):
        with pytest.raises(ValueError, match="half-length"):
            crack_exact(1.0, 1.0, 0.3, 1.0, outside)
    with pytest.raises(ValueError, match="shear modulus"):
        crack_exact(1.0, -1.0, 0.3, 1.0, 0.0)
    with pytest.raises(ValueError, match="Poisson"):
        crack_exact(1.0, 1.0, 0.6, 1.0, 0.0)


def test_linear_kernel_benchmark_closed_form():
    assert full_example_exact(3.0, 0.0) == pytest.approx(32.0 / 41.0, rel=1e-15)
    assert full_example_exact(3.0, 1.0) == 0.0
    xs = np.linspace(-1.0, 1.0, 21)
    assert np.max(np.abs(full_example_exact(0.0, xs) - unit_semicircle(xs))) == 0.0
    for outside in (1.01, np.nan):
        with pytest.raises(ValueError):
            full_example_exact(3.0, outside)


def test_weighted_pv_integral_interior_only():
    # PV int_{-1}^{1} t / (sqrt(1-t^2) (x-t)) dt = -pi for every |x| < 1.
    for x in (-0.9, 0.0, 0.37):
        value = weighted_pv_integral(lambda t: t, -1.0, 1.0, 16, x)
        assert value == pytest.approx(-np.pi, rel=1e-13)
    # The subtraction rule only holds inside: at x = 1.5 it would give 0.0
    # where the integral of 1 / (sqrt(1-t^2) (x-t)) is pi / sqrt(1.25).
    for outside in (np.nan, 1.0, -1.0, 1.5):
        with pytest.raises(ValueError, match="strictly inside"):
            weighted_pv_integral(lambda t: np.ones_like(t), -1.0, 1.0, 16, outside)


def test_weighted_pv_integral_needs_a_node():
    for m in (0, -3):
        with pytest.raises(ValueError, match=f"^m must be at least 1, got {m}"):
            weighted_pv_integral(lambda t: t, -1.0, 1.0, m, 0.3)
    assert weighted_pv_integral(lambda t: t, -1.0, 1.0, 1, 0.3) == pytest.approx(-np.pi)

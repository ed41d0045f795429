import numpy as np
import pytest

from hypersing.quadrature import (
    QuadratureConvergenceError,
    adaptive_gauss,
    gauss_chebyshev1,
    gauss_chebyshev2,
    gauss_legendre,
)


def test_smooth_integrand_to_tolerance():
    got = adaptive_gauss(np.cos, 0.0, 2.0, 1e-12)
    assert got == pytest.approx(np.sin(2.0), abs=1e-12)


def test_square_root_cusp_resolved_by_bisection():
    got = adaptive_gauss(lambda t: np.sqrt(np.abs(t)), -1.0, 1.0, 1e-10, split=(0.0,))
    assert got == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_panel_budget_exhaustion_raises():
    rng_like = lambda t: np.sin(1.0 / (np.abs(t) + 1e-14))
    with pytest.raises(QuadratureConvergenceError):
        adaptive_gauss(rng_like, -1.0, 1.0, 1e-13, max_panels=8)


def test_tolerance_must_be_positive():
    for tol in (-1e-9, 0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="tol must be positive"):
            adaptive_gauss(np.cos, 0.0, 1.0, tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            adaptive_gauss(lambda s: np.cos(s)[:, None], 0.0, 1.0, tol)


def test_batch_matches_scalar_path():
    scales = np.array([1.0, 2.0, 5.0])

    def family(s):
        return np.cos(np.outer(s, scales))

    got = adaptive_gauss(family, 0.0, 1.0, 1e-12)
    want = np.sin(scales) / scales
    assert np.max(np.abs(got - want)) <= 1e-11


def test_first_kind_rule_integrates_weighted_polynomials():
    u, w = gauss_chebyshev1(16)
    # int x^2/sqrt(1-x^2) = pi/2
    assert w * np.sum(u**2) == pytest.approx(np.pi / 2.0, abs=1e-13)
    assert w * len(u) == pytest.approx(np.pi, abs=1e-13)


def test_second_kind_rule_integrates_weighted_polynomials():
    u, w = gauss_chebyshev2(16)
    # int sqrt(1-x^2) dx = pi/2, int x^2 sqrt(1-x^2) dx = pi/8
    assert np.sum(w) == pytest.approx(np.pi / 2.0, abs=1e-13)
    assert np.sum(w * u**2) == pytest.approx(np.pi / 8.0, abs=1e-13)


def test_legendre_rule_mapped_to_interval():
    x, w = gauss_legendre(12, 1.0, 3.0)
    assert np.sum(w * x**3) == pytest.approx((3.0**4 - 1.0) / 4.0, rel=1e-13)

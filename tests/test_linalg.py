import math

import numpy as np
import pytest

from hypersing import SingularMatrixError, condition_estimate_1norm, lu_factor, solve


def hilbert(n: int) -> np.ndarray:
    i, j = np.indices((n, n))
    return 1.0 / (i + j + 1.0)


def hilbert_inverse_exact(n: int) -> np.ndarray:
    # Classical closed form with binomial coefficients; exact in integers.
    inv = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            inv[i, j] = (
                (-1) ** (i + j)
                * (i + j + 1)
                * math.comb(n + i, n - j - 1)
                * math.comb(n + j, n - i - 1)
                * math.comb(i + j, i) ** 2
            )
    return inv


def test_identity_matrix():
    fact = lu_factor(np.eye(4))
    assert fact.determinant() == pytest.approx(1.0, abs=0.0)
    rhs = np.array([1.0, -2.0, 3.5, 0.25])
    assert np.array_equal(fact.solve(rhs), rhs)


def test_permutation_exercises_pivoting():
    fact = lu_factor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert fact.determinant() == pytest.approx(-1.0, abs=0.0)


def test_manufactured_solution_recovered():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((6, 6))
    x_true = rng.standard_normal(6)
    x = solve(a, a @ x_true)
    assert np.max(np.abs(x - x_true)) <= 1e-10 * np.max(np.abs(x_true))


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrixError):
        lu_factor(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        lu_factor(np.zeros((3, 3)))
    # Nonzero pivot, so LAPACK accepts it; cond_1 3.6e15 fails the rcond test.
    with pytest.raises(SingularMatrixError):
        lu_factor(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
    # cond_1 3.5e13: every pivot stays above 1e-13 of the largest entry.
    with pytest.raises(SingularMatrixError):
        lu_factor(hilbert(10))


def test_shape_and_finiteness_validation():
    with pytest.raises(ValueError, match="square"):
        lu_factor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="nonfinite"):
        lu_factor(np.array([[1.0, np.nan], [0.0, 1.0]]))
    fact = lu_factor(np.eye(2))
    with pytest.raises(ValueError, match="nonfinite"):
        fact.solve(np.array([1.0, np.inf]))


def test_condition_estimate_identity():
    est = condition_estimate_1norm(lu_factor(np.eye(5)))
    assert 1.0 <= est <= 10.0


def test_condition_estimate_diagonal():
    est = condition_estimate_1norm(lu_factor(np.diag([1.0, 1e-8])))
    assert 1e7 <= est <= 1e9


def test_condition_estimate_hilbert_within_factor_ten():
    h = hilbert(6)
    exact = float(np.abs(h).sum(axis=0).max() * np.abs(hilbert_inverse_exact(6)).sum(axis=0).max())
    est = condition_estimate_1norm(lu_factor(h))
    assert exact / 10.0 <= est <= exact * 10.0


def test_determinant_of_row_scalings():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    scales = np.array([2.0, -1.5, 0.25, 3.0, -0.5])
    scaled = scales[:, None] * base
    want = float(np.prod(scales)) * lu_factor(base).determinant()
    assert lu_factor(scaled).determinant() == pytest.approx(want, rel=1e-12)


def test_complex_solve_matches_real_bit_for_bit():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((7, 7)) + 3.0 * np.eye(7)
    b = rng.standard_normal(7)
    real = lu_factor(a).solve(b)
    comp = lu_factor(a.astype(complex)).solve(b.astype(complex))
    assert np.array_equal(comp.real, real)
    assert np.all(comp.imag == 0.0)


def test_adjoint_solve_consistent():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
    b = rng.standard_normal(6)
    z = lu_factor(a).solve_adjoint(b)
    assert np.max(np.abs(a.T @ z - b)) <= 1e-10
    c = a + 1j * rng.standard_normal((6, 6)) * 0.1
    zc = lu_factor(c).solve_adjoint(b.astype(complex))
    assert np.max(np.abs(c.conj().T @ zc - b)) <= 1e-10

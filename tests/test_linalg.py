import math
import subprocess
import sys

import numpy as np
import pytest

from hypersing import (
    CrackParams,
    ScreenParams,
    SingularMatrixError,
    assemble_full,
    condition_estimate_1norm,
    crack_problem,
    lu_factor,
    screen_problem,
    solve,
)
from hypersing.analytic import _load_values
from hypersing.linalg import MAX_DENSE_ELEMENTS, _toeplitz_probes, check_dense_size
from tests.conftest import CAP_ADDRESS_SPACE, capped_env, count_gesv


def hilbert(n: int) -> np.ndarray:
    i, j = np.indices((n, n))
    return 1.0 / (i + j + 1.0)


def toeplitz(profile: np.ndarray) -> np.ndarray:
    # T[i, j] = profile[i - j + n - 1] from its 2n - 1 values.
    n = (len(profile) + 1) // 2
    i, j = np.indices((n, n))
    return profile[i - j + n - 1]


def hager_reference(a: np.ndarray) -> float:
    # Hager's sweeps with every probe a dense solve with A or A^H.
    n = a.shape[0]
    x = np.full(n, 1.0 / n, dtype=a.dtype)
    est, last_j = 0.0, -1
    for _ in range(6):
        y = np.linalg.solve(a, x)
        mags = np.abs(y)
        est = float(mags.sum())
        xi = np.where(mags > 0, y / np.where(mags > 0, mags, 1.0), 1.0)
        z = np.linalg.solve(a.conj().T, xi)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= np.real(np.vdot(z, x)) or j == last_j:
            break
        x = np.zeros(n, dtype=a.dtype)
        x[j] = 1.0
        last_j = j
    return float(np.abs(a).sum(axis=0).max()) * est


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
    # Toeplitz, probed through the Gohberg-Semencul formula: the KMS matrix
    # rho^|i-j| at rho = 1 - 1e-12 (exact cond_1 1.0e14), and the all-ones
    # profile plus 1e-12 noise.
    m = np.arange(-49, 50)
    noise = 1e-12 * np.random.default_rng(5).standard_normal(99)
    for profile in ((1.0 - 1e-12) ** np.abs(m), np.ones(99) + noise):
        with pytest.raises(SingularMatrixError):
            lu_factor(toeplitz(profile))


def test_shape_and_finiteness_validation(monkeypatch):
    with pytest.raises(ValueError, match="square"):
        lu_factor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="nonfinite"):
        lu_factor(np.array([[1.0, np.nan], [0.0, 1.0]]))
    fact = lu_factor(np.eye(2))
    with pytest.raises(ValueError, match="nonfinite"):
        fact.solve(np.array([1.0, np.inf]))
    # A right-hand side handed to lu_factor is checked before LAPACK runs,
    # on the Toeplitz route and off it.
    calls = count_gesv(monkeypatch)
    for matrix in (toeplitz(np.arange(1.0, 8.0)), hilbert(4)):
        for rhs, match in (
            (np.ones(3), "shape"),
            (np.ones((4, 1)), "shape"),
            (np.array([1.0, np.nan, 0.0, 0.0]), "nonfinite"),
            (np.array([1.0, 0.0, 1j * np.inf, 0.0]), "nonfinite"),
        ):
            for call in (lu_factor, solve):
                with pytest.raises(ValueError, match=match):
                    call(matrix, rhs)
    assert calls == []


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
    # The same on the Toeplitz route, where b rides in the generators' gesv:
    # three real columns against four (b's real and imaginary parts).
    for t in (toeplitz(rng.standard_normal(79)) + 4.0 * np.eye(40),
              assemble_full(crack_problem(CrackParams(1.0, 1.0, 0.3, 1.0), 40))):
        b = rng.standard_normal(40)
        real = lu_factor(t, b)
        for comp in (lu_factor(t.astype(complex), b.astype(complex)),
                     lu_factor(t, b.astype(complex)), lu_factor(t.astype(complex), b)):
            assert np.array_equal(comp.solution.real, real.solution)
            assert np.all(comp.solution.imag == 0.0)
            assert comp.condition == real.condition
        assert np.array_equal(solve(t.astype(complex), b).real, real.solution)
        c = rng.standard_normal(40)
        mixed = lu_factor(t, b + 1j * c).solution
        assert np.array_equal(mixed.real, real.solution)
        assert np.array_equal(mixed.imag, lu_factor(t, c).solution)


def test_adjoint_solve_consistent():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) + 4.0 * np.eye(6)
    b = rng.standard_normal(6)
    z = lu_factor(a).solve_adjoint(b)
    assert np.max(np.abs(a.T @ z - b)) <= 1e-10
    c = a + 1j * rng.standard_normal((6, 6)) * 0.1
    zc = lu_factor(c).solve_adjoint(b.astype(complex))
    assert np.max(np.abs(c.conj().T @ zc - b)) <= 1e-10
    # Complex nonsymmetric Toeplitz: the adjoint solve and the adjoint probe
    # of the condition estimate.
    t = toeplitz(rng.standard_normal(11) + 1j * rng.standard_normal(11)) + 4.0 * np.eye(6)
    for zt in (lu_factor(t).solve_adjoint(b), _toeplitz_probes(t)[0][1](b)):
        assert np.max(np.abs(t.conj().T @ zt - b)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 7, 40])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_toeplitz_probes_match_dense_solves(n, kind):
    rng = np.random.default_rng(n)
    profile = rng.standard_normal(2 * n - 1)
    r = rng.standard_normal(n)
    if kind == "complex":
        profile = profile + 1j * rng.standard_normal(2 * n - 1)
        r = r + 1j * rng.standard_normal(n)
    t = toeplitz(profile) + 3.0 * np.eye(n)
    (inverse, inverse_adjoint), solved = _toeplitz_probes(t, [r])
    want = np.linalg.solve(t, r)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(inverse(r) - want)) <= 1e-13 * scale
    assert solved.shape == (1, n)
    assert np.max(np.abs(solved[0] - want)) <= 1e-13 * scale
    want = np.linalg.solve(t.conj().T, r)
    assert np.max(np.abs(inverse_adjoint(r) - want)) <= 1e-13 * np.max(np.abs(want))


def test_non_toeplitz_and_zero_corner_keep_dense_probes(monkeypatch):
    assert _toeplitz_probes(hilbert(4), [np.ones(4)]) == (None, None)
    # Toeplitz with (A^{-1})_00 = 0: the formula divides by it, so gesv probes,
    # but the right-hand side solved with the generators is still the answer.
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    probes, solved = _toeplitz_probes(swap, [[2.0, 3.0]])
    assert probes is None
    assert np.array_equal(solved, [[3.0, 2.0]])
    calls = count_gesv(monkeypatch)
    assert condition_estimate_1norm(lu_factor(swap)) == 1.0
    probe_calls = list(calls)
    calls.clear()
    fact = lu_factor(swap, np.array([2.0, 3.0]))
    assert calls == [(2, 3)] + probe_calls[1:]
    assert np.array_equal(fact.solution, [3.0, 2.0])
    assert fact.condition == 1.0


COLLOCATION_PROBLEMS = [
    pytest.param(lambda: crack_problem(CrackParams(1.0, 1.0, 0.3, 1.0), 600), id="crack-600"),
    *(
        pytest.param(lambda k=k: screen_problem(ScreenParams(k=k, a=1.0), 400),
                     id=f"screen-400-k{k}")
        for k in (0.5, 1.3, 2.5)
    ),
]


@pytest.mark.parametrize("problem", COLLOCATION_PROBLEMS)
def test_condition_estimate_of_collocation_matrices(problem, monkeypatch):
    a = assemble_full(problem())
    want = hager_reference(a)
    exact = np.linalg.cond(a, 1)
    calls = count_gesv(monkeypatch)
    est = condition_estimate_1norm(lu_factor(a))
    assert calls == [(a.shape[0], 2)]  # the first and last columns of A^{-1}
    assert est == pytest.approx(want, rel=1e-10)
    assert exact / 10.0 <= est <= exact * 10.0


@pytest.mark.parametrize("problem", COLLOCATION_PROBLEMS)
def test_fused_solve_of_collocation_matrices(problem, monkeypatch):
    problem = problem()
    a = assemble_full(problem)
    b = _load_values(problem.rhs.fprime, problem.mesh.colloc, "right-hand side")
    want = np.linalg.solve(a, b)
    condition = lu_factor(a).condition
    calls = count_gesv(monkeypatch)
    fact = lu_factor(a, b)
    assert calls == [(a.shape[0], 3)]  # e_0, e_{n-1} and b in one gesv
    assert fact.solution.dtype == want.dtype
    assert np.max(np.abs(fact.solution - want)) <= 1e-13 * np.max(np.abs(want))
    assert fact.condition == condition


def test_dense_size_budget():
    check_dense_size("n", 4096, 4096, 4096)
    assert 4096 * 4096 == MAX_DENSE_ELEMENTS
    with pytest.raises(ValueError, match="n=4097"):
        check_dense_size("n", 4097, 4097, 4097)
    with pytest.raises(ValueError, match="mquad=4096"):
        check_dense_size("mquad", 4096, 4096, 4097)


# Each library entry point at a size whose array would not fit in the
# 2 GiB cap: it must end in a ValueError that names its parameter, not in
# a MemoryError from numpy.
_CAPPED_CALL = CAP_ADDRESS_SPACE + (
    "import numpy as np\n"
    "from hypersing import (ChebyshevSolution, CrackParams, RightHandSide,\n"
    "    crack_problem, invert_characteristic, make_mesh)\n"
    "from hypersing.analytic import weighted_pv_integral\n"
    "load = RightHandSide(fprime=lambda x: -np.pi + 0.0 * x, f=lambda x: -np.pi * x)\n"
    "try:\n"
    "    {call}\n"
    "except ValueError as exc:\n"
    "    print(exc)\n"
)


@pytest.mark.parametrize("call, name", [
    ("make_mesh(-1, 1, 10**9)", "n"),
    ("crack_problem(CrackParams(1, 1, 0.3, 1), 10**9)", "n"),
    ("invert_characteristic(load, -1, 1, 10**9)", "m"),
    ("weighted_pv_integral(np.cos, -1, 1, 10**5, np.linspace(-0.9, 0.9, 10**5))", "m"),
    ("ChebyshevSolution.from_function(np.cos, 4, mquad=10**9)", "mquad"),
], ids=["make_mesh", "crack_problem", "invert_characteristic", "weighted_pv_integral",
        "from_function"])
def test_library_refuses_oversized_arrays_by_name(call, name):
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_CALL.format(call=call)],
        env=capped_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"{name}=")
    assert "dense array" in done.stdout

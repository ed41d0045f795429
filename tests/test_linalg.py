import math
import subprocess
import sys
import tracemalloc

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
    make_mesh,
    screen_problem,
)
from hypersing import fullsolver
from hypersing.analytic import _load_values
from hypersing.characteristic import _singular_profile
from hypersing.fullsolver import _kernel_table, _solve_toeplitz
from hypersing.linalg import (
    MAX_DENSE_ELEMENTS,
    _checked_condition,
    _fft_length,
    _gohberg_semencul,
    _norm1,
    _toeplitz_norm1,
    check_dense_size,
)
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


def end_columns(t: np.ndarray):
    # The first and last columns x, y of t^{-1}, by numpy.linalg.solve.
    return np.linalg.solve(t, np.eye(len(t), dtype=t.dtype)[:, [0, -1]]).T


def dense_source(problem, monkeypatch, load=None):
    # (values, condition, gesv calls) of fullsolver's dense Toeplitz source
    # on a collocation problem, with GMRES kept off; the crack's zero kernel
    # is the zero table, whose matrix is the characteristic one.
    mesh = problem.mesh
    table = _kernel_table(problem)
    table = np.zeros(2 * mesh.n - 1) if table is None else table
    b = _load_values(problem.rhs.fprime, mesh.colloc, "right-hand side") if load is None else load
    monkeypatch.setattr(fullsolver, "_GMRES_MIN_N", mesh.n + 1)
    calls = count_gesv(monkeypatch)
    values, condition = _solve_toeplitz(mesh, table, b)
    monkeypatch.undo()
    return values, condition, calls


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
    x = lu_factor(a, a @ x_true).solution
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
    # Toeplitz: the KMS matrix rho^|i-j| at rho = 1 - 1e-12 (exact cond_1
    # 1.0e14), and the all-ones profile plus 1e-12 noise.  fullsolver's
    # dense source refuses them too, probed through the Gohberg-Semencul
    # formula: on a mesh with h = 1e20 the singular profile, at most 4/h in
    # magnitude, is below half an ulp of these entries, so the collocation
    # matrix of the table profile - singular profile is the same matrix.
    m = np.arange(-49, 50)
    noise = 1e-12 * np.random.default_rng(5).standard_normal(99)
    mesh = make_mesh(-2.5e21, 2.5e21, 50)
    for profile in ((1.0 - 1e-12) ** np.abs(m), np.ones(99) + noise):
        with pytest.raises(SingularMatrixError):
            lu_factor(toeplitz(profile))
        table = profile - _singular_profile(mesh)
        assert np.array_equal(_singular_profile(mesh) + table, profile)
        with pytest.raises(SingularMatrixError):
            _solve_toeplitz(mesh, table, np.ones(50))


def test_shape_and_finiteness_validation(monkeypatch):
    with pytest.raises(ValueError, match="square"):
        lu_factor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="nonfinite"):
        lu_factor(np.array([[1.0, np.nan], [0.0, 1.0]]))
    fact = lu_factor(np.eye(2))
    with pytest.raises(ValueError, match="nonfinite"):
        fact.solve(np.array([1.0, np.inf]))
    # A right-hand side handed to lu_factor is checked before LAPACK runs.
    calls = count_gesv(monkeypatch)
    for matrix in (toeplitz(np.arange(1.0, 8.0)), hilbert(4)):
        for rhs, match in (
            (np.ones(3), "shape"),
            (np.ones((4, 1)), "shape"),
            (np.array([1.0, np.nan, 0.0, 0.0]), "nonfinite"),
            (np.array([1.0, 0.0, 1j * np.inf, 0.0]), "nonfinite"),
        ):
            with pytest.raises(ValueError, match=match):
                lu_factor(matrix, rhs)
    assert calls == []


def test_condition_estimate_identity():
    est = condition_estimate_1norm(lu_factor(np.eye(5)))
    assert 1.0 <= est <= 10.0


def test_condition_estimate_never_below_one():
    # cond_1(A) >= ||A A^{-1}||_1 = 1, however the probes round: the identity
    # through gesv probes and through the Gohberg-Semencul FFT probes of its
    # end columns, and a permutation through gesv probes.
    for n in range(1, 41):
        assert condition_estimate_1norm(lu_factor(np.eye(n))) >= 1.0
        probes = _gohberg_semencul(*np.eye(n)[[0, -1]])
        assert _checked_condition(1.0, n, np.dtype(np.float64), *probes) >= 1.0
    permutation = np.eye(40)[np.random.default_rng(40).permutation(40)]
    assert condition_estimate_1norm(lu_factor(permutation)) >= 1.0


def test_fft_length_is_the_smallest_five_smooth_length():
    # The smallest 2^a 3^b 5^c >= 2n - 1, against a brute-force search.
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    want = 1
    for n in range(1, 5001):
        while want < 2 * n - 1 or not smooth(want):
            want += 1
        assert _fft_length(n) == want
    assert (_fft_length(400), _fft_length(600), _fft_length(2500)) == (800, 1200, 5000)


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
    # The same with a right-hand side given to lu_factor, solved after the
    # estimate by one single-column gesv per part.
    for t in (toeplitz(rng.standard_normal(79)) + 4.0 * np.eye(40),
              assemble_full(crack_problem(CrackParams(1.0, 1.0, 0.3, 1.0), 40))):
        b = rng.standard_normal(40)
        real = lu_factor(t, b)
        for comp in (lu_factor(t.astype(complex), b.astype(complex)),
                     lu_factor(t, b.astype(complex)), lu_factor(t.astype(complex), b)):
            assert np.array_equal(comp.solution.real, real.solution)
            assert np.all(comp.solution.imag == 0.0)
            assert comp.condition == real.condition
        c = rng.standard_normal(40)
        mixed = lu_factor(t, b + 1j * c).solution
        assert np.array_equal(mixed.real, real.solution)
        assert np.array_equal(mixed.imag, lu_factor(t, c).solution)
    # And on fullsolver's dense Toeplitz source, where b rides in the end
    # columns' gesv: three real columns against four (b's real and
    # imaginary parts); the zero table is the crack's characteristic matrix.
    mesh = make_mesh(-1.0, 1.0, 40)
    for table in (rng.standard_normal(79), np.zeros(79)):
        b = rng.standard_normal(40)
        real, condition = _solve_toeplitz(mesh, table, b)
        for comp in (_solve_toeplitz(mesh, table.astype(complex), b.astype(complex)),
                     _solve_toeplitz(mesh, table, b.astype(complex)),
                     _solve_toeplitz(mesh, table.astype(complex), b)):
            assert np.array_equal(comp[0].real, real)
            assert np.all(comp[0].imag == 0.0)
            assert comp[1] == condition
        c = rng.standard_normal(40)
        mixed = _solve_toeplitz(mesh, table, b + 1j * c)[0]
        assert np.array_equal(mixed.real, real)
        assert np.array_equal(mixed.imag, _solve_toeplitz(mesh, table, c)[0])


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
    for zt in (lu_factor(t).solve_adjoint(b), _gohberg_semencul(*end_columns(t))[1](b)):
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
    inverse, inverse_adjoint = _gohberg_semencul(*end_columns(t))
    want = np.linalg.solve(t, r)
    assert np.max(np.abs(inverse(r) - want)) <= 1e-13 * np.max(np.abs(want))
    want = np.linalg.solve(t.conj().T, r)
    assert np.max(np.abs(inverse_adjoint(r) - want)) <= 1e-13 * np.max(np.abs(want))
    # The 1-norm from the 2n - 1 generators, first column and row.
    norm1 = _toeplitz_norm1(np.concatenate((t[:0:-1, 0], t[0])))
    assert norm1 == pytest.approx(np.abs(t).sum(axis=0).max(), rel=1e-15, abs=0.0)


def test_non_toeplitz_and_zero_corner_keep_dense_probes(monkeypatch):
    # lu_factor probes and solves hilbert(4) by single-column gesv calls.
    # The zero-corner case, a Toeplitz matrix with (A^{-1})_00 = 0, is
    # solve_full's to send here: test_fullsolver's
    # test_zero_corner_of_the_inverse_goes_to_lu_factor.
    calls = count_gesv(monkeypatch)
    lu_factor(hilbert(4), np.ones(4))
    assert calls and set(calls) == {(4,)}


@pytest.mark.parametrize("kind, gesv_columns", [
    ("real", 3), ("complex", 3), ("real-valued-complex", 4),
])
def test_toeplitz_view_factors_like_its_copy(kind, gesv_columns, monkeypatch):
    # fullsolver's dense Toeplitz source hands gesv a read-only strided view
    # of the 2n - 1 profile, with e_0, e_{n-1} and the load as the columns
    # of one call (b's real and imaginary parts are two when the complex
    # table holds real values): no n x n copy, and the bits of the same
    # call on the contiguous copy.
    n = 40
    rng = np.random.default_rng(17)
    mesh = make_mesh(-1.0, 1.0, n)
    table = rng.standard_normal(2 * n - 1)
    b = rng.standard_normal(n)
    if kind != "real":
        imag = rng.standard_normal(2 * n - 1) if kind == "complex" else 0.0
        table = table + 1j * imag
        b = b + 1j * rng.standard_normal(n)
    solves = []
    gesv = np.linalg.solve

    def recorded(a, rhs):
        solves.append((a, rhs))
        return gesv(a, rhs)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    values, condition = _solve_toeplitz(mesh, table, b)
    ((view, columns),) = solves
    assert columns.shape == (n, gesv_columns)
    assert not view.flags.writeable and view.strides[0] == -view.strides[1]
    copy = view.copy()
    want = gesv(copy, columns)[:, 2:]
    assert np.array_equal(values, want[:, 0] + 1j * want[:, 1] if gesv_columns == 4 else want[:, 0])
    assert condition == pytest.approx(hager_reference(copy), rel=1e-10)


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (400, 400), (700, 90)])
def test_general_norm1_sums_rows_in_order(shape):
    # The blocked 1-norm of a C-ordered matrix is np.abs(a).sum(axis=0).max()
    # bit for bit, over magnitudes from 1e-30 to 1e30.
    rng = np.random.default_rng(shape[0])
    a = rng.standard_normal(shape) * np.exp(rng.uniform(-69.0, 69.0, shape))
    for m in (a, a + 1j * rng.standard_normal(shape)):
        assert _norm1(m) == float(np.abs(m).sum(axis=0).max())


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_general_matrix_factors_without_an_n_by_n_temporary(kind):
    # A general matrix is checked, normed and solved with numpy temporaries
    # of at most half a real n x n array (|A| whole was one); LAPACK's copy
    # is not a numpy allocation.
    n = 400
    rng = np.random.default_rng(5)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    if kind == "complex":
        a = a + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    lu_factor(a, b)
    tracemalloc.start()
    try:
        lu_factor(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * np.dtype(float).itemsize // 2


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1j * np.inf])
@pytest.mark.parametrize("corner", [(0, -1), (-1, 0)])
def test_toeplitz_corner_nonfinite_refused_before_lapack(value, corner, monkeypatch):
    # A corner is a diagonal of its own: a matrix that is Toeplitz but for a
    # nonfinite corner is refused by the entry-wise check before LAPACK runs.
    a = toeplitz(np.arange(1.0, 14.0)).astype(np.result_type(value))
    a[corner] = value
    assert np.array_equal(a[1:, 1:], a[:-1, :-1])
    calls = count_gesv(monkeypatch)
    for rhs in (None, np.ones(7)):
        with pytest.raises(ValueError, match="nonfinite"):
            lu_factor(a, rhs)
    assert calls == []


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
    # fullsolver's dense Toeplitz source takes every probe of the estimate
    # from the first and last columns of A^{-1}, solved in its one gesv call.
    problem = problem()
    a = assemble_full(problem)
    want = hager_reference(a)
    exact = np.linalg.cond(a, 1)
    _, est, calls = dense_source(problem, monkeypatch)
    assert calls == [(a.shape[0], 3)]  # e_0, e_{n-1} and the load
    assert est == pytest.approx(want, rel=1e-10)
    assert exact / 10.0 <= est <= exact * 10.0


@pytest.mark.parametrize("problem", COLLOCATION_PROBLEMS)
def test_fused_solve_of_collocation_matrices(problem, monkeypatch):
    # The load rides in the dense source's gesv call with e_0 and e_{n-1}:
    # LAPACK's solution, and an estimate that does not depend on the load.
    problem = problem()
    a = assemble_full(problem)
    b = _load_values(problem.rhs.fprime, problem.mesh.colloc, "right-hand side")
    want = np.linalg.solve(a, b)
    values, condition, calls = dense_source(problem, monkeypatch)
    assert calls == [(a.shape[0], 3)]  # e_0, e_{n-1} and b in one gesv
    assert values.dtype == want.dtype
    assert np.max(np.abs(values - want)) <= 1e-13 * np.max(np.abs(want))
    assert dense_source(problem, monkeypatch, load=b[::-1].copy())[1] == condition


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
    "from hypersing import (ChebyshevSolution, CrackParams, FullProblem, RightHandSide,\n"
    "    crack_problem, fredholm_residual, invert_characteristic, make_mesh,\n"
    "    polynomial_kernel)\n"
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
    ("fredholm_residual(FullProblem(make_mesh(-1, 1, 8), load, polynomial_kernel(3.0)),"
     " np.cos, 10**6)", "m"),
], ids=["make_mesh", "crack_problem", "invert_characteristic", "weighted_pv_integral",
        "from_function", "fredholm_residual"])
def test_library_refuses_oversized_arrays_by_name(call, name):
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_CALL.format(call=call)],
        env=capped_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"{name}=")
    assert "dense array" in done.stdout

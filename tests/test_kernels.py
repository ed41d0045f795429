import mpmath
import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import j1 as scipy_j1

from hypersing import (
    CrackParams,
    FourierSymbol,
    RegularKernel,
    ScreenParams,
    SymbolDecayError,
    TailTruncationError,
    acoustic_kernel,
    assemble_characteristic,
    assemble_full,
    crack_exact,
    crack_problem,
    kernel_from_symbol,
    lu_factor,
    normalize_to_canonical,
    polynomial_kernel,
    screen_problem,
    solve_full,
    zero_kernel,
)
from hypersing import fullsolver
from hypersing.analytic import RightHandSide
from tests.conftest import gaussian_symbol


def screen_kernel_closed_form(d, k):
    # Independent oracle: the regular part equals
    # 1/(pi d^2) - (i k / 2) H1^(1)(k |d|)/|d| for the outgoing-wave branch,
    # evaluated at 50 digits on the exact product k|d|; the two terms cancel
    # to 1 part in 1e17 at k=1e-3, d=1e-6, which the precision absorbs.
    with mpmath.workdps(50):
        out = []
        for di in np.abs(np.asarray(d, dtype=float)):
            dm, km = mpmath.mpf(float(di)), mpmath.mpf(float(k))
            out.append(complex(
                1 / (mpmath.pi * dm * dm) - 0.5j * km * mpmath.hankel1(1, km * dm) / dm
            ))
    return np.array(out)


def test_polynomial_kernel_values():
    kernel = polynomial_kernel(3.0)
    assert kernel.eval(0.5, 0.2) == pytest.approx(0.9, rel=1e-15)
    zero = polynomial_kernel(0.0)
    assert np.all(zero.eval(np.linspace(-1, 1, 5), 0.3) == 0.0)


def test_polynomial_kernel_antiderivative_consistent():
    kernel = polynomial_kernel(3.0)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 10)
    t = rng.uniform(-1, 1, 10)
    step = 1e-6
    fd = (kernel.k1(x + step, t) - kernel.k1(x - step, t)) / (2 * step)
    assert np.max(np.abs(fd - kernel.eval(x, t))) <= 1e-8


@pytest.mark.parametrize(
    "kernel_factory",
    [
        lambda: polynomial_kernel(3.0),
        lambda: acoustic_kernel(ScreenParams(k=1.5, a=1.0)),
    ],
    ids=["polynomial", "screen"],
)
def test_convolution_shift_invariance(kernel_factory):
    kernel = kernel_factory()
    rng = np.random.default_rng(20)
    for _ in range(20):
        x, t = rng.uniform(-1.0, 1.0, 2)
        if abs(x - t) < 1e-3:
            t += 0.1
        c = rng.uniform(-1.0, 1.0)
        assert abs(kernel.eval(x + c, t + c) - kernel.eval(x, t)) <= 1e-10


def test_symbol_kernel_zero_remainder_gives_zero():
    symbol = FourierSymbol(
        L=lambda s: np.abs(s),
        A=1.0,
        L0=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        decay=1.0,
    )
    kernel = kernel_from_symbol(symbol, 50.0, tol=1e-8)
    assert np.all(np.abs(kernel.profile_batch(np.linspace(-2, 2, 7))) == 0.0)


def test_symbol_kernel_gaussian_diagonal_value():
    kernel = kernel_from_symbol(gaussian_symbol(), 10.0, tol=1e-6)
    assert kernel.eval(0.3, 0.3) == pytest.approx(1.0 / (2.0 * np.sqrt(np.pi)), abs=1e-9)


def test_symbol_kernel_lorentzian_table_value():
    symbol = FourierSymbol(
        L=lambda s: np.abs(s) + 1.0 / (1.0 + np.asarray(s, dtype=float) ** 2),
        A=1.0,
        L0=lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float) ** 2),
        decay=1.0,
    )
    kernel = kernel_from_symbol(symbol, 400.0, tol=1e-3)
    got = kernel.profile(1.0)
    assert got == pytest.approx(np.exp(-1.0) / 2.0, abs=1e-3)
    # brute force over the same truncated range; both carry the requested
    # 1e-3 quadrature budget
    brute = scipy_quad(
        lambda s: np.cos(s) / (1.0 + s * s) / np.pi, 0.0, 400.0, limit=800
    )[0]
    assert got == pytest.approx(brute, abs=1e-3)


def test_symbol_tail_bound_enforced():
    symbol = FourierSymbol(
        L=lambda s: np.abs(s) + 1.0 / (1.0 + np.asarray(s, dtype=float) ** 2),
        A=1.0,
        L0=lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float) ** 2),
        decay=1.0,
    )
    with pytest.raises(TailTruncationError):
        kernel_from_symbol(symbol, 20.0, tol=1e-9)


@pytest.mark.parametrize("symbol, match", [
    pytest.param(FourierSymbol(L=np.abs, A=1.0, L0=np.zeros_like, decay=0.0),
                 "decay exponent must be positive", id="decay-zero"),
    pytest.param(FourierSymbol(L=lambda s: 2.0 * np.abs(s), A=1.0, L0=np.zeros_like, decay=1.0),
                 r"does not equal A\|s\| \+ L0\(s\)", id="split-mismatch"),
])
def test_symbol_validation_refuses_bad_declarations(symbol, match):
    with pytest.raises(SymbolDecayError, match=match):
        symbol.validate()


def test_symbol_decay_violation_detected():
    lying = FourierSymbol(
        L=lambda s: np.abs(s) + 1.0 / (1.0 + np.abs(np.asarray(s, dtype=float))),
        A=1.0,
        L0=lambda s: 1.0 / (1.0 + np.abs(np.asarray(s, dtype=float))),
        decay=2.0,  # claims s^-3, actual decay is s^-1
    )
    with pytest.raises(SymbolDecayError):
        lying.validate()


def test_screen_kernel_matches_closed_form():
    # The k values put k|d| in every branch: series (< 2), backward
    # recurrence (2 to 25) and Hankel expansion (>= 25).
    d = np.geomspace(1e-6, 2.0, 64)
    for k in (1e-3, 0.5, 2.5, 40.0, 1e4):
        got = acoustic_kernel(ScreenParams(k=k, a=1.0)).profile_batch(d)
        ref = screen_kernel_closed_form(d, k)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13
    # k|d| up to 2e6 stays finite: every branch has a fixed trip count.
    wide = acoustic_kernel(ScreenParams(k=1e6, a=1.0)).profile_batch(
        np.linspace(1e-3, 2.0, 4000)
    )
    assert np.all(np.isfinite(wide))


def screen_branch_points(rng, per_range):
    # z = k|d| on both sides of every branch edge and band edge, and spread
    # through the series range, each Miller band and the Hankel range.
    edges = (2.0, 4.0, 8.0, 16.0, 25.0)
    ranges = ((1e-3, 2.0), (2.0, 4.0), (4.0, 8.0), (8.0, 16.0), (16.0, 25.0), (25.0, 400.0))
    near = [np.nextafter(e, side) for e in edges for side in (0.0, np.inf)] + list(edges)
    spread = [rng.uniform(lo, hi, per_range) for lo, hi in ranges]
    return np.concatenate([near, *spread])


def test_screen_kernel_bracket_at_branch_and_band_edges():
    # At k = 1 the profile is (1/(2z)) (Y1~(z) - i J1(z)), so this checks the
    # bracket of each branch and Miller start order, plus one rounding.
    # Measured maximum: 1.5e-15, at z = 20.04 in the Miller band [16, 25).
    z = screen_branch_points(np.random.default_rng(11), 120)
    got = acoustic_kernel(ScreenParams(k=1.0, a=1.0)).profile_batch(z)
    ref = screen_kernel_closed_form(z, 1.0)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14


def test_screen_kernel_value_independent_of_batch():
    # The work per point depends on its own z only, so a difference alone
    # and the same difference in a shuffled batch that spans every branch,
    # every Miller band and more than one chunk of the series come out
    # bit for bit the same.
    rng = np.random.default_rng(12)
    z = np.concatenate([screen_branch_points(rng, 300), rng.uniform(1e-3, 2.0, 4500)])
    rng.shuffle(z)
    kernel = acoustic_kernel(ScreenParams(k=1.0, a=1.0))
    batch = kernel.profile_batch(z)
    picks = np.concatenate([np.flatnonzero(z >= 2.0), rng.choice(z.size, 300, replace=False)])
    alone = np.array([kernel.profile_batch(z[i : i + 1])[0] for i in picks])
    assert np.array_equal(alone, batch[picks])


def test_screen_kernel_nonfinite_difference_gives_nan():
    kernel = acoustic_kernel(ScreenParams(k=1.0, a=1.0))
    finite = np.array([0.5, 3.0, 10.0, 30.0])
    d = np.array([np.nan, 0.5, np.inf, 3.0, -np.inf, 10.0, 30.0])
    got = kernel.profile_batch(d)
    assert np.all(np.isnan(got[[0, 2, 4]].real) & np.isnan(got[[0, 2, 4]].imag))
    assert np.array_equal(got[[1, 3, 5, 6]], kernel.profile_batch(finite))
    assert np.all(np.isnan(kernel.profile_batch(np.full(5000, np.inf))))


def test_screen_kernel_log_singularity_ratio():
    kernel = acoustic_kernel(ScreenParams(k=1.0, a=1.0))
    ratio = kernel.profile(1e-4).real / kernel.profile(1e-2).real
    assert abs(ratio - np.log(1e-4) / np.log(1e-2)) <= 0.5


def test_screen_kernel_vanishes_at_small_wavenumber():
    kernel = acoustic_kernel(ScreenParams(k=1e-3, a=1.0))
    assert abs(kernel.profile(0.5)) <= 1e-3


def test_screen_kernel_even():
    kernel = acoustic_kernel(ScreenParams(k=1.5, a=1.0))
    for d in (0.1, 0.7, 1.9):
        assert abs(kernel.profile(d) - kernel.profile(-d)) <= 1e-10


def test_screen_kernel_diagonal_rejected():
    kernel = acoustic_kernel(ScreenParams(k=1.0, a=1.0))
    with pytest.raises(ValueError, match="singular"):
        kernel.profile(0.0)


def test_crack_problem_right_hand_side_and_solution():
    params = CrackParams(sigma0=1.0, mu=1.0, nu=0.3, a=1.0)
    problem = crack_problem(params, 40)
    assert problem.kernel is None  # the characteristic equation
    assert problem.rhs.fprime(np.array([0.0]))[0] == pytest.approx(-0.7 * np.pi)
    solution = solve_full(problem)
    nodes = solution.nodes
    exact = crack_exact(1.0, 1.0, 0.3, 1.0, nodes)
    assert np.max(np.abs(solution(nodes) - exact)) <= 0.05 * 0.7


def test_crack_zero_load_and_linear_scaling():
    lo = crack_problem(CrackParams(sigma0=1.0, mu=2.0, nu=0.25, a=1.5), 16)
    hi = crack_problem(CrackParams(sigma0=2.0, mu=2.0, nu=0.25, a=1.5), 16)
    assert np.array_equal(
        2.0 * solve_full(lo).values, solve_full(hi).values
    )
    zero = crack_problem(CrackParams(sigma0=0.0, mu=2.0, nu=0.25, a=1.5), 16)
    assert np.all(solve_full(zero).values == 0.0)


def test_screen_problem_is_scaled_raw_operator():
    # The canonical system must be exactly -pi times the operator of the
    # unnormalized equation (singular part -1/pi, kernel K0, rhs -ik): the
    # raw kernel's cell integrals, its logarithm's product weights included,
    # scale with the kernel.
    params = ScreenParams(k=0.5, a=1.0)
    problem = screen_problem(params, 16)
    canonical = assemble_full(problem)
    mesh = problem.mesh
    char = assemble_characteristic(mesh)
    profile = fullsolver._difference_table(mesh, acoustic_kernel(params))
    raw_matrix = (-1.0 / np.pi) * char + profile[np.subtract.outer(range(16), range(16)) + 15]
    assert np.max(np.abs(canonical - (-np.pi) * raw_matrix)) <= 1e-10
    rhs_val = problem.rhs.fprime(np.array([0.0]))[0]
    assert rhs_val == pytest.approx(np.pi * 0.5j, rel=1e-15)


def test_screen_solution_conjugation_symmetry(screen_cases):
    problem, solution, _ = screen_cases(0.5)
    matrix = assemble_full(problem)
    rhs = problem.rhs.fprime(problem.mesh.colloc) * np.ones(problem.mesh.n)
    conj_solution = lu_factor(np.conj(matrix)).solve(np.conj(rhs))
    assert np.max(np.abs(conj_solution - np.conj(solution.values))) <= 1e-12 * np.max(
        np.abs(solution.values)
    )


def test_screen_outgoing_branch_sign(screen_cases):
    # The scattered field on the screen must carry a negative imaginary
    # part at the center for the low-frequency benchmark; this pins the
    # square-root branch below the wavenumber.
    _, solution, _ = screen_cases(0.5)
    assert solution(0.0).imag < 0.0


def test_normalize_to_canonical_crack_numbers():
    load = 2.0 * np.pi * 0.7  # sigma0 = mu = 1, nu = 0.3
    raw = RightHandSide(
        fprime=lambda x: load * np.ones_like(np.asarray(x, dtype=float)),
        f=lambda x: load * np.asarray(x, dtype=float),
    )
    rhs, kernel = normalize_to_canonical(-2.0, raw, zero_kernel())
    assert rhs.fprime(np.array([0.3]))[0] == pytest.approx(-np.pi * 0.7, rel=1e-15)
    assert np.all(kernel.eval(np.array([0.1]), np.array([0.9])) == 0.0)


def test_normalize_to_canonical_screen_numbers():
    raw = RightHandSide(
        fprime=lambda x: np.full(np.shape(np.asarray(x)), -0.5j),
        f=lambda x: -0.5j * np.asarray(x, dtype=complex),
    )
    rhs, _ = normalize_to_canonical(-1.0 / np.pi, raw, zero_kernel())
    assert rhs.fprime(np.array([0.0]))[0] == pytest.approx(0.5j * np.pi, rel=1e-15)


def test_normalize_to_canonical_identity_and_zero():
    raw = RightHandSide(fprime=lambda x: np.asarray(x, dtype=float) ** 2)
    rhs, kernel = normalize_to_canonical(1.0, raw, polynomial_kernel(2.0))
    assert rhs.fprime(np.array([0.5]))[0] == pytest.approx(0.25, rel=1e-15)
    assert kernel.eval(0.5, 0.2) == pytest.approx(polynomial_kernel(2.0).eval(0.5, 0.2))
    with pytest.raises(ValueError, match="nonzero"):
        normalize_to_canonical(0.0, raw, zero_kernel())


def test_even_declaration():
    # The closed-form and symbol kernels are even and say so; the linear
    # kernel is odd.  Only a difference kernel can be declared even, and
    # rescaling keeps the declaration.
    assert acoustic_kernel(ScreenParams(k=1.5, a=1.0)).even
    assert kernel_from_symbol(gaussian_symbol(), 10.0, tol=1e-6).even
    assert not polynomial_kernel(2.0).even
    with pytest.raises(ValueError, match="even"):
        RegularKernel(eval=lambda x, t: np.asarray(x) - np.asarray(t), even=True)
    raw = RightHandSide(fprime=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    for kernel in (acoustic_kernel(ScreenParams(k=1.5, a=1.0)), polynomial_kernel(2.0)):
        _, scaled = normalize_to_canonical(-2.0, raw, kernel)
        assert scaled.even == kernel.even
    assert screen_problem(ScreenParams(k=1.5, a=1.0), 8).kernel.even


def screen_log_coefficient(d, k):
    # S(d) = (k/(pi|d|)) J1(k|d|), the coefficient of ln|d| in the screen
    # kernel, from scipy's J1.
    d = np.abs(np.asarray(d, dtype=float))
    return k / (np.pi * d) * scipy_j1(k * d)


def test_log_coefficient_declaration():
    # The screen kernel maps its own values to S = -(2/pi) Im K0, which is
    # (k/(pi|d|)) J1(k|d|); only a difference kernel can declare it.
    d = np.concatenate([-np.geomspace(1e-6, 2.0, 40), np.geomspace(1e-6, 2.0, 40)])
    for k in (1e-3, 0.5, 2.5, 40.0):
        kernel = acoustic_kernel(ScreenParams(k=k, a=1.0))
        got = kernel.log_coefficient(kernel.profile(d))
        want = screen_log_coefficient(d, k)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert polynomial_kernel(2.0).log_coefficient is None
    assert kernel_from_symbol(gaussian_symbol(), 10.0, tol=1e-6).log_coefficient is None
    with pytest.raises(ValueError, match="log_coefficient"):
        RegularKernel(eval=lambda x, t: np.log(np.abs(np.asarray(x) - np.asarray(t))),
                      log_coefficient=np.ones_like)


@pytest.mark.parametrize("coefficient", [-1.0 / np.pi, 2.0 - 3.0j, 1j])
def test_normalize_to_canonical_carries_log_coefficient(coefficient):
    # The scaled kernel is K0/c, so its log coefficient is S/c; it is read
    # off the scaled values, also for a complex c, whose division mixes
    # the real and imaginary parts of K0.
    k = 2.5
    raw = RightHandSide(fprime=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    _, scaled = normalize_to_canonical(coefficient, raw, acoustic_kernel(ScreenParams(k=k, a=1.0)))
    d = np.linspace(-2.0, 2.0, 40)
    got = scaled.log_coefficient(scaled.profile(d))
    want = screen_log_coefficient(d, k) / coefficient
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    _, plain = normalize_to_canonical(coefficient, raw, polynomial_kernel(2.0))
    assert plain.log_coefficient is None


def test_parameter_validation():
    with pytest.raises(ValueError):
        CrackParams(sigma0=1.0, mu=0.0, nu=0.3, a=1.0)
    with pytest.raises(ValueError):
        CrackParams(sigma0=1.0, mu=1.0, nu=0.5, a=1.0)
    with pytest.raises(ValueError):
        ScreenParams(k=0.0, a=1.0)
    with pytest.raises(ValueError):
        ScreenParams(k=1.0, a=-1.0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        for field in ("sigma0", "mu", "nu", "a"):
            values = {"sigma0": 1.0, "mu": 1.0, "nu": 0.3, "a": 1.0, field: bad}
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                CrackParams(**values)
        for field in ("k", "a"):
            values = {"k": 1.0, "a": 1.0, field: bad}
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                ScreenParams(**values)
        with pytest.raises(ValueError, match="^A must be finite"):
            polynomial_kernel(bad)
    with pytest.raises(ValueError, match="profile_batch or eval"):
        RegularKernel()

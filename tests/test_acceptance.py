"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -rA tests/test_acceptance.py`` to see every line.
"""

import time

import numpy as np
import pytest

from hypersing import (
    FullProblem,
    RightHandSide,
    ScreenParams,
    assemble_characteristic,
    assemble_full,
    characteristic_determinant_closed_form,
    chebyshev_U,
    crack_exact,
    crack_problem,
    CrackParams,
    finite_part,
    finite_part_constant,
    full_example_exact,
    invert_characteristic,
    lu_factor,
    make_mesh,
    polynomial_kernel,
    screen_problem,
    solve_characteristic,
    solve_full,
)
from tests.conftest import unit_semicircle
from tests.test_hypersingular import weighted_cheb_density


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")


def test_acceptance_1_semicircle_benchmark(semicircle_rhs):
    start = time.perf_counter()
    solution = solve_characteristic(make_mesh(-1.0, 1.0, 40), semicircle_rhs)
    elapsed = time.perf_counter() - start
    nodes = solution.nodes
    err = float(np.max(np.abs(solution(nodes) - unit_semicircle(nodes))))
    ok = err <= 0.05 and elapsed < 1.0
    _report(1, "semicircle benchmark n=40", ok,
            f"max node error {err:.4f} <= 0.05, runtime {elapsed:.3f}s < 1s")
    assert ok


def test_acceptance_2_center_convergence(semicircle_rhs):
    errors = []
    for n in (10, 20, 40, 80, 160):
        solution = solve_characteristic(make_mesh(-1.0, 1.0, n), semicircle_rhs)
        node = solution.nodes[np.argmin(np.abs(solution.nodes))]
        errors.append(abs(solution(node) - unit_semicircle(node)))
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    ok = all(e2 < e1 for e1, e2 in zip(errors, errors[1:])) and all(
        r <= 0.8 for r in ratios
    )
    _report(2, "center-node convergence", ok,
            "ratios " + ", ".join(f"{r:.3f}" for r in ratios) + " all <= 0.8")
    assert ok


def test_acceptance_3_linear_kernel_benchmark(semicircle_rhs):
    problem = FullProblem(
        mesh=make_mesh(-1.0, 1.0, 40), rhs=semicircle_rhs, kernel=polynomial_kernel(3.0)
    )
    solution = solve_full(problem)
    nodes = solution.nodes
    err = float(np.max(np.abs(solution(nodes) - full_example_exact(3.0, nodes))))
    ok = err <= 0.05
    _report(3, "linear-kernel benchmark n=40", ok, f"max node error {err:.4f} <= 0.05")
    assert ok


def test_acceptance_4_crack_benchmark():
    problem = crack_problem(CrackParams(sigma0=1.0, mu=1.0, nu=0.3, a=1.0), 40)
    solution = solve_full(problem)
    nodes = solution.nodes
    exact = crack_exact(1.0, 1.0, 0.3, 1.0, nodes)
    err = float(np.max(np.abs(solution(nodes) - exact)))
    ok = err <= 0.035
    _report(4, "crack benchmark n=40", ok, f"max node error {err:.4f} <= 0.035")
    assert ok


def test_acceptance_5_determinant_identity():
    worst = 0.0
    for interval in ((-1.0, 1.0), (0.0, 3.0)):
        for n in range(2, 9):
            mesh = make_mesh(*interval, n)
            closed = characteristic_determinant_closed_form(mesh)
            numeric = lu_factor(assemble_characteristic(mesh)).determinant()
            worst = max(worst, abs(closed - numeric) / abs(numeric))
    ok = worst <= 1e-8
    _report(5, "determinant identity n=2..8", ok, f"worst relative {worst:.2e} <= 1e-8")
    assert ok


def test_acceptance_6_finite_part_eigenrelation():
    worst = 0.0
    xs = np.linspace(-0.95, 0.95, 21)
    for j in range(9):
        density = weighted_cheb_density(j)
        for x in xs:
            got = finite_part(density, -1.0, 1.0, float(x), 1e-9)
            worst = max(worst, abs(got + np.pi * (j + 1) * chebyshev_U(j, float(x))))
    ok = worst <= 1e-6
    _report(6, "finite-part eigenrelation j<=8", ok, f"worst abs {worst:.2e} <= 1e-6")
    assert ok


def test_acceptance_7_analytic_inversion(semicircle_rhs):
    inversion = invert_characteristic(semicircle_rhs, -1.0, 1.0, 64)
    xs = -1.0 + 2.0 * np.arange(1, 12) / 12.0
    worst = float(np.max(np.abs(inversion.g(xs) - unit_semicircle(xs))))
    ok = worst <= 1e-6
    _report(7, "analytic inversion m=64", ok, f"worst abs {worst:.2e} <= 1e-6")
    assert ok


def _fourier_transform(g, xi):
    """ĝ(ξ) = ∫ g(t) e^{-iξt} dt over the screen (-1, 1), by 512 Gauss-Legendre panels."""
    u, w = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(-1.0, 1.0, 513)
    half = 0.5 * np.diff(edges)[:, None]
    t = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * u).ravel()
    weights = (half * w).ravel()
    return np.exp(-1j * np.outer(np.atleast_1d(xi), t)) @ (weights * g(t))


def _energy_balance_ratio(g, k):
    """Scattered power over extinction for the screen field g; 1 if energy is conserved.

    g is the scattered field on the lit face y=0+ of a rigid screen on
    y=0 under the incident wave e^{-iky} (time factor e^{-iωt}).  The
    scattered field is odd in y, so g is half its jump across the screen,
    and off the screen it is the plane-wave expansion

        u_s(x, y) = sign(y)/(2π) ∫ ĝ(ξ) e^{iξx + iγ|y|} dξ,   γ = √(k² - ξ²),

    with Im γ ≥ 0 (outgoing).  By Parseval, the power that u_s carries
    away through each of the planes y = ±Y is (1/2π) ∫_{-k}^{k} |ĝ|² γ dξ,
    so the scattered power is (1/π) ∫_{-k}^{k} |ĝ(ξ)|² √(k² - ξ²) dξ.
    The cross terms of u_s with the incident wave only see ξ = 0: through
    y = -Y they take 2k Re ĝ(0) out of the transmitted beam, and through
    y = +Y they cancel.  With no absorption the two must balance (the 2-D
    optical theorem; Colton & Kress, Inverse Acoustic and Electromagnetic
    Scattering Theory, §3.3).  The scattered power is quadratic in g and
    the extinction linear, so g scaled by c returns c times the ratio.
    Substituting ξ = k cos θ smooths the square-root weight.
    """
    u, w = np.polynomial.legendre.leggauss(64)
    theta = 0.5 * np.pi * (u + 1.0)
    g_hat = _fourier_transform(g, k * np.cos(theta))
    scattered = k * k * np.sum(0.5 * np.pi * w * np.abs(g_hat) ** 2 * np.sin(theta) ** 2)
    extinction = 2.0 * k * _fourier_transform(g, 0.0)[0].real
    return scattered / np.pi / extinction


def test_acceptance_8_screen_oracle_crosscheck(screen_cases):
    """Collocation against the spectral oracle, with the scale pinned by physics.

    Both solvers take the screen equation and its -1/π normalization from
    ``screen_problem``, so their agreement says nothing about the scale of
    g.  Two clauses pin it with closed-form physics and numpy quadrature of
    the returned solution only: the energy balance of
    ``_energy_balance_ratio``, and the potential-flow limit.  As k → 0 the
    field near the strip |x| < a obeys Laplace's equation, is odd in y, and
    has normal derivative ∂u_s/∂y = -∂(e^{-iky})/∂y = ik on the strip.  The
    complex potential -iW(√(z² - a²) - z) of a strip in a uniform flow
    normal to it has ∂φ/∂y = -W on the strip and φ(x, 0+) = W√(a² - x²),
    so W = -ik gives g → -ik√(a² - x²).  The peak of Re g/(-ik) is then
    order one and tends to 1; divided by -πik instead it tends to 1/π.

    The energy clause ties g to the right-hand side and the radiating part
    of the kernel; a wrong singular coefficient leaves it near 1, and the
    potential-flow clause catches that.  Its deviation peaks at the node
    next to each end, where the n=80 characteristic solve alone is 2.4e-2
    off √(1 - x²) (the strict xfail in test_characteristic), so its bound
    is 3e-2.
    """
    checks = []
    for k in (0.5, 1.5, 2.5):
        _, solution, oracle = screen_cases(k)
        rel = abs(solution(0.0) - oracle(0.0)) / abs(oracle(0.0))
        checks.append((f"k={k} center agreement {rel:.2e} <= 1e-2", rel <= 1e-2))

    _, solution, _ = screen_cases(0.5)
    factor = -np.pi * 1j * 0.5
    nodes = solution.nodes
    n = len(nodes)
    re_eval = (solution(nodes) / factor).real
    evenness = max(abs(re_eval[j] - re_eval[n - 2 - j]) for j in range(n - 1))
    checks.append((f"k=0.5 evenness {evenness:.2e} <= 1e-3", evenness <= 1e-3))

    re_raw = (solution.values / factor).real
    pi_peak = float(np.max(re_eval))
    edge = max(abs(re_raw[0]), abs(re_raw[-1]))
    checks.append(
        (f"k=0.5 edge values {edge:.3f} <= 0.2*peak={0.2 * pi_peak:.3f}",
         edge <= 0.2 * pi_peak)
    )

    for k in (0.5, 1.5, 2.5):
        ratio = _energy_balance_ratio(screen_cases(k)[1], k)
        checks.append(
            (f"k={k} energy balance {ratio:.4f} within 1e-2 of 1", abs(ratio - 1.0) <= 1e-2)
        )

    k = 0.05
    limit = solve_full(screen_problem(ScreenParams(k=k, a=1.0), 80))
    limit_nodes = limit.nodes
    flow = np.sqrt(np.clip(1.0 - limit_nodes**2, 0.0, None))
    deviation = float(np.max(np.abs((limit(limit_nodes) / (-1j * k)).real - flow)))
    checks.append(
        (f"k=0.05 potential-flow deviation {deviation:.2e} <= 3e-2", deviation <= 3e-2)
    )

    peak = float(np.max((solution(nodes) / (-1j * 0.5)).real))
    checks.append(
        (f"k=0.5 peak of Re g/(-ik) {peak:.3f} in [0.9, 1.4]", 0.9 <= peak <= 1.4)
    )

    ok = all(flag for _, flag in checks)
    detail = "; ".join(label for label, _ in checks)
    _report(8, "screen cross-check", ok, detail)
    assert ok, "failed clauses: " + "; ".join(
        label for label, flag in checks if not flag
    )


def test_acceptance_8_energy_clause_rejects_wrong_scale(screen_cases):
    """The k=0.5 solution scaled by 2 or by π fails the energy clause."""
    solution = screen_cases(0.5)[1]
    base = _energy_balance_ratio(solution, 0.5)
    for c in (2.0, np.pi):
        ratio = _energy_balance_ratio(lambda x, c=c: c * solution(x), 0.5)
        assert abs(ratio - 1.0) > 1e-2, (c, ratio)
        assert ratio == pytest.approx(c * base, rel=1e-12)


def test_acceptance_9_property_suite(semicircle_rhs, screen_cases):
    start = time.perf_counter()
    results = []

    # telescoping row sums
    mesh = make_mesh(-1.0, 1.0, 40)
    sums = assemble_characteristic(mesh).sum(axis=1)
    want = np.array([finite_part_constant(-1.0, 1.0, x) for x in mesh.colloc])
    tel = float(np.max(np.abs(sums - want) / np.abs(want)))
    results.append((f"telescoping {tel:.2e} <= 1e-12", tel <= 1e-12))

    # zero right-hand side
    zero_rhs = RightHandSide(fprime=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    zsol = solve_characteristic(mesh, zero_rhs)
    results.append(("zero rhs -> zero solution", bool(np.all(zsol.values == 0.0))))

    # linearity under scalar scaling of the right-hand side
    base = solve_characteristic(mesh, semicircle_rhs).values
    lin_ok = True
    for alpha in (2.0, -1.0, 1j):
        scaled_rhs = RightHandSide(
            fprime=lambda x, al=alpha: al * -np.pi * np.ones_like(np.asarray(x, dtype=float))
        )
        problem = FullProblem(mesh=mesh, rhs=scaled_rhs, kernel=polynomial_kernel(0.0))
        got = solve_full(problem).values
        lin_ok &= bool(
            np.max(np.abs(got - alpha * base)) <= 1e-12 * np.max(np.abs(base))
        )
    results.append(("linearity over {2, -1, i} to 1e-12", lin_ok))

    # kernel shift invariance
    kernel = polynomial_kernel(3.0)
    rng = np.random.default_rng(99)
    shift_ok = True
    for _ in range(20):
        x, t, c = rng.uniform(-1.0, 1.0, 3)
        shift_ok &= abs(kernel.eval(x + c, t + c) - kernel.eval(x, t)) <= 1e-10
    results.append(("kernel shift invariance to 1e-10", shift_ok))

    # conjugation symmetry of the screen system
    problem, solution, _ = screen_cases(0.5)
    matrix = assemble_full(problem)
    rhs_vec = np.asarray(problem.rhs.fprime(problem.mesh.colloc))
    conj = lu_factor(np.conj(matrix)).solve(np.conj(rhs_vec))
    cdev = float(
        np.max(np.abs(conj - np.conj(solution.values)))
        / np.max(np.abs(solution.values))
    )
    results.append((f"conjugation symmetry {cdev:.2e} <= 1e-12", cdev <= 1e-12))

    elapsed = time.perf_counter() - start
    results.append((f"property runtime {elapsed:.2f}s < 60s", elapsed < 60.0))

    ok = all(flag for _, flag in results)
    _report(9, "property suite", ok, "; ".join(label for label, _ in results))
    assert ok, "failed: " + "; ".join(label for label, flag in results if not flag)

"""Command line front end: solve packaged problems and write CSV comparison tables.

Every command writes one row per solution node with the numeric value,
the reference value (closed form or spectral oracle), and the absolute
error, then prints the maximum error and the condition estimate to
standard error.  Formatting is fixed at 17 significant digits with
newline line endings, so identical configurations produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from hypersing.analytic import (
    RightHandSide,
    crack_exact,
    full_example_exact,
    invert_characteristic,
)
from hypersing.fullsolver import FullProblem, KernelEvaluationError, solve_full
from hypersing.characteristic import solve_characteristic
from hypersing.hypersingular import Density, finite_part, finite_part_constant
from hypersing.kernels import (
    CrackParams,
    ScreenParams,
    SymbolDecayError,
    TailTruncationError,
    crack_problem,
    polynomial_kernel,
    screen_problem,
)
from hypersing.linalg import SingularMatrixError
from hypersing.mesh import make_mesh
from hypersing.quadrature import QuadratureConvergenceError
from hypersing.spectral import chebyshev_U, solve_spectral

_LIBRARY_ERRORS = (
    QuadratureConvergenceError,
    SingularMatrixError,
    KernelEvaluationError,
    TailTruncationError,
    SymbolDecayError,
    ValueError,
)


@dataclass
class RunConfig:
    """One CLI invocation: command, interval, sizes, parameters, output."""

    command: str
    a: float = -1.0
    b: float = 1.0
    n: int = 40
    A: float = 0.0
    sigma0: float = 1.0
    mu: float = 1.0
    nu: float = 0.3
    k: float = 0.5
    tol: float = 1e-6
    m: int = 64
    N: int = 32
    mquad: int = 128
    j: int = 0
    density: str = "const"
    problem: str = "screen"
    normalize: bool = False
    out: str = "-"
    fmt: str = "csv"


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_table(config: RunConfig, x, numeric, reference) -> float:
    numeric = np.asarray(numeric)
    reference = np.asarray(reference)
    abs_err = np.abs(numeric - reference)
    sep = "\t" if config.fmt == "tsv" else ","
    lines = []
    if np.iscomplexobj(numeric) or np.iscomplexobj(reference):
        numeric = numeric.astype(complex)
        reference = reference.astype(complex)
        lines.append(
            sep.join(
                [
                    "x",
                    "numeric_re",
                    "numeric_im",
                    "exact_or_oracle_re",
                    "exact_or_oracle_im",
                    "abs_error",
                ]
            )
        )
        for xi, ni, ri, ei in zip(x, numeric, reference, abs_err):
            lines.append(
                sep.join(
                    [
                        _fmt(xi),
                        _fmt(ni.real),
                        _fmt(ni.imag),
                        _fmt(ri.real),
                        _fmt(ri.imag),
                        _fmt(ei),
                    ]
                )
            )
    else:
        lines.append(sep.join(["x", "numeric", "exact_or_oracle", "abs_error"]))
        for xi, ni, ri, ei in zip(x, numeric, reference, abs_err):
            lines.append(sep.join([_fmt(xi), _fmt(ni), _fmt(ri), _fmt(ei)]))
    text = "\n".join(lines) + "\n"
    if config.out == "-":
        sys.stdout.write(text)
    else:
        with open(config.out, "w", newline="") as handle:
            handle.write(text)
    return float(np.max(abs_err))


def _summary(max_err: float, condition: Optional[float]) -> None:
    cond = condition if condition is not None else float("nan")
    print(
        f"max_abs_error={max_err:.6e} condition_estimate={cond:.6e}",
        file=sys.stderr,
    )


def _run_characteristic(config: RunConfig) -> int:
    mesh = make_mesh(config.a, config.b, config.n)
    rhs = RightHandSide(
        fprime=lambda x: -np.pi * np.ones_like(np.asarray(x, dtype=float)),
        f=lambda x: -np.pi * np.asarray(x, dtype=float),
        description="constant right-hand side -pi",
    )
    solution = solve_characteristic(mesh, rhs)
    oracle = invert_characteristic(rhs, config.a, config.b, config.m).g
    nodes = solution.nodes
    max_err = _write_table(config, nodes, solution(nodes), oracle(nodes))
    _summary(max_err, solution.condition)
    return 0


def _run_full(config: RunConfig) -> int:
    mesh = make_mesh(-1.0, 1.0, config.n)
    rhs = RightHandSide(
        fprime=lambda x: -np.pi * np.ones_like(np.asarray(x, dtype=float)),
        f=lambda x: -np.pi * np.asarray(x, dtype=float),
        description="constant right-hand side -pi",
    )
    problem = FullProblem(mesh=mesh, rhs=rhs, kernel=polynomial_kernel(config.A))
    solution = solve_full(problem)
    nodes = solution.nodes
    max_err = _write_table(
        config, nodes, solution(nodes), full_example_exact(config.A, nodes)
    )
    _summary(max_err, solution.condition)
    return 0


def _run_crack(config: RunConfig) -> int:
    params = CrackParams(sigma0=config.sigma0, mu=config.mu, nu=config.nu, a=config.a)
    problem = crack_problem(params, config.n)
    solution = solve_full(problem)
    nodes = solution.nodes
    exact = crack_exact(params.sigma0, params.mu, params.nu, params.a, nodes)
    max_err = _write_table(config, nodes, solution(nodes), exact)
    _summary(max_err, solution.condition)
    return 0


def _run_screen(config: RunConfig) -> int:
    params = ScreenParams(k=config.k, a=config.a)
    problem = screen_problem(params, config.n)
    solution = solve_full(problem)
    oracle = solve_spectral(
        problem.kernel,
        problem.rhs,
        config.N,
        config.mquad,
        interval=(-params.a, params.a),
    )
    nodes = solution.nodes
    numeric = solution(nodes)
    reference = oracle(nodes)
    if config.normalize:
        factor = -np.pi * 1j * params.k
        numeric = numeric / factor
        reference = reference / factor
    max_err = _write_table(config, nodes, numeric, reference)
    _summary(max_err, solution.condition)
    return 0


def _run_finite_part(config: RunConfig) -> int:
    mesh = make_mesh(config.a, config.b, config.n)
    points = mesh.colloc
    center = 0.5 * (config.a + config.b)
    radius = 0.5 * (config.b - config.a)
    if config.density == "const":
        density = Density(
            value=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            deriv=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            second_deriv=lambda t: 0.0,
        )
        reference = np.array(
            [finite_part_constant(config.a, config.b, x) for x in points]
        )
    else:
        j = config.j

        def value(t):
            xi = (np.asarray(t, dtype=float) - center) / radius
            xi = np.clip(xi, -1.0, 1.0)
            return np.sqrt(1.0 - xi * xi) * chebyshev_U(j, xi)

        def deriv(t):
            xi = np.clip((np.asarray(t, dtype=float) - center) / radius, -1.0, 1.0)
            theta = np.arccos(xi)
            return -(j + 1) * np.cos((j + 1) * theta) / np.sqrt(1.0 - xi * xi) / radius

        density = Density(value=value, deriv=deriv)
        reference = np.array(
            [-np.pi * (j + 1) * chebyshev_U(j, (x - center) / radius) / radius
             for x in points]
        )
    numeric = np.array(
        [finite_part(density, config.a, config.b, float(x), config.tol) for x in points]
    )
    max_err = _write_table(config, points, numeric, reference)
    _summary(max_err, None)
    return 0


def _run_spectral_compare(config: RunConfig) -> int:
    if config.problem == "screen":
        params = ScreenParams(k=config.k, a=config.a)
        problem = screen_problem(params, config.n)
        interval = (-params.a, params.a)
    else:
        mesh = make_mesh(-1.0, 1.0, config.n)
        rhs = RightHandSide(
            fprime=lambda x: -np.pi * np.ones_like(np.asarray(x, dtype=float)),
            f=lambda x: -np.pi * np.asarray(x, dtype=float),
        )
        problem = FullProblem(mesh=mesh, rhs=rhs, kernel=polynomial_kernel(config.A))
        interval = (-1.0, 1.0)
    solution = solve_full(problem)
    oracle = solve_spectral(
        problem.kernel, problem.rhs, config.N, config.mquad, interval=interval
    )
    nodes = solution.nodes
    max_err = _write_table(config, nodes, solution(nodes), oracle(nodes))
    _summary(max_err, solution.condition)
    return 0


_RUNNERS = {
    "characteristic": _run_characteristic,
    "full": _run_full,
    "crack": _run_crack,
    "screen": _run_screen,
    "finite-part": _run_finite_part,
    "spectral-compare": _run_spectral_compare,
}


def run(config: RunConfig) -> int:
    """Execute one configuration; returns the process exit status."""
    try:
        return _RUNNERS[config.command](config)
    except _LIBRARY_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: file i/o: {exc}", file=sys.stderr)
        return 1


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output path, '-' for stdout")
    parser.add_argument(
        "--format", dest="fmt", choices=("csv", "tsv"), default="csv",
        help="output format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersing",
        description="Collocation solvers for hypersingular integral equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characteristic", help="characteristic equation benchmark")
    p.add_argument("--a", type=float, default=-1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--m", type=int, default=64, help="oracle quadrature nodes")
    _add_output_flags(p)

    p = sub.add_parser("full", help="full equation with linear convolution kernel")
    p.add_argument("--A", type=float, required=True, help="kernel slope")
    p.add_argument("--n", type=int, default=40)
    _add_output_flags(p)

    p = sub.add_parser("crack", help="pressurized crack opening")
    p.add_argument("--sigma0", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.3)
    p.add_argument("--a", type=float, default=1.0, help="crack half-length")
    p.add_argument("--n", type=int, default=40)
    _add_output_flags(p)

    p = sub.add_parser("screen", help="rigid screen diffraction")
    p.add_argument("--k", type=float, required=True, help="wavenumber")
    p.add_argument("--a", type=float, default=1.0, help="screen half-length")
    p.add_argument("--n", type=int, default=80)
    p.add_argument("--N", type=int, default=32, help="oracle expansion terms")
    p.add_argument("--mquad", type=int, default=128, help="oracle quadrature nodes")
    p.add_argument("--normalize", action="store_true",
                   help="divide values by -pi*i*k; as k -> 0 these tend to "
                   "sqrt(a^2-x^2)/pi, i.e. sqrt(1-x^2)/pi for a=1")
    _add_output_flags(p)

    p = sub.add_parser("finite-part", help="finite-part integral of a test density")
    p.add_argument("--a", type=float, default=-1.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--density", choices=("const", "cheb"), default="const")
    p.add_argument("--j", type=int, default=0, help="degree for the cheb density")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_output_flags(p)

    p = sub.add_parser("spectral-compare", help="collocation vs spectral oracle")
    p.add_argument("--problem", choices=("screen", "full"), default="screen")
    p.add_argument("--k", type=float, default=0.5)
    p.add_argument("--A", type=float, default=3.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--n", type=int, default=80)
    p.add_argument("--N", type=int, default=32)
    p.add_argument("--mquad", type=int, default=128)
    _add_output_flags(p)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    payload = {k: v for k, v in vars(args).items() if v is not None}
    return run(RunConfig(**payload))


if __name__ == "__main__":
    sys.exit(main())

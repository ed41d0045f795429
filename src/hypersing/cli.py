"""Command line front end: solve packaged problems and write CSV comparison tables.

Each command's runner only builds and solves its problem and returns its
columns: the solution nodes, the numeric values, the reference values
(closed form or spectral oracle) and the condition estimate.  One writer
then formats every table: one row per node with the numeric value, the
reference value and the absolute error (real and imaginary parts in
separate columns when either side is complex), followed by the maximum
error and the condition estimate on standard error.  Formatting is fixed
at 17 significant digits with newline line endings, so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import Optional

import numpy as np

from hypersing.analytic import (
    RightHandSide,
    crack_exact,
    full_example_exact,
    invert_characteristic,
)
from hypersing.fullsolver import (
    FullProblem,
    KernelEvaluationError,
    solve_characteristic,
    solve_full,
)
from hypersing.hypersingular import Density, finite_part, finite_part_constant
from hypersing.kernels import (
    CrackParams,
    ScreenParams,
    crack_problem,
    polynomial_kernel,
    screen_problem,
)
from hypersing.linalg import check_dense_size
from hypersing.mesh import make_mesh
from hypersing.quadrature import QuadratureConvergenceError
from hypersing.spectral import chebyshev_U, solve_spectral

_LIBRARY_ERRORS = (QuadratureConvergenceError, KernelEvaluationError, ValueError)

# Table rows formatted and written per write call, in one ``%`` on the row
# format repeated per row: the Python floats and the text of one block are
# alive at a time, not those of the whole table.
_ROWS_PER_BLOCK = 16384

# The constant load -pi of the characteristic and linear-kernel benchmarks.
_PI_LOAD = RightHandSide(
    fprime=lambda x: -np.pi * np.ones_like(np.asarray(x, dtype=float)),
    f=lambda x: -np.pi * np.asarray(x, dtype=float),
)


def _write_table(args: argparse.Namespace, x, numeric, reference) -> float:
    numeric = np.asarray(numeric)
    reference = np.asarray(reference)
    abs_err = np.abs(numeric - reference)
    if np.iscomplexobj(numeric) or np.iscomplexobj(reference):
        header = ["x", "numeric_re", "numeric_im",
                  "exact_or_oracle_re", "exact_or_oracle_im", "abs_error"]
        columns = [x, numeric.real, numeric.imag,
                   reference.real, reference.imag, abs_err]
    else:
        header = ["x", "numeric", "exact_or_oracle", "abs_error"]
        columns = [x, numeric, reference, abs_err]
    sep = "\t" if args.fmt == "tsv" else ","
    row = sep.join(["%.17g"] * len(columns)) + "\n"
    if args.out == "-":
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(args.out, "w", newline="")
    with target as handle:
        handle.write(sep.join(header) + "\n")
        for start in range(0, len(abs_err), _ROWS_PER_BLOCK):
            rows = slice(start, start + _ROWS_PER_BLOCK)
            block = np.column_stack([column[rows] for column in columns])
            handle.write(row * len(block) % tuple(block.ravel().tolist()))
    return float(np.max(abs_err))


def _run_characteristic(args: argparse.Namespace):
    solution = solve_characteristic(make_mesh(args.a, args.b, args.n), _PI_LOAD)
    oracle = invert_characteristic(_PI_LOAD, args.a, args.b).g
    nodes = solution.nodes
    return nodes, solution(nodes), oracle(nodes), solution.condition


def _linear_kernel_problem(args: argparse.Namespace) -> FullProblem:
    mesh = make_mesh(-1.0, 1.0, args.n)
    return FullProblem(mesh=mesh, rhs=_PI_LOAD, kernel=polynomial_kernel(args.A))


def _run_full(args: argparse.Namespace):
    solution = solve_full(_linear_kernel_problem(args))
    nodes = solution.nodes
    return nodes, solution(nodes), full_example_exact(args.A, nodes), solution.condition


def _run_crack(args: argparse.Namespace):
    params = CrackParams(sigma0=args.sigma0, mu=args.mu, nu=args.nu, a=args.a)
    solution = solve_full(crack_problem(params, args.n))
    nodes = solution.nodes
    exact = crack_exact(params.sigma0, params.mu, params.nu, params.a, nodes)
    return nodes, solution(nodes), exact, solution.condition


def _against_oracle(problem: FullProblem, interval, N: int):
    # The oracle runs at mquad = 2N; its 2N x (2N + 1) table is refused before either solve.
    check_dense_size("N", N, 2 * N, 2 * N + 1)
    # Collocation before the oracle: perfbench pins the kernel batches in this order.
    solution = solve_full(problem)
    oracle = solve_spectral(problem.kernel, problem.rhs, N, 2 * N, interval=interval)
    nodes = solution.nodes
    return nodes, solution(nodes), oracle(nodes), solution.condition


def _screen_terms(params: ScreenParams) -> int:
    """The screen oracle's default N = ceil(1.6 k a) + 16.

    The solution makes about k a / pi oscillations over the screen.  At
    mquad = 2N this N is within 1e-13 of the peak of N' = 2N + 16 for k a
    from 0.25 to 80 (17 to 20 terms for k a <= 2.5).  Raises ValueError
    naming N when it overflows.
    """
    span = 1.6 * params.k * params.a
    if not math.isfinite(span):
        raise ValueError(f"N=ceil(1.6 k a) + 16 overflows at k={params.k}, a={params.a}")
    return math.ceil(span) + 16


def _run_screen(args: argparse.Namespace):
    params = ScreenParams(k=args.k, a=args.a)
    N = _screen_terms(params) if args.N is None else args.N
    nodes, numeric, reference, condition = _against_oracle(
        screen_problem(params, args.n), (-params.a, params.a), N
    )
    if args.normalize:
        factor = -np.pi * 1j * args.k
        numeric = numeric / factor
        reference = reference / factor
    return nodes, numeric, reference, condition


def _run_finite_part(args: argparse.Namespace):
    mesh = make_mesh(args.a, args.b, args.n)
    points = mesh.colloc
    center = 0.5 * (args.a + args.b)
    radius = 0.5 * (args.b - args.a)
    if args.density == "const":
        density = Density(
            value=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            deriv=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            second_deriv=lambda t: 0.0,
        )
        reference = np.array(
            [finite_part_constant(args.a, args.b, x) for x in points]
        )
    else:
        j = args.j

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
        [finite_part(density, args.a, args.b, float(x), args.tol) for x in points]
    )
    return points, numeric, reference, np.nan


def _run_spectral_compare(args: argparse.Namespace):
    return _against_oracle(_linear_kernel_problem(args), (-1.0, 1.0), args.N)


_RUNNERS = {
    "characteristic": _run_characteristic,
    "full": _run_full,
    "crack": _run_crack,
    "screen": _run_screen,
    "finite-part": _run_finite_part,
    "spectral-compare": _run_spectral_compare,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit status."""
    try:
        x, numeric, reference, condition = _RUNNERS[args.command](args)
        max_err = _write_table(args, x, numeric, reference)
        print(f"max_abs_error={max_err:.6e} condition_estimate={condition:.6e}",
              file=sys.stderr)
        return 0
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
    p.add_argument("--N", type=int, default=None,
                   help="oracle expansion terms (default ceil(1.6 k a) + 16, which "
                   "follows the wavenumber: within 1e-13 of the converged oracle's "
                   "peak for k a up to 80)")
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

    p = sub.add_parser("spectral-compare", help="linear kernel: collocation vs spectral oracle")
    p.add_argument("--A", type=float, default=3.0, help="kernel slope")
    p.add_argument("--n", type=int, default=80)
    p.add_argument("--N", type=int, default=32, help="oracle expansion terms")
    _add_output_flags(p)

    return parser


_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    return run(_PARSER.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads: seeded inputs, one op, and an answer check.

Each workload is a closed loop with one client: the next op starts only
when the previous one has returned and been checked.  Every op builds its
problem from scratch, as a command line user does, so nothing the program
caches inside a kernel object carries over from one op to the next.

Importing this module imports numpy and ``hypersing``; the worker times
that import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

import hypersing
from hypersing import cli

# 1/golden ratio: the shift of a Kronecker (golden-ratio) sequence.  With a
# seeded start, every term is uniform on [0, 1), no term repeats, and any
# prefix covers [0, 1) evenly, so a run of any length samples the whole
# parameter range instead of a lucky or unlucky corner of it.
_GOLDEN = (5**0.5 - 1) / 2


class BadAnswer(Exception):
    """An op returned, but its output is malformed or wrong."""


@dataclass(frozen=True)
class Outcome:
    """What one op produced: its relative error, or why it failed."""

    rel_error: float
    failure: str | None = None


def _run_cli(argv: list[str]) -> str:
    """Run ``hypersing.cli.main`` in this process; return its stdout text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise BadAnswer(f"hypersing {argv[0]} exited with status {status}")
    return out.getvalue()


def _parse_csv(text: str, header: list[str]) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header:
        raise BadAnswer(f"unexpected CSV header {lines[:1]!r}")
    try:
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    except ValueError as exc:
        raise BadAnswer(f"unparsable CSV: {exc}") from exc
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise BadAnswer(f"CSV has shape {rows.shape}, expected {len(header)} columns")
    return rows


def relative_error(numeric: np.ndarray, reference: np.ndarray) -> float:
    """Worst node error divided by the peak magnitude of the reference."""
    return float(np.max(np.abs(numeric - reference)) / np.max(np.abs(reference)))


class Workload:
    """One set of inputs with its op and answer check.

    Subclasses set ``name``, ``tolerance`` (the stated accuracy on the
    relative error) and ``warm_input``, a fixed mid-range input for the
    untimed warm-up op, so that set-up costs the same for every seed.
    """

    name: str
    tolerance: float
    warm_input: tuple

    def inputs(self) -> Iterator[tuple]:
        raise NotImplementedError

    def run(self, inp: tuple):
        raise NotImplementedError

    def error(self, inp: tuple, output) -> float:
        raise NotImplementedError

    def judge(self, inp: tuple, output) -> Outcome:
        """Check an op's output; a wrong or malformed answer is a failure."""
        try:
            err = self.error(inp, output)
        except BadAnswer as exc:
            return Outcome(float("nan"), str(exc))
        if not err <= self.tolerance:
            return Outcome(err, f"relative error {err:.3e} above {self.tolerance:g}")
        return Outcome(err)


class CrackDense(Workload):
    """``hypersing crack --n 600`` with the load, material and size drawn per op."""

    name = "crack-dense"
    tolerance = 1.5e-2
    n = 600
    header = ["x", "numeric", "exact_or_oracle", "abs_error"]
    warm_input = (1.25, 1.25, 0.275, 1.25)

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        while True:
            sigma0, mu, a = rng.uniform(0.5, 2.0, size=3)
            nu = rng.uniform(0.1, 0.45)
            yield (float(sigma0), float(mu), float(nu), float(a))

    def run(self, inp):
        sigma0, mu, nu, a = inp
        return _run_cli(
            ["crack", "--sigma0", repr(sigma0), "--mu", repr(mu), "--nu", repr(nu),
             "--a", repr(a), "--n", str(self.n)]
        )

    def error(self, inp, output):
        # The reference is recomputed here from the x column; the CSV's own
        # exact column and hypersing.crack_exact are not trusted.
        sigma0, mu, nu, a = inp
        rows = _parse_csv(output, self.header)
        if rows.shape[0] != self.n:
            raise BadAnswer(f"{rows.shape[0]} rows, expected {self.n}")
        x, numeric = rows[:, 0], rows[:, 1]
        if np.any(np.abs(x) > a):
            raise BadAnswer("node outside the crack")
        exact = (sigma0 / mu) * (1.0 - nu) * np.sqrt(a * a - x * x)
        return relative_error(numeric, exact)


class ScreenOracle(Workload):
    """``hypersing screen --k K`` at the defaults, a fresh k on every op.

    The check compares the collocation columns with the spectral-oracle
    columns the command itself writes.
    """

    name = "screen-oracle"
    tolerance = 5e-2
    n = 80
    header = ["x", "numeric_re", "numeric_im",
              "exact_or_oracle_re", "exact_or_oracle_im", "abs_error"]
    warm_input = (1.5,)

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        start = np.random.default_rng(self.seed).random()
        for i in itertools.count():
            yield (0.5 + 2.0 * ((start + i * _GOLDEN) % 1.0),)

    def run(self, inp):
        return _run_cli(["screen", "--k", repr(inp[0])])

    def error(self, inp, output):
        rows = _parse_csv(output, self.header)
        if rows.shape[0] != self.n:
            raise BadAnswer(f"{rows.shape[0]} rows, expected {self.n}")
        numeric = rows[:, 1] + 1j * rows[:, 2]
        oracle = rows[:, 3] + 1j * rows[:, 4]
        return relative_error(numeric, oracle)


class ScreenDense(Workload):
    """A library user's screen solve at n=400: no CLI and no per-op oracle.

    Four wavenumbers, evenly spaced over [0.5, 2.5] from a seeded start,
    are visited in seeded order, each once per block of four ops; their
    spectral-oracle references are computed during set-up.  An op that
    repeats an earlier op's k must return bit-identical values.
    """

    name = "screen-dense"
    tolerance = 2e-2
    n = 400
    oracle_terms = 32
    oracle_quad = 128
    warm_input = (1.5,)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        start = rng.random()
        self.ks = [0.5 + 2.0 * ((start + j / 4) % 1.0) for j in range(4)]
        self.order_rng = rng
        self.references = {k: self._reference(k) for k in self.ks}
        self.first_values: dict[float, bytes] = {}

    def _reference(self, k: float) -> np.ndarray:
        problem = hypersing.screen_problem(hypersing.ScreenParams(k, 1.0), self.n)
        oracle = hypersing.solve_spectral(
            problem.kernel, problem.rhs, self.oracle_terms, self.oracle_quad,
            interval=(-1.0, 1.0),
        )
        return oracle(problem.mesh.nodes[1:])

    def inputs(self):
        while True:
            for j in self.order_rng.permutation(len(self.ks)):
                yield (self.ks[j],)

    def run(self, inp):
        # Called through the package namespace, where the traced run's
        # wrappers are installed.
        params = hypersing.ScreenParams(inp[0], 1.0)
        solution = hypersing.solve_full(hypersing.screen_problem(params, self.n))
        return solution(solution.nodes)

    def error(self, inp, output):
        k = inp[0]
        values = np.asarray(output)
        if values.shape != (self.n,):
            raise BadAnswer(f"{values.shape} values, expected ({self.n},)")
        first = self.first_values.setdefault(k, values.tobytes())
        if values.tobytes() != first:
            raise BadAnswer(f"k={k!r} repeated with different values")
        return relative_error(values, self.references[k])


WORKLOADS = {w.name: w for w in (CrackDense, ScreenOracle, ScreenDense)}

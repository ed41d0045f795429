"""Shared fixtures: benchmark right-hand sides, cached screen solutions and capped runs."""

import os
from pathlib import Path

import numpy as np
import pytest

from hypersing import (
    FourierSymbol,
    RightHandSide,
    ScreenParams,
    screen_problem,
    solve_full,
    solve_spectral,
)


def const_pi_rhs() -> RightHandSide:
    """f' = -pi with antiderivative f = -pi x; solution sqrt(1-x^2) on (-1, 1)."""
    return RightHandSide(
        fprime=lambda x: -np.pi * np.ones_like(np.asarray(x, dtype=float)),
        f=lambda x: -np.pi * np.asarray(x, dtype=float),
    )


def gaussian_symbol() -> FourierSymbol:
    """L(s) = |s| + exp(-s^2), whose regular kernel is exp(-d^2/4) / (2 sqrt(pi))."""
    return FourierSymbol(
        L=lambda s: np.abs(s) + np.exp(-np.asarray(s, dtype=float) ** 2),
        A=1.0,
        L0=lambda s: np.exp(-np.asarray(s, dtype=float) ** 2),
        decay=3.0,
    )


def count_gesv(monkeypatch) -> list:
    """Record the right-hand-side shape of every numpy.linalg.solve call."""
    calls = []
    gesv = np.linalg.solve

    def counted(a, b):
        calls.append(np.shape(b))
        return gesv(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


# Head of a ``python -c`` script that caps its address space at 2 GiB, so
# that an unchecked size fails with MemoryError instead of exhausting the host.
CAP_ADDRESS_SPACE = (
    "import resource\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
)


def capped_env() -> dict:
    """Environment of a capped subprocess: one BLAS thread and this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def unit_semicircle(x):
    return np.sqrt(np.clip(1.0 - np.asarray(x, dtype=float) ** 2, 0.0, None))


@pytest.fixture(scope="session")
def semicircle_rhs():
    return const_pi_rhs()


@pytest.fixture(scope="session")
def screen_cases():
    """Factory for (problem, collocation solution, spectral oracle) per wavenumber.

    The three benchmark wavenumbers are solved once per session at the
    reference resolution (n=80 collocation, 32-term expansion at 128
    quadrature nodes).
    """
    cache: dict[float, tuple] = {}

    def get(k: float):
        if k not in cache:
            problem = screen_problem(ScreenParams(k=k, a=1.0), 80)
            solution = solve_full(problem)
            oracle = solve_spectral(
                problem.kernel, problem.rhs, 32, 128, interval=(-1.0, 1.0)
            )
            cache[k] = (problem, solution, oracle)
        return cache[k]

    return get

import argparse
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypersing import ScreenParams, cli, full_example_exact, screen_problem, solve_spectral
from hypersing.cli import main
from tests.conftest import CAP_ADDRESS_SPACE, capped_env


def read_table(path, sep=","):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing newline
    header = lines[0].split(sep)
    rows = [line.split(sep) for line in lines[1:-1]]
    return header, np.array([[float(v) for v in row] for row in rows])


def test_characteristic_benchmark_table(tmp_path, capsys):
    out = tmp_path / "characteristic.csv"
    assert main(["characteristic", "--a", "-1", "--b", "1", "--n", "40",
                 "--out", str(out)]) == 0
    header, data = read_table(out)
    assert header == ["x", "numeric", "exact_or_oracle", "abs_error"]
    assert data.shape == (40, 4)
    assert data[:, 3].max() <= 0.05
    err = capsys.readouterr().err
    assert "max_abs_error=" in err and "condition_estimate=" in err


def test_byte_identical_reruns(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for args in (["characteristic", "--n", "24"],
                 ["screen", "--k", "0.5", "--n", "16", "--N", "8"]):
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_full_benchmark_table(tmp_path):
    out = tmp_path / "linear_kernel.csv"
    assert main(["full", "--A", "3", "--n", "40", "--out", str(out)]) == 0
    _, data = read_table(out)
    assert data.shape == (40, 4)
    assert data[:, 3].max() <= 0.05


def test_crack_table_row_count(tmp_path):
    out = tmp_path / "crack.tsv"
    assert main(["crack", "--nu", "0.3", "--n", "24", "--out", str(out),
                 "--format", "tsv"]) == 0
    header, data = read_table(out, sep="\t")
    assert data.shape == (24, 4)
    assert data[:, 3].max() <= 0.05


def test_screen_complex_table_and_normalization(tmp_path):
    raw = tmp_path / "raw.csv"
    norm = tmp_path / "norm.csv"
    base = ["screen", "--k", "0.5", "--a", "1", "--n", "20", "--N", "12"]
    assert main(base + ["--out", str(raw)]) == 0
    assert main(base + ["--normalize", "--out", str(norm)]) == 0
    header, raw_data = read_table(raw)
    assert header == [
        "x", "numeric_re", "numeric_im",
        "exact_or_oracle_re", "exact_or_oracle_im", "abs_error",
    ]
    assert raw_data.shape == (20, 6)
    _, norm_data = read_table(norm)
    factor = -np.pi * 0.5j
    raw_first = raw_data[0, 1] + 1j * raw_data[0, 2]
    norm_first = norm_data[0, 1] + 1j * norm_data[0, 2]
    assert norm_first == pytest.approx(raw_first / factor, rel=1e-12)


def test_finite_part_commands(tmp_path):
    out = tmp_path / "fp.csv"
    assert main(["finite-part", "--n", "12", "--out", str(out)]) == 0
    _, data = read_table(out)
    assert data.shape == (12, 4)
    assert data[:, 3].max() <= 1e-8
    assert main(["finite-part", "--density", "cheb", "--j", "3", "--n", "8",
                 "--out", str(out)]) == 0
    _, data = read_table(out)
    assert data[:, 3].max() <= 1e-6


def test_spectral_compare_full_problem(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["spectral-compare", "--A", "3", "--n", "20", "--N", "8",
                 "--out", str(out)]) == 0
    _, data = read_table(out)
    assert data.shape == (20, 4)


# The options of the three oracle commands.  The screen oracle always runs
# at mquad = 2N and the inversion oracle at m = 64; spectral-compare is the
# linear kernel only, as screen writes the screen table.
_ORACLE_COMMAND_OPTIONS = {
    "screen": ["--k", "--a", "--n", "--N", "--normalize", "--out", "--format"],
    "spectral-compare": ["--A", "--n", "--N", "--out", "--format"],
    "characteristic": ["--a", "--b", "--n", "--out", "--format"],
}


def test_oracle_command_options():
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    for name, options in _ORACLE_COMMAND_OPTIONS.items():
        got = [action.option_strings[0] for action in commands[name]._actions
               if action.dest != "help"]
        assert got == options, name
    for args in (["screen", "--k", "1", "--mquad", "40"],
                 ["spectral-compare", "--mquad", "64"],
                 ["spectral-compare", "--problem", "screen"],
                 ["characteristic", "--m", "64"]):
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 2


# An explicit or default N whose 2N x (2N + 1) oracle table is over the
# dense budget, or an N below the oracle's 2 expansion terms, ends the
# command before the collocation solve.
@pytest.mark.parametrize("args, error", [
    (["screen", "--k", "1", "--N", "3000", "--n", "4"],
     "N=3000 needs a 6000 x 6001 dense array"),
    # The default N = ceil(1.6 k a) + 16 at k a = 1300.
    (["screen", "--k", "1300", "--n", "4"], "N=2096 needs a 4192 x 4193 dense array"),
    (["spectral-compare", "--N", "3000", "--n", "4"], "N=3000 needs a 6000 x 6001 dense array"),
    *((["screen", "--k", "80", "--n", "4096", "--N", N], f"N={N}: need at least 2 expansion terms")
      for N in ("1", "-3")),
    *((["spectral-compare", "--n", "4096", "--N", N], f"N={N}: need at least 2 expansion terms")
      for N in ("1", "-3")),
], ids=["screen-explicit-N", "screen-default-N", "spectral-compare-explicit-N",
        "screen-N1", "screen-N-3", "spectral-compare-N1", "spectral-compare-N-3"])
def test_oversized_oracle_refused_before_any_solve(args, error, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "solve_full", lambda problem: calls.append(problem))
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"error: ValueError: {error}")
    assert calls == []


def test_oracle_quadrature_defaults_to_twice_the_terms(tmp_path):
    # The oracle runs at mquad = 2N, for the default N and for an explicit
    # one, and is converged there: more terms on a finer grid move its
    # columns by rounding only, and the collocation columns not at all.  At
    # k a = 2.5 the default N is ceil(1.6 k a) + 16 = 20.
    tables = {}
    for name, flags in (("default", []), ("explicit", ["--N", "20"]),
                        ("n48", ["--N", "48"]), ("fine", ["--N", "128"])):
        out = tmp_path / f"{name}.csv"
        assert main(["screen", "--k", "2.5", "--n", "16", *flags, "--out", str(out)]) == 0
        tables[name] = out
    assert tables["default"].read_bytes() == tables["explicit"].read_bytes()
    _, coarse = read_table(tables["default"])
    for name in ("n48", "fine"):
        _, fine = read_table(tables[name])
        assert np.array_equal(coarse[:, :3], fine[:, :3])
        oracle = fine[:, 3] + 1j * fine[:, 4]
        drift = np.abs(coarse[:, 3] + 1j * coarse[:, 4] - oracle)
        assert np.max(drift) <= 1e-12 * np.max(np.abs(oracle))


SCREEN_TERMS_CASES = [(ka, a) for ka in (0.25, 2.5, 10.0, 20.0, 40.0, 80.0) for a in (0.5, 2.0)]


@pytest.mark.parametrize("ka, a", SCREEN_TERMS_CASES,
                         ids=[f"ka{ka:g}-a{a:g}" for ka, a in SCREEN_TERMS_CASES])
def test_screen_oracle_default_terms_converged(ka, a):
    # The default N = ceil(1.6 k a) + 16 at mquad = 2N is within 1e-12 of
    # the peak of N' = 2N + 16 at mquad = 2N' (3.3e-14 measured at k a = 80).
    params = ScreenParams(k=ka / a, a=a)
    N = cli._screen_terms(params)
    assert N == math.ceil(1.6 * ka) + 16
    problem = screen_problem(params, 8)
    nodes = np.linspace(-a, a, 161)
    got = solve_spectral(problem.kernel, problem.rhs, N, 2 * N, interval=(-a, a))(nodes)
    reference = 2 * N + 16
    want = solve_spectral(
        problem.kernel, problem.rhs, reference, 2 * reference, interval=(-a, a)
    )(nodes)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_screen_default_terms_follow_the_wavenumber(tmp_path, capsys):
    # At k = 40 the default N = 80 reads the converged max_abs_error of
    # N = 160: 4.990026e-02 with the kernel integrated over each cell (the
    # one-point rule read 1.573532e-01, and a fixed N = 32 2.280305e-01).
    errors = []
    for flags in ([], ["--N", "160"]):
        out = tmp_path / "screen.csv"
        assert main(["screen", "--k", "40", "--n", "400", *flags, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        errors.append(float(re.search(r"max_abs_error=(\S+)", err).group(1)))
    assert errors[0] == pytest.approx(errors[1], rel=1e-12)
    assert errors[1] == pytest.approx(0.04990026, rel=1e-6)


_EDGE = [-0.0, 5e-324, 1.7976931348623157e308, 1.0 / 3.0, np.inf, -np.inf]

_REAL_HEADER = ["x", "numeric", "exact_or_oracle", "abs_error"]
_COMPLEX_HEADER = ["x", "numeric_re", "numeric_im",
                   "exact_or_oracle_re", "exact_or_oracle_im", "abs_error"]


def _complex(re_parts, im_parts):
    # complex(r, i) keeps the sign of a zero part; r + 1j * i would not.
    return np.array([complex(r, i) for r, i in zip(re_parts, im_parts)])


@pytest.mark.parametrize("fmt, kind", [
    ("csv", "real-real"),
    ("tsv", "real-complex"),
    ("csv", "complex-complex"),
])
def test_table_format_is_seventeen_digits(fmt, kind, tmp_path):
    x = np.array(_EDGE)
    num_re = np.array(_EDGE[3:] + _EDGE[:3])
    num_im = np.array(_EDGE[::-1])
    ref_re = np.array(_EDGE[1:] + _EDGE[:1])
    ref_im = np.array(_EDGE[2:] + _EDGE[:2])
    if kind == "real-real":
        numeric, reference = num_re, ref_re
        header = _REAL_HEADER
        columns = [x, num_re, ref_re]
    elif kind == "real-complex":
        numeric, reference = num_re, _complex(ref_re, ref_im)
        header = _COMPLEX_HEADER
        columns = [x, num_re, np.zeros_like(x), ref_re, ref_im]
    else:
        numeric, reference = _complex(num_re, num_im), _complex(ref_re, ref_im)
        header = _COMPLEX_HEADER
        columns = [x, num_re, num_im, ref_re, ref_im]
    abs_err = np.abs(numeric - reference)
    columns.append(abs_err)
    sep = "\t" if fmt == "tsv" else ","
    out = tmp_path / f"table.{fmt}"
    max_err = cli._write_table(argparse.Namespace(fmt=fmt, out=str(out)),
                               x, numeric, reference)
    lines = out.read_text().split("\n")
    assert lines[0] == sep.join(header)
    assert lines[1:-1] == [
        sep.join(format(float(col[i]), ".17g") for col in columns)
        for i in range(len(x))
    ]
    assert lines[-1] == ""
    if kind == "real-complex":
        assert all(line.split(sep)[2] == "0" for line in lines[1:-1])
    assert max_err == float(np.max(abs_err))


@pytest.mark.parametrize("args", [
    ["crack", "--n", "40"],
    ["screen", "--k", "1.3", "--format", "tsv"],
], ids=["csv", "tsv"])
def test_table_written_in_row_blocks(args, tmp_path, monkeypatch):
    # 40 and 80 rows in blocks of 7, the last one short: the same bytes
    # as one block.
    tables = []
    for rows in (7, 10**6):
        monkeypatch.setattr(cli, "_ROWS_PER_BLOCK", rows)
        out = tmp_path / f"table-{rows}"
        assert main(args + ["--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_invalid_flags_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["full", "--badflag"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["nosuchcommand"])
    assert info.value.code == 2


# Each command with the flags it needs, and every float flag it reads; the
# flag under test comes last, so it overrides a required value given here.
_FLOAT_FLAGS = (
    (["characteristic"], ("a", "b")),
    (["full", "--A", "1"], ("A",)),
    (["crack"], ("sigma0", "mu", "nu", "a")),
    (["screen", "--k", "1"], ("k", "a")),
    (["finite-part"], ("a", "b", "tol")),
    (["spectral-compare"], ("A",)),
)


def _nonfinite_flag_cases():
    for command, flags in _FLOAT_FLAGS:
        for flag in flags:
            message = f"{flag} must be {'positive and ' if flag == 'tol' else ''}finite"
            for value in ("nan", "inf", "-inf"):
                yield command + [f"--{flag}={value}"], message


@pytest.mark.filterwarnings("error")
def test_solver_error_exits_one(tmp_path, capsys):
    for args, message in (
        (["screen", "--k", "-2"], "wavenumber must be positive"),
        (["screen", "--k", "1e200", "--a", "1e200"], "N=ceil(1.6 k a) + 16 overflows"),
        (["finite-part", "--density", "cheb", "--j", "2", "--tol", "inf"],
         "tol must be positive"),
        *_nonfinite_flag_cases(),
    ):
        status = main(args + ["--n", "8", "--out", str(tmp_path / "x.csv")])
        assert status == 1
        assert f"error: ValueError: {message}" in capsys.readouterr().err


# Runs cli.main with the address space capped at 2 GiB.
_CAPPED_MAIN = CAP_ADDRESS_SPACE + (
    "import sys\n"
    "from hypersing.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize(
    "args, name",
    [
        # The default N = ceil(1.6 k a) + 16 = 2096 at k a = 1300 needs a
        # 4192 x 4193 kernel table at mquad = 2N.
        (["screen", "--k", "1300", "--n", "4"], "N"),
        # The crack's closed-form solve holds no n x n array: its FFT length,
        # the smallest 2^a 3^b 5^c >= 2n - 1, is what the budget refuses.
        (["crack", "--n", "100000000"], "n"),
        (["full", "--A", "3", "--n", "100000"], "n"),
    ],
    ids=["screen-default-N", "crack-n", "full-n"],
)
def test_oversized_dense_arrays_refused_by_name(args, name, tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, *args, "--out", str(tmp_path / "x.csv")],
        env=capped_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith(f"error: ValueError: {name}=")
    assert "dense array" in done.stderr


@pytest.mark.parametrize("j", ["1000000", "1000000000"], ids=["1e6", "1e9"])
def test_finite_part_at_huge_degree_ends_in_a_typed_error(j, tmp_path):
    # U_j is evaluated in closed form, with no (j + 1)-row table, so a huge
    # --j is no size to refuse: the density oscillates past what the
    # adaptive quadrature resolves, and the command ends in the library's
    # typed error (about 2 s on a 2-core host), not in a hang.
    args = ["finite-part", "--density", "cheb", "--j", j, "--out", str(tmp_path / "x.csv")]
    done = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *args], env=capped_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error: QuadratureConvergenceError: ")


def test_crack_beyond_dense_cap_runs_in_capped_memory(tmp_path):
    # n = 100000 is far above the n x n cap of 4096 but needs only O(n) memory.
    out = tmp_path / "crack.csv"
    args = ["crack", "--n", "100000", "--out", str(out)]
    done = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *args], env=capped_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    _, data = read_table(out)
    assert data.shape == (100000, 4)
    assert data[:, 3].max() <= 1e-3


def test_characteristic_beyond_dense_cap_runs_in_capped_memory(tmp_path):
    # The oracle evaluates its 300000 points in blocks, so its points x
    # nodes table never meets the dense budget.
    out = tmp_path / "characteristic.csv"
    args = ["characteristic", "--n", "300000", "--out", str(out)]
    done = subprocess.run([sys.executable, "-c", _CAPPED_MAIN, *args], env=capped_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    _, data = read_table(out)
    assert data.shape == (300000, 4)
    assert data[:, 3].max() <= 1e-3


def test_cli_import_loads_no_scipy():
    # Importing scipy would add about 0.25 s and 26 MB to every CLI process.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, hypersing.cli; "
             "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy'}))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_file_io_error_exits_one(tmp_path, capsys):
    status = main(["characteristic", "--n", "8",
                   "--out", str(tmp_path / "missing" / "x.csv")])
    assert status == 1
    assert "file i/o" in capsys.readouterr().err



def _readme_blocks(language):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def _readme_commands():
    return [line for block in _readme_blocks("sh") for line in block.splitlines()
            if line.startswith("hypersing ")]


# ROADMAP item 6: the adaptive finite part runs out of panels at the end
# nodes x = +-0.975 for every j >= 1 at the default tol.
_README_KNOWN_RED = "hypersing finite-part --density cheb --j 2 --n 40"


@pytest.mark.parametrize("command", [
    pytest.param(
        command,
        id=command.split()[1],
        marks=[pytest.mark.xfail(strict=True, reason="ROADMAP item 6")]
        if command.startswith(_README_KNOWN_RED) else [],
    )
    for command in _readme_commands()
])
def test_readme_command_examples_exit_zero(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == 0


@pytest.mark.parametrize("code", [
    pytest.param(code, id=f"block-{i}") for i, code in enumerate(_readme_blocks("python"))
])
def test_readme_python_example_prints_the_exact_oracle_value(code, capsys):
    # The library example prints the collocation value, the oracle value
    # and the condition number at x = 0 of the linear kernel with A = 3,
    # whose exact value there is 32/41.
    exec(compile(code, "README.md", "exec"), {})
    oracle = float(capsys.readouterr().out.split()[1])
    exact = full_example_exact(3.0, 0.0)
    assert abs(oracle - exact) <= 1e-12 * exact

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypersing import cli
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
                 ["screen", "--k", "0.5", "--n", "16", "--N", "8", "--mquad", "16"]):
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
    base = ["screen", "--k", "0.5", "--a", "1", "--n", "20",
            "--N", "12", "--mquad", "32"]
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
    assert main(["spectral-compare", "--problem", "full", "--A", "3",
                 "--n", "20", "--N", "8", "--mquad", "16", "--out", str(out)]) == 0
    _, data = read_table(out)
    assert data.shape == (20, 4)


def test_spectral_compare_screen_problem(tmp_path):
    out = tmp_path / "cmp.csv"
    assert main(["spectral-compare", "--problem", "screen", "--k", "0.8",
                 "--n", "12", "--N", "6", "--mquad", "12",
                 "--out", str(out)]) == 0
    header, data = read_table(out)
    assert len(header) == 6  # complex columns
    assert data.shape == (12, 6)
    # screen writes the same table as spectral-compare --problem screen
    flags = ["--k", "1.5", "--n", "16", "--N", "8", "--mquad", "16"]
    screen = tmp_path / "screen.csv"
    compare = tmp_path / "compare.csv"
    assert main(["screen", *flags, "--out", str(screen)]) == 0
    assert main(["spectral-compare", "--problem", "screen", *flags,
                 "--out", str(compare)]) == 0
    assert screen.read_bytes() == compare.read_bytes()


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
# spectral-compare reads --A only for the full problem.
_FLOAT_FLAGS = (
    (["characteristic"], ("a", "b")),
    (["full", "--A", "1"], ("A",)),
    (["crack"], ("sigma0", "mu", "nu", "a")),
    (["screen", "--k", "1"], ("k", "a")),
    (["finite-part"], ("a", "b", "tol")),
    (["spectral-compare"], ("k", "a")),
    (["spectral-compare", "--problem", "full"], ("A",)),
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
        (["screen", "--k", "1", "--mquad", "100000000", "--N", "2", "--n", "4"], "mquad"),
        (["spectral-compare", "--mquad", "100000000", "--N", "2", "--n", "4"], "mquad"),
        # The crack's closed-form solve holds no n x n array: its FFT length,
        # the smallest power of two >= 2n - 1, is what the budget refuses.
        (["crack", "--n", "100000000"], "n"),
        (["full", "--A", "3", "--n", "100000"], "n"),
        (["characteristic", "--n", "40", "--m", "1000000000"], "m"),
    ],
    ids=["screen-mquad", "spectral-compare-mquad", "crack-n", "full-n", "characteristic-m"],
)
def test_oversized_dense_arrays_refused_by_name(args, name, tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, *args, "--out", str(tmp_path / "x.csv")],
        env=capped_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith(f"error: ValueError: {name}=")
    assert "dense array" in done.stderr


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



def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    return [line for block in blocks for line in block.splitlines()
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

import numpy as np
import pytest

from hypersing.cli import main


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


def test_invalid_flags_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["full", "--badflag"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["nosuchcommand"])
    assert info.value.code == 2


def test_solver_error_exits_one(tmp_path, capsys):
    for k in ("-2", "inf"):
        status = main(["screen", "--k", k, "--n", "8", "--out",
                       str(tmp_path / "x.csv")])
        assert status == 1
        assert "error:" in capsys.readouterr().err


def test_file_io_error_exits_one(tmp_path, capsys):
    status = main(["characteristic", "--n", "8",
                   "--out", str(tmp_path / "missing" / "x.csv")])
    assert status == 1
    assert "file i/o" in capsys.readouterr().err


"""Tests of the benchmark itself: answer checks, span counts, contract.

    PYTHONPATH=src python -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import workloads
from worker import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@pytest.fixture(autouse=True)
def _no_thread_override(monkeypatch):
    monkeypatch.delenv("HYPERSING_THREADS", raising=False)


class _OneInput(workloads.CrackDense):
    """crack-dense with a fixed input and an optional answer perturbation."""

    def __init__(self, factor):
        super().__init__(seed=0)
        self.factor = factor

    def inputs(self):
        while True:
            yield (1.3, 0.8, 0.3, 1.7)

    def run(self, inp):
        lines = super().run(inp).splitlines()
        out = [lines[0]]
        for line in lines[1:]:
            fields = line.split(",")
            fields[1] = repr(float(fields[1]) * self.factor)
            out.append(",".join(fields))
        return "\n".join(out) + "\n"


@pytest.mark.parametrize("factor, failed", [(1.0, 0), (1.1, 1)])
def test_perturbed_answer_counts_as_failed_op(factor, failed):
    result = measure(_OneInput(factor), seconds=0.0, min_ops=1)
    assert len(result["durations"]) == 1
    assert len(result["failures"]) == failed
    assert result["max_rel_error"] > 0.05 if failed else result["max_rel_error"] < 1.5e-2


def test_repeated_input_with_other_values_fails():
    workload = workloads.ScreenDense.__new__(workloads.ScreenDense)
    reference = np.linspace(1.0, 2.0, workload.n) + 0.5j
    workload.references = {1.5: reference}
    workload.first_values = {}
    assert workload.judge((1.5,), reference.copy()).failure is None
    assert workload.judge((1.5,), reference.copy()).failure is None
    nudged = reference.copy()
    nudged[7] = np.nextafter(nudged[7].real, 3.0) + 0.5j
    assert "repeated" in workload.judge((1.5,), nudged).failure


def test_screen_op_layer_counts():
    """One ``hypersing screen`` op at n=80 with the oracle at N=32, mquad=128.

    The collocation table asks for the 2n-1 = 159 mesh differences, of which
    80 are distinct in magnitude because the kernel is even; the oracle asks
    for the 128 x 129 = 16512 differences of its two quadrature grids.
    """
    import hypersing.linalg

    original = hypersing.linalg.lu_factor
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        workloads.ScreenOracle(seed=0).run((1.5,))
        batches = [s.arg for s in tracer.spans if s.name == "kernels.profile_batch"]
        op = tracer.close_op(wall=1.0)
    finally:
        uninstall()
    assert hypersing.linalg.lu_factor is original
    assert [np.size(d) for d in batches] == [159, 16512]
    assert np.unique(np.abs(batches[0])).size == 80
    assert op["kernels.profile_batch.calls"] == 2
    assert op["kernels.profile_batch.diffs"] == 159 + 16512
    assert op["linalg.lu_factor.calls"] == 2
    assert op["spectral.solve_spectral.self_s"] > 0
    assert op["cli.main.self_s"] > 0
    assert all(count == 0 for count in tracer.errors.values())


def test_tail_has_ten_samples_beyond():
    durations = [float(i) for i in range(40)]
    value, pct = run.tail(durations)
    assert sum(d > value for d in durations) == 10
    assert pct == 75.0


def test_timing_metrics_are_divided_by_host_slowness():
    """A host twice as slow as the reference halves the scaled times."""
    setup = {"setup_s": 3.0, "setup_calibrations": [0.05] * 10}
    result = {"durations": [0.4] * 30, "failures": [], "calibrations": [0.05] * 30,
              "reference_s": 0.025, "setups": [setup, setup, setup],
              "peak_mem_mb": 12.0, "max_rel_error": 1e-3}
    metrics = run.end_to_end(result)
    assert run.host_scale(result) == 2.0
    assert metrics["op_p50_s"] == metrics["op_tail_s"] == 0.2
    assert metrics["ops_per_s"] == pytest.approx(5.0)
    assert metrics["setup_s"] == 1.5
    assert metrics["peak_mem_mb"] == 12.0 and metrics["ok_rate"] == 1.0


def test_calibrator_child_ends_with_it():
    from calib import Calibrator

    with Calibrator() as calibrate:
        assert calibrate() > 0
        child = calibrate._child
    assert child.returncode == 0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crack-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

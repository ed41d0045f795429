"""Solve benchmark for hypersing: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload crack-dense --seed 3 --seconds 30 --trace 0

Each workload runs in fresh worker processes (``worker.py``) with one BLAS
thread and ``HYPERSING_THREADS`` unset.  With ``--trace 0`` the run reports
the end-to-end metrics; set-up is repeated in ``SETUP_RUNS`` fresh
processes and its median reported.  Timing metrics are scaled to the
host's reference speed, measured by ``calib.py`` next to every op and
set-up; the raw figures are printed beside them.  With ``--trace 1`` a separate run
wraps the calls into each module (``spans.py``) and reports the per-layer
metrics as medians per op.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

This file imports no numpy and no hypersing: everything measured happens
in the workers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("crack-dense", "screen-oracle", "screen-dense")
SETUP_RUNS = 3
DEADLINE_S = 170.0

END_TO_END = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "max_rel_error": "1",
    "ok_rate": "1",
}

PER_LAYER = {
    "linalg.lu_factor.self_s": "s",
    "linalg.lu_factor.calls": "count",
    "linalg.lu_factor.gflop_per_s": "GFLOP/s",
    "linalg.solve.self_s": "s",
    "linalg.solve.calls": "count",
    "linalg.condition.self_s": "s",
    "kernels.profile_batch.self_s": "s",
    "kernels.profile_batch.calls": "count",
    "kernels.profile_batch.diffs": "count",
    "kernels.profile_batch.distinct_ratio": "1",
    "kernels.problem.self_s": "s",
    "spectral.solve_spectral.self_s": "s",
    "characteristic.assemble.self_s": "s",
    "characteristic.evaluate.self_s": "s",
    "fullsolver.assemble_full.self_s": "s",
    "fullsolver.solve_full.self_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_out": "B",
    "linalg.errors": "count",
    "kernels.errors": "count",
    "spectral.errors": "count",
    "characteristic.errors": "count",
    "fullsolver.errors": "count",
    "cli.errors": "count",
    "traced.op_p50_s": "s",
    "traced.remainder_s": "s",
    "host.calib_s": "s",
}

# Why each workload exists, as shares of the traced op: (layer, lowest, highest).
REASONS = {
    "crack-dense": [("linalg.lu_factor", 0.60, None), ("kernels.profile_batch", None, 0.01)],
    "screen-oracle": [("linalg.lu_factor", None, 0.05), ("kernels.profile_batch", 0.80, None)],
    "screen-dense": [("linalg.lu_factor", 0.15, None), ("kernels.profile_batch", 0.15, None)],
}

# Largest gap allowed between the traced op's median wall time and the sum
# of the layers' median self times plus the median untraced remainder.
CONSISTENCY = 0.10


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("HYPERSING_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PERFBENCH_SRC"] = SRC
    # Every set-up compiles the package's sources afresh and none writes a
    # bytecode cache, so set-up costs the same in every run and checkout.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    command = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        done = subprocess.run(command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out: {' '.join(args)}") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with status {done.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def tail(durations: list[float]) -> tuple[float, float]:
    """Highest order statistic with ten samples beyond it, and its percentile."""
    ordered = sorted(durations)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        return run_worker(base + ["--trace"], deadline)
    setups = [run_worker(base + ["--setup-only"], deadline) for _ in range(SETUP_RUNS - 1)]
    result = run_worker(base, deadline)
    result["setups"] = setups + [result]
    return result


def host_scale(result: dict) -> float:
    """Reference calibration time over the run's median: above 1 on a slow host.

    The median pools every calibration of the run: those after each op and
    those after each set-up.
    """
    samples = list(result["calibrations"])
    for setup in result["setups"]:
        samples += setup["setup_calibrations"]
    return statistics.median(samples) / result["reference_s"]


def end_to_end(result: dict) -> dict[str, float]:
    durations = result["durations"]
    attempted = len(durations)
    ok = attempted - len(result["failures"])
    slow = host_scale(result)
    return {
        "op_p50_s": statistics.median(durations) / slow,
        "op_tail_s": tail(durations)[0] / slow,
        "ops_per_s": ok / sum(durations) * slow,
        "setup_s": statistics.median(s["setup_s"] for s in result["setups"]) / slow,
        "peak_mem_mb": result["peak_mem_mb"],
        "max_rel_error": result["max_rel_error"],
        "ok_rate": ok / attempted,
    }


def per_layer(result: dict) -> dict[str, float]:
    layers = result["layers"]
    metrics = {name: layers[name] for name in PER_LAYER if name in layers}
    metrics["traced.op_p50_s"] = layers["wall"]
    metrics["traced.remainder_s"] = layers["remainder_s"]
    metrics["host.calib_s"] = statistics.median(result["calibrations"])
    return metrics


def consistency(metrics: dict[str, float]) -> float:
    """(sum of layer self times + remainder) / traced op p50, all medians."""
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    return (total + metrics["traced.remainder_s"]) / metrics["traced.op_p50_s"]


def reason_lines(name: str, metrics: dict[str, float]) -> list[str]:
    lines = []
    for layer, low, high in REASONS[name]:
        share = metrics[layer + ".self_s"] / metrics["traced.op_p50_s"]
        holds = (low is None or share >= low) and (high is None or share < high)
        bound = f">= {low:.0%}" if low is not None else f"< {high:.0%}"
        lines.append(f"  reason: {layer}.self_s is {share:.1%} of the op "
                     f"(expected {bound}): {'holds' if holds else 'DOES NOT HOLD'}")
    return lines


def report(name: str, seed: int, seconds: float, trace: bool, result: dict) -> dict:
    """Print the human-readable block for one run; return the JSON summary."""
    m = result["machine"]
    durations = result["durations"]
    failures = result["failures"]
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"blas={m['blas']} blas_threads={m['blas_threads']}")
    print(f"run: workload={name} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"(closed loop, 1 client, 1 process)")
    print(f"ops: attempted={len(durations)} failed={len(failures)} "
          f"fail_rate={len(failures) / len(durations):g} "
          f"repeat_share={result['repeats'] / len(durations):.3f}")
    for failure in failures[:5]:
        print(f"  failed op: {failure}")
    correct = not failures
    if trace:
        metrics = per_layer(result)
        op = metrics["traced.op_p50_s"]
        for key, unit in PER_LAYER.items():
            share = f"  ({metrics[key] / op:6.1%} of op)" if key.endswith(".self_s") else ""
            print(f"  {key:38s} {metrics[key]:.6g} {unit}{share}")
        ratio = consistency(metrics)
        consistent = abs(ratio - 1.0) <= CONSISTENCY
        print(f"  consistency: (layer self times + remainder) / op = {ratio:.3f} "
              f"({'ok' if consistent else 'OFF BY MORE THAN 10%'})")
        print("\n".join(reason_lines(name, metrics)))
        correct = correct and consistent
        units = PER_LAYER
    else:
        metrics = end_to_end(result)
        value, pct = tail(durations)
        raw = {"op_p50_s": statistics.median(durations), "op_tail_s": value,
               "ops_per_s": (len(durations) - len(failures)) / sum(durations)}
        notes = {key: f"raw {raw[key]:.6g}" for key in raw}
        notes["op_tail_s"] += f"; p{pct:.1f} of {len(durations)} ops, 10 beyond"
        notes["setup_s"] = "median of raw " + ", ".join(
            f"{s['setup_s']:.3f}" for s in result["setups"])
        print(f"  host speed: calibration {host_scale(result) * result['reference_s']:.6g} s "
              f"(median of the run's), reference {result['reference_s']:g} s; "
              f"timing metrics divided by {host_scale(result):.4f}")
        for key, unit in END_TO_END.items():
            note = f"  ({notes[key]})" if key in notes else ""
            print(f"  {key:14s} {metrics[key]:.6g} {unit}{note}")
        units = END_TO_END
    return {
        "correct": correct,
        "attempted": len(durations),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; all of them, untraced and traced, if omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hypersing", "__init__.py")):
        print(f"error: no hypersing package under {SRC}", file=sys.stderr)
        return 2
    if args.workload is not None:
        deadline = time.monotonic() + DEADLINE_S
        try:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), deadline)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report(args.workload, args.seed, args.seconds,
                                bool(args.trace), result)))
        return 0

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        p50 = None
        for trace in (False, True):
            deadline = time.monotonic() + DEADLINE_S
            try:
                result = run_workload(name, args.seed, args.seconds, trace, deadline)
            except WorkerError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            one = report(name, args.seed, args.seconds, trace, result)
            if trace:
                traced = one["metrics"]["traced.op_p50_s"]["value"]
                print(f"  tracing overhead: traced op_p50_s {traced:.6g} s vs untraced "
                      f"{p50:.6g} s ({traced / p50 - 1:+.1%})")
            else:
                p50 = one["metrics"]["op_p50_s"]["value"]
            summary["correct"] = summary["correct"] and one["correct"]
            summary["attempted"] += one["attempted"]
            summary["failed"] += one["failed"]
            for key, metric in one["metrics"].items():
                summary["metrics"][f"{name}.{key}"] = metric
            print()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

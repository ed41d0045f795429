"""One workload process: set up, then run ops in a closed loop for a fixed time.

Run by ``run.py`` in a fresh interpreter whose environment fixes the BLAS
thread count and points ``PYTHONPATH`` at the checkout's ``src``.  The
set-up clock starts before ``import hypersing``.  Prints one JSON object
as its last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# Enough ops that the tail percentile, ten samples from the top, is at least
# the median.
MIN_OPS = 21
# Calibrations made right after set-up, in every worker.
SETUP_CALIBRATIONS = 10


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def measure(workload, seconds: float, min_ops: int = MIN_OPS, tracer=None,
            calibrate=None) -> dict:
    """Run ops back to back until ``seconds`` have passed and ``min_ops`` ran.

    Each op is timed alone; its answer check runs outside the timing, and
    so does ``calibrate``, if given, which runs once after every op.  An
    op that raises, exits nonzero or fails its check is a failed op; it is
    never retried.
    """
    inputs = workload.inputs()
    durations, errors, failures, calibrations = [], [], [], []
    seen, repeats = set(), 0
    loop_start = time.perf_counter()
    while len(durations) < min_ops or time.perf_counter() - loop_start < seconds:
        inp = next(inputs)
        repeats += inp in seen
        seen.add(inp)
        start = time.perf_counter()
        try:
            output = workload.run(inp)
        except (Exception, SystemExit) as exc:
            output, failure = None, f"{type(exc).__name__}: {exc}"
        else:
            failure = None
        wall = time.perf_counter() - start
        durations.append(wall)
        if tracer is not None:
            size = len(output) if isinstance(output, str) else 0
            tracer.close_op(wall, {"cli.bytes_out": size})
        if failure is None:
            outcome = workload.judge(inp, output)
            failure = outcome.failure
            if not math.isnan(outcome.rel_error):
                errors.append(outcome.rel_error)
        if failure is not None:
            failures.append(failure)
        if calibrate is not None:
            calibrations.append(calibrate())
    return {"durations": durations, "max_rel_error": max(errors, default=None),
            "failures": failures, "repeats": repeats, "calibrations": calibrations}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # One CPU for the worker and, by inheritance, its calibration child, so
    # that the calibration times the CPU the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import workloads  # imports numpy and hypersing
    import calib  # imported here so that the peak memory figure leaves it out

    rss_after_import = _max_rss_mb()
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(workloads.hypersing.__file__).startswith(src + os.sep):
        print(f"error: hypersing imported from {workloads.hypersing.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.run(workload.warm_input)
    setup_s = time.perf_counter() - _T0
    with calib.Calibrator() as calibrate:
        setup = {"setup_s": setup_s, "reference_s": calib.REFERENCE_S,
                 "setup_calibrations": [calibrate() for _ in range(SETUP_CALIBRATIONS)]}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        result = measure(workload, args.seconds, tracer=tracer, calibrate=calibrate)
    result.update(setup, peak_mem_mb=_max_rss_mb() - rss_after_import, machine=machine())
    if tracer is not None:
        result["layers"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

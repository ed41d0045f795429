"""A fixed piece of work that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to half over minutes: every op, and set-up with it, slows and speeds
up together, on every core, with CPU time equal to wall time.  No run
length averages that out.  So each worker times ``calibrate()`` after
set-up and after every op, and ``run.py`` scales the run's timing
metrics by ``REFERENCE_S`` over the median of all its calibrations: a
figure reads what it would on the host running at its reference speed.

The work imitates the two kinds of work in the solve paths: a row-by-row
LU elimination in Python over numpy rows (like ``linalg.lu_factor``), and
a batched cosine transform with complex weights (like the quadrature in
``kernels.profile_batch``).  Its inputs are fixed, and it imports nothing
from ``hypersing``, so no change to the program changes it.  It runs in
a child process of its own (``Calibrator``), one request at a time while
the worker waits, so its memory stays out of the worker's peak.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# About the median of calibrate() on the reference host, on which it varies
# by a fifth from minute to minute:
# 2 vCPUs of an Intel Xeon VM, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31
# on one thread.
REFERENCE_S = 0.040

# Fixed inputs, made without numpy.random so that importing this module
# loads nothing the workloads would load later.
_ROW, _COL = np.indices((200, 200))
_MATRIX = np.sin(1.0 + 0.37 * _ROW + 0.011 * _COL * _COL) + 200.0 * np.eye(200)
_FREQ = np.linspace(0.0, 3.0, 24)
# As many differences as one chunk of kernels.profile_batch, so that the
# temporaries are as large as the kernel's and are allocated the same way.
_DIST = np.linspace(1e-3, 2.0, 4096)


def _eliminate() -> float:
    a = _MATRIX.copy()
    for j in range(a.shape[0] - 1):
        p = j + int(np.argmax(np.abs(a[j:, j])))
        if p != j:
            a[[j, p]] = a[[p, j]]
        a[j + 1 :, j] /= a[j, j]
        a[j + 1 :, j + 1 :] -= np.outer(a[j + 1 :, j], a[j, j + 1 :])
    return float(a[-1, -1])


def _transform() -> complex:
    total = np.zeros(_DIST.size, dtype=complex)
    for shift in range(6):
        weight = -1j * np.sqrt(np.clip(1.5 - _FREQ * _FREQ, 0.0, None)) - _FREQ
        total += (weight[:, None] * np.cos(np.outer(_FREQ + shift, _DIST))).sum(axis=0)
    return complex(total[0])


def calibrate() -> float:
    """Wall time of one fixed unit of work, in seconds."""
    start = time.perf_counter()
    _eliminate()
    _transform()
    return time.perf_counter() - start


class Calibrator:
    """A child process that times ``calibrate()`` each time it is called."""

    def __init__(self):
        self._child = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
        self()  # untimed warm-up

    def __call__(self) -> float:
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        return float(self._child.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._child.stdin.close()
        self._child.wait()
        self._child.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)

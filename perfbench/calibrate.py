"""Reference kernels that track the speed of the machine during a run.

On a shared 2-CPU host the speed of one core drifts by up to 1.8x within
minutes, and process CPU time moves with wall time, so the drift is the
core running slower, not the process waiting.  The runner times a kernel
between every two operations of a workload, and around every set-up
probe, and scales each measured time by ``REFERENCE_S[kind] / <kernel
time around it>``: the result is that time at the kernel's reference
speed.

Each kernel is the benchmark's own code and never touches alphaenergy, so
no change to the program can change a kernel's time.  Each one mimics the
work it stands beside:

* ``eigen``: numpy row updates on a small matrix, the shape of the
  Jacobi sweeps (sweep);
* ``exact``: Python big-integer dot products plus a few row updates, the
  shape of the exact characteristic polynomial, root isolation and the
  numeric oracle (verify);
* ``spawn``: starting and ending a bare interpreter, ``python -I -S -c
  pass`` (cli commands and set-up probes).

A single kernel run jitters by several per cent, so the runner scales by
the median of the kernel runs nearest to each measurement.
``REFERENCE_S`` holds a typical time of each kernel on the 2-CPU host the
bounds were set on (its median over a first set of ten runs per
workload), so scaled figures read like wall time at that host's usual
speed.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REFERENCE_S = {"eigen": 0.0026, "exact": 0.0029, "spawn": 0.0185}

_MATRIX = np.arange(24 * 24, dtype=float).reshape(24, 24) / 577.0
_INTS = [[(3 ** (40 + i + j)) % (10 ** 60) for j in range(40)] for i in range(8)]


def _rows(steps: int) -> float:
    a = _MATRIX.copy()
    for k in range(steps):
        i = k % 23
        ai, aj = a[i].copy(), a[i + 1].copy()
        a[i] = ai - 0.1 * (aj + 0.05 * ai)
        a[i + 1] = aj + 0.1 * (ai - 0.05 * aj)
        a[:, i] = a[i]
        a[:, i + 1] = a[i + 1]
    return float(a[0, 0])


def _ints(rounds: int) -> int:
    acc = 0
    for _ in range(rounds):
        for row in _INTS:
            for col in _INTS:
                acc += sum(x * y for x, y in zip(row, col))
    return acc


def _spawn() -> int:
    return subprocess.run([sys.executable, "-I", "-S", "-c", "pass"],
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL).returncode


_KERNELS = {
    "eigen": lambda: _rows(200),
    "exact": lambda: (_ints(3), _rows(50)),
    "spawn": _spawn,
}


def kernel_s(kind: str) -> float:
    """Wall time of one run of the named kernel."""
    fn = _KERNELS[kind]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0

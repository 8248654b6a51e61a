"""A fixed reference computation that measures how fast the host runs now.

On a shared virtual machine the other tenants slow this process's own
instructions (shared cores, caches and memory bandwidth), so the CPU time of
one fixed request drifts by 20-40% over minutes.  The benchmark runs this
kernel between requests and expresses each request's CPU time in units of
the kernel's CPU time measured next to it, which cancels most of that drift.

The kernel is the benchmark's own code and never calls ``mopr``, so a change
to the library cannot move it.  Its mix imitates the solver's inner loop: a
small dense solve, a matrix-vector product over a wide constraint matrix,
boolean masks over the columns and a short Python loop over the rows.

``NOMINAL_S`` converts back to seconds: it is the kernel's CPU time on an
idle core of the machine the benchmark was written on (2 vCPUs of an Intel
Xeon at 2.0 GHz, Python 3.12, numpy 2.4 with OpenBLAS on one thread).  A
normalised time is therefore the time the work would take on that core when
nothing else runs.  The constant fixes the unit only; spreads and ratios do
not depend on it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 2.5e-3

_ROWS, _COLS, _STEPS = 16, 1500, 60
_rng = np.random.default_rng(20240711)
_A = _rng.standard_normal((_ROWS, _COLS))
_B = _rng.standard_normal((_ROWS, _ROWS)) + 4.0 * np.eye(_ROWS)
_C = _rng.standard_normal(_COLS)
_LOWER = np.zeros(_COLS)
_UPPER = np.ones(_COLS)
_STATUS = (_rng.random(_COLS) < 0.5).astype(int)


def _kernel() -> float:
    acc = 0.0
    for step in range(_STEPS):
        y = np.linalg.solve(_B.T, _A[:, step % _ROWS])
        reduced = _C - _A.T @ y
        eligible = np.flatnonzero((_STATUS == 0) & (_UPPER > _LOWER) & (reduced > 1e-9))
        j = int(eligible[0]) if eligible.size else 0
        w = np.linalg.solve(_B, _A[:, j])
        for i in range(_ROWS):
            if w[i] > 1e-9:
                acc += 1.0 / w[i]
    return acc


def measure() -> float:
    """CPU seconds of one run of the kernel."""
    t0 = time.process_time()
    _kernel()
    return time.process_time() - t0

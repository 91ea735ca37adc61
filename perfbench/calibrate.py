"""Machine-speed calibration for the benchmark's timings.

On a shared host the same deck run can take 50% longer from one minute
to the next, because other tenants load the cores and caches; the
program's CPU time moves with its wall time, so neither is steady.  A
fixed kernel timed between the program's steps slows down with it: the
program is interpreter-bound, working on many small boxes, so the kernel
is too (a Python loop over small NumPy slices of a ``(4, 40, 40)``
array).  Each timed interval is rescaled by ``REF_S`` over the kernel's
time around it (:func:`measure.normalized`), which gives seconds on a
machine where the kernel takes ``REF_S``.  The kernel never calls the
program, so a change to the program moves the rescaled times as much as
the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

#: the kernel's time on the reference machine the times are rescaled to
REF_S = 0.04
#: loop count of one kernel call (about REF_S on a 2-vCPU cloud VM)
REPS = 1200

_A = np.random.default_rng(0).random((4, 40, 40))


def calibration_s() -> float:
    """Wall time of one call of the fixed calibration kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(REPS):
        b = _A[:, 1:-1, 1:-1] * 0.5 + _A[:, 2:, 1:-1] - _A[:, :-2, 1:-1]
        acc += float(np.maximum(b, 0.1).max())
    elapsed = time.perf_counter() - t0
    if not acc > 0:  # keeps the loop from being optimised away
        raise RuntimeError("calibration kernel gave no result")
    return elapsed

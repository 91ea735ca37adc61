"""The benchmark's arithmetic: medians, the tail-percentile rule, rates
and run-to-run spread.  Pure Python, so it is tested on synthetic input.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: the tail must have at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def beyond(n: int, p: int) -> int:
    """Samples ranked beyond nearest-rank percentile ``p`` of ``n``.

    With the nearest-rank rule, percentile ``p`` of ``n`` samples is the
    sample of rank ``ceil(p * n / 100)``.
    """
    return n - math.ceil(p * n / 100)


def tail_percentile(n: int, min_beyond: int = TAIL_MIN_BEYOND) -> int:
    """Highest integer percentile with ``min_beyond`` samples beyond it."""
    for p in range(99, 0, -1):
        if beyond(n, p) >= min_beyond:
            return p
    raise ValueError(
        f"{n} samples leave no percentile with {min_beyond} beyond it")


def percentile(samples: Sequence[float], p: int) -> float:
    """Nearest-rank percentile ``p`` (1..100) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return float(ordered[rank - 1])


def cell_updates_per_s(cells_per_step: Sequence[int],
                       time_to_solution_s: float) -> float:
    """Valid cells advanced, summed over steps, per second of stepping."""
    if time_to_solution_s <= 0:
        raise ValueError("time to solution must be positive")
    return float(sum(cells_per_step)) / time_to_solution_s


def normalized(times: Sequence[float], cals: Sequence[float],
               ref_s: float) -> list:
    """``times`` rescaled to a machine whose calibration kernel takes ``ref_s``.

    ``cals`` holds the kernel's time before each interval and after the
    last one, so one entry more than ``times``; interval ``i`` is scaled
    by ``ref_s`` over the mean of ``cals[i]`` and ``cals[i + 1]``.
    """
    if len(cals) != len(times) + 1:
        raise ValueError("need one calibration more than intervals")
    if min(cals) <= 0:
        raise ValueError("calibration times must be positive")
    return [t * ref_s / (0.5 * (cals[i] + cals[i + 1]))
            for i, t in enumerate(times)]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

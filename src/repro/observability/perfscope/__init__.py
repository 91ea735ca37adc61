"""perfscope: the per-task record and everything computed from it.

The scheduler records every task's lifecycle in one per-stage
:class:`StageTrace` — one :class:`TaskSpan` per task, always::

    created -> enqueued -> pickled [bytes + time] -> dispatched
            -> started-on-worker -> finished -> result-transferred
            -> merged

Span ids travel with the task payload into pool workers and are
reconciled in the driver; worker timestamps share the driver's
``CLOCK_MONOTONIC`` epoch (fork, POSIX), so one timeline covers all
processes.  From the closed traces perfscope computes, per step
(:func:`attribute_stage`, merged into a :class:`StepPerf`):

- task counts and execute seconds by kind, and the **measured
  comm/compute overlap** (compute time under an open ``comm-post``
  window) — the ``runtime.*`` gauges and the report's overlap section;
- the **critical path** of each executed stage DAG (longest dependency
  chain weighted by measured task time) and the **realized
  parallelism** (total busy time / critical-path time);
- an **overhead breakdown** — serialize / queue-wait / execute /
  result / merge / idle — per kernel class, tiled against the run's
  worker-second capacity (lanes x makespan) so the attribution is a
  checkable identity, not a tautology; ``idle_frac`` is this measured
  idle over capacity;
- **per-lane idle-gap timelines** (driver = lane 0, pool workers
  1..N) and a per-box execute-cost histogram.

Results surface as ``runtime.*`` and ``perf.*`` recorder gauges, the run
report's "overlap" and "bottleneck" sections, the Chrome-trace task
tracks with their lifecycle sub-slices, and
``benchmarks/bench_perfscope.py`` rows in BENCH_results.json, gated by
``tools/bench_gate.py``.
"""

from repro.observability.perfscope.attribution import StepPerf, attribute_stage
from repro.observability.perfscope.critpath import critical_path
from repro.observability.perfscope.lifecycle import (
    StageTrace,
    TaskSpan,
    kernel_class,
)

__all__ = [
    "StageTrace",
    "TaskSpan",
    "StepPerf",
    "attribute_stage",
    "critical_path",
    "kernel_class",
]

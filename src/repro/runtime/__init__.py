"""repro.runtime: asynchronous task-graph execution of the CRoCCo step.

The paper's scaling story (Fig. 7) hinges on overlapping communication
with computation: FillBoundary/ParallelCopy are split into ``nowait``
(post) and ``finish`` (complete) halves so interior kernel work can run
in the gap, and AMReX itself schedules box work through asynchronous
iterators and launch queues.  This package gives the reproduction a real
runtime with the same structure:

- :mod:`repro.runtime.graph` — tasks with explicit read/write sets keyed
  on (MultiFab id, box id, component range); dependencies (RAW/WAR/WAW)
  are inferred automatically.
- :mod:`repro.runtime.scheduler` — ready-queue topological execution
  with comm-posting priority; each task is timed once into a per-stage
  perfscope record, from which the per-task tracer spans and the
  measured comm/compute overlap + worker idle statistics are computed.
- :mod:`repro.runtime.executors` — pluggable executors: ``serial``
  (deterministic, bit-identical to the eager driver) and ``pool``
  (real ``multiprocessing`` workers over SharedMemory-backed FABs).
- :mod:`repro.runtime.shm` — the shared-memory arena that lets worker
  processes operate on patch data in place.
- :mod:`repro.runtime.engine` — the driver-facing facade that builds
  per-RK-stage graphs (:mod:`repro.runtime.rk3graph`) and accumulates
  their attribution into per-step and whole-run records.
"""

from repro.runtime.engine import RuntimeEngine
from repro.runtime.executors import EXECUTORS, make_executor
from repro.runtime.graph import DataKey, Task, TaskGraph
from repro.runtime.scheduler import Scheduler

__all__ = [
    "DataKey",
    "Task",
    "TaskGraph",
    "Scheduler",
    "RuntimeEngine",
    "EXECUTORS",
    "make_executor",
]

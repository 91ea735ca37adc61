"""RuntimeEngine: the driver-facing facade over the task runtime.

Owns the executor, the shared-memory arena (pool mode), and the
scheduler; builds one task graph per RK stage, attributes each stage's
:class:`~repro.observability.perfscope.StageTrace` and accumulates the
results into a per-step
:class:`~repro.observability.perfscope.StepPerf` the observability
layer samples (``runtime.*`` and ``perf.*`` gauges, the run report's
overlap and bottleneck sections).
"""

from __future__ import annotations

from typing import Optional

from repro.observability.perfscope import StepPerf, attribute_stage
from repro.runtime.executors import make_executor, set_worker_context
from repro.runtime.rk3graph import build_stage_graph
from repro.runtime.scheduler import RUNTIME_STREAM_BASE, Scheduler
from repro.runtime.shm import SharedArena

#: MultiFab tags a level contributes to the shared arena
LEVEL_TAGS = ("state", "du", "coords")


class RuntimeEngine:
    """Task-graph execution of the CRoCCo advance for one simulation."""

    def __init__(self, sim, executor: str = "serial",
                 workers: Optional[int] = None) -> None:
        self.sim = sim
        #: the simulation's fault injector, if a fault plan is active
        self.faults = getattr(sim, "faults", None)
        self.executor = make_executor(executor, workers,
                                      supervision=self._supervision(sim))
        self.arena = SharedArena() if self.is_pool else None
        if self.is_pool:
            set_worker_context(sim.kernels, sim.case)
        self.scheduler = Scheduler(self.executor, profiler=sim.profiler)
        self._acc: Optional[StepPerf] = None
        self._closed = False
        #: attribution of the most recent completed step
        self.last_step_report: Optional[StepPerf] = None
        #: attribution of the whole run
        self.total_report = StepPerf()
        #: per-kernel-class launch counters merged from pool workers during
        #: the most recent completed step ({} on inline executors)
        self.last_step_worker_counters: dict = {}

    @staticmethod
    def _supervision(sim) -> Optional[dict]:
        """Supervisor knobs from the simulation's config (None = bare pool)."""
        cfg = getattr(sim, "config", None)
        if cfg is None or not getattr(cfg, "supervise", True):
            return None
        return {
            "task_retries": getattr(cfg, "task_retries", 2),
            "backoff": getattr(cfg, "retry_backoff", 0.05),
            "task_timeout": getattr(cfg, "task_timeout", 30.0),
            "max_pool_restarts": getattr(cfg, "max_pool_restarts", 3),
            "stats": getattr(sim, "resilience", None),
        }

    @property
    def is_pool(self) -> bool:
        return self.executor.name == "pool"

    @property
    def name(self) -> str:
        return self.executor.name

    def bind_tracer(self, tracer, rank: int = 0) -> None:
        """Route per-task spans to ``tracer`` on named worker tracks."""
        self.scheduler.tracer = tracer
        self.scheduler.trace_rank = rank
        tracer.set_thread_name(rank, RUNTIME_STREAM_BASE, "runtime driver")
        for w in range(1, getattr(self.executor, "nworkers", 1) + 1):
            tracer.set_thread_name(rank, RUNTIME_STREAM_BASE + w,
                                   f"runtime worker {w}")

    # -- level storage ----------------------------------------------------
    def adopt_level(self, lev: int) -> None:
        """Re-home a level's MultiFabs into shared memory (pool mode)."""
        if self.arena is None:
            return
        stores = {"state": self.sim.state, "du": self.sim.du,
                  "coords": self.sim.coords}
        for tag in LEVEL_TAGS:
            self.arena.adopt_multifab((tag, lev), stores[tag][lev])

    def release_level(self, lev: int) -> None:
        """Copy a level's data back to the heap and free its segments."""
        if self.arena is None:
            return
        for tag in LEVEL_TAGS:
            self.arena.release((tag, lev))

    # -- step execution ---------------------------------------------------
    def begin_step(self) -> None:
        self._acc = StepPerf()

    def run_stage(self, dt: float, stage: int) -> StepPerf:
        graph = build_stage_graph(self.sim, dt, stage, arena=self.arena)
        if self.faults is not None:
            self.faults.instrument(graph, step=self.sim.step_count,
                                   stage=stage)
        perf = attribute_stage(self.scheduler.run(graph))
        if self._acc is not None:
            self._acc.merge(perf)
        return perf

    def end_step(self) -> None:
        if self._acc is not None:
            self.last_step_report = self._acc
            self.total_report.merge(self._acc)
            self._acc = None
        # fold the step's worker-side launch counters into the driver's
        # execution backend so pool runs report their device activity
        counters = self.executor.drain_worker_counters()
        self.last_step_worker_counters = counters
        if counters:
            backend = getattr(self.sim.kernels, "exec_backend", None)
            if backend is not None:
                backend.merge_worker_counters(counters)

    def abort_step(self) -> None:
        """Discard the partially accumulated step (watchdog rollback)."""
        self._acc = None
        # a rolled-back step's worker launches are discarded with it
        self.executor.drain_worker_counters()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.executor.shutdown()
        if self.arena is not None:
            self.arena.release_all()

    def __enter__(self) -> "RuntimeEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

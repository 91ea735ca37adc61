"""Ready-queue scheduler with comm-posting priority.

Tasks become ready when their dependencies complete; among ready tasks
the scheduler prefers, in order: ``comm-post`` (get halo exchanges in
flight as early as possible), then boundary/interp/compute work, and
``comm-wait`` last (finish a posted exchange only when nothing useful
can run in the gap).  Ties break on submission order, so the ``serial``
executor is fully deterministic and — because only mutually independent
tasks are ever reordered — bit-identical to the eager driver.

Each task is timed once, into the stage's
:class:`~repro.observability.perfscope.StageTrace` (enqueued,
serialized, dispatched, started-on-worker, finished, collected,
merged).  The closed trace is the scheduler's only per-task record: the
measured comm/compute overlap (the quantity the paper's Fig. 7 models),
the lifecycle attribution and — in one pass at the end of the stage —
the Chrome-trace ``task`` spans (``tid`` = the lane that ran the task:
0 the driver, 1..N pool workers) and their ``lifecycle`` sub-slices
(``serialize``/``collect`` on the driver track, ``wait`` before an
offloaded task) are all computed from it.
"""

from __future__ import annotations

import heapq
import time
from contextlib import ExitStack
from typing import List, Optional, Tuple

from repro.observability.perfscope.lifecycle import StageTrace
from repro.runtime.graph import Task, TaskGraph

#: scheduling priority by task kind (lower runs first among ready tasks)
KIND_PRIORITY = {
    "comm-post": 0,
    "bc": 1,
    "interp": 1,
    "compute": 2,
    "comm": 2,
    "comm-wait": 3,
}

#: tracer stream ids: worker w runs on stream RUNTIME_STREAM_BASE + w
RUNTIME_STREAM_BASE = 8


class Scheduler:
    """Executes one TaskGraph on an executor, recording a StageTrace."""

    def __init__(self, executor, profiler=None, tracer=None,
                 trace_rank: int = 0) -> None:
        self.executor = executor
        self.profiler = profiler
        self.tracer = tracer
        self.trace_rank = trace_rank
        #: span ids stay unique across every stage this scheduler runs
        self._next_sid = 0

    def run(self, graph: TaskGraph) -> StageTrace:
        t_start = time.perf_counter()
        nworkers = getattr(self.executor, "nworkers", 1)
        is_pool = getattr(self.executor, "name", "serial") == "pool"
        # the scheduler's epoch is the trace's, so driver-relative now()
        # readings and worker-absolute perf_counter readings reconcile
        trace = StageTrace(graph, 1 + (nworkers if is_pool else 0),
                           sid_base=self._next_sid, t0_abs=t_start)
        self._next_sid += len(graph.tasks)
        # anchor this stage's spans on the tracer's own timeline so the
        # worker tracks render as one continuous run, not per-stage piles
        base_us = self.tracer.now_us() if self.tracer is not None else 0.0

        remaining = {t.tid for t in graph.tasks}
        unmet = {t.tid: len(t.deps) for t in graph.tasks}
        ready: List[Tuple[int, int]] = []  # (priority, tid)

        def now() -> float:
            return time.perf_counter() - t_start

        def push(tid: int) -> None:
            heapq.heappush(ready, (KIND_PRIORITY[graph.tasks[tid].kind], tid))
            trace.enqueued(tid, now())

        for t in graph.tasks:
            if unmet[t.tid] == 0:
                push(t.tid)

        def complete(task: Task) -> None:
            remaining.discard(task.tid)
            for d in task.dependents:
                unmet[d] -= 1
                if unmet[d] == 0:
                    push(d)
            trace.merged(task.tid, now())

        def run_inline(task: Task) -> None:
            t0 = now()
            with ExitStack() as stack:
                if self.profiler is not None:
                    for name in task.regions:
                        stack.enter_context(self.profiler.region(name))
                task.fn()
            trace.ran_inline(task.tid, t0, now() - t0)
            complete(task)

        def on_offload_done(task: Task, worker: int, dur: float,
                            lifecycle: Optional[dict] = None) -> None:
            trace.offloaded_done(task.tid, worker, dur, lifecycle or {},
                                 now())
            complete(task)

        try:
            self._drive(graph, remaining, ready, unmet, run_inline,
                        on_offload_done, trace)
        except Exception:
            # a failed task must not leave zombie work behind: abandon
            # anything in flight (terminating pool workers so no stale
            # write can land later) before the error propagates to the
            # step-retry machinery
            cancel = getattr(self.executor, "cancel_pending", None)
            if cancel is not None:
                cancel()
            raise

        trace.close(now())
        if self.tracer is not None:
            self._emit_spans(trace, base_us)
        return trace

    def _emit_spans(self, trace: StageTrace, base_us: float) -> None:
        """Emit the closed trace's task spans and lifecycle sub-slices.

        Each task becomes a ``task`` span on its lane's track.  A task
        handed to the executor also gets ``lifecycle`` slices:
        ``serialize`` on the driver track (that's whose time it was),
        ``wait`` before the task span on the worker track, and
        ``collect`` for the driver folding the result back in.
        """
        tracer, rank = self.tracer, self.trace_rank
        driver = RUNTIME_STREAM_BASE
        for s in trace.spans:
            if s.t_started is None:
                continue
            tracer.complete(s.name, base_us + s.t_started * 1e6,
                            s.execute_s * 1e6, rank=rank,
                            stream=driver + s.lane, cat="task",
                            args={"kind": s.kind})
            if s.t_dispatched is None:
                continue
            args = {"task": s.name, "cat_detail": "lifecycle"}
            if s.serialize_s:
                tracer.complete(
                    "serialize",
                    base_us + (s.t_dispatched - s.serialize_s) * 1e6,
                    s.serialize_s * 1e6, rank=rank, stream=driver,
                    cat="lifecycle", args=dict(args, bytes=s.pickle_bytes))
            if s.queue_wait_s:
                tracer.complete(
                    "wait", base_us + s.t_dispatched * 1e6,
                    s.queue_wait_s * 1e6, rank=rank,
                    stream=driver + s.lane, cat="lifecycle", args=args)
            if s.t_collected is not None and s.t_merged is not None:
                tracer.complete(
                    "collect", base_us + s.t_collected * 1e6,
                    (s.t_merged - s.t_collected) * 1e6, rank=rank,
                    stream=driver, cat="lifecycle", args=args)

    def _drive(self, graph, remaining, ready, unmet, run_inline,
               on_offload_done, trace: StageTrace) -> None:
        """The scheduling loop: saturate the pool, run inline, drain."""
        while remaining:
            # keep the pool saturated with ready offloadable work before
            # the driver commits to an inline task
            launched = True
            while launched and ready:
                launched = False
                if self.executor.in_flight() < getattr(
                        self.executor, "nworkers", 0):
                    for idx, (_p, tid) in enumerate(ready):
                        task = graph.tasks[tid]
                        if self.executor.can_offload(task):
                            ready[idx] = ready[-1]
                            ready.pop()
                            heapq.heapify(ready)
                            # the span id rides with the payload and
                            # is echoed back by the worker
                            task.payload["_sid"] = trace.sid(tid)
                            self.executor.submit(task, on_offload_done)
                            launched = True
                            break
            # drain completions opportunistically so dependents unblock
            while self.executor.in_flight() and self.executor.poll():
                self.executor.wait_one()
            if ready:
                _prio, tid = heapq.heappop(ready)
                run_inline(graph.tasks[tid])
            elif self.executor.in_flight():
                self.executor.wait_one()
            elif remaining:  # pragma: no cover - defensive: cycle caught at build
                # (the drain above may have emptied `remaining`; the loop
                # condition handles that — reaching here means a real stall)
                stuck = [(graph.tasks[tid].name, unmet[tid],
                          sorted(graph.tasks[tid].deps))
                         for tid in sorted(remaining)]
                raise RuntimeError(
                    f"scheduler stalled with no ready tasks: {stuck}")
        while self.executor.in_flight():  # pragma: no cover - drained above
            self.executor.wait_one()


"""Task-lifecycle spans: the scheduler's one per-task record.

A :class:`TaskSpan` records one task's lifecycle timestamps, all in
seconds relative to the owning stage's ``t0_abs`` (a ``perf_counter``
reading).  Worker processes are forked from the driver and
``perf_counter`` reads ``CLOCK_MONOTONIC`` on POSIX, so timestamps
measured inside a worker live on the same clock as the driver's and
reconcile by simple subtraction; any negative interval that survives
(clock trouble, interrupted writes) is clamped and counted in
``reconcile_errors`` rather than poisoning the attribution.

The scheduler opens one :class:`StageTrace` per executed graph and
feeds it lifecycle events; everything else — the ``runtime.*`` overlap
statistics, the ``perf.*`` attribution and the Chrome-trace task tracks
— is computed from the closed trace.  A trace meters the cost of its
own construction (``overhead_s``) so the bookkeeping is itself measured
and reported.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

_BOX_RE = re.compile(r"\(L(\d+),b(\d+)\)")


def kernel_class(name: str) -> str:
    """The kernel class of a task name: its prefix before ``(``.

    ``Box(L1,b3)`` -> ``Box``, ``FB_nowait(L0)`` -> ``FB_nowait``,
    ``AverageDown(L1->L0)`` -> ``AverageDown``.
    """
    return name.split("(", 1)[0]


def box_of(name: str) -> Optional[Tuple[int, int]]:
    """The (level, box) a per-box task touches, or None."""
    m = _BOX_RE.search(name)
    return (int(m.group(1)), int(m.group(2))) if m else None


@dataclass
class TaskSpan:
    """One task's reconciled lifecycle (times relative to stage t0)."""

    sid: int
    name: str
    kind: str
    kclass: str
    deps: Tuple[int, ...] = ()
    channel: Optional[Hashable] = None  # comm channel posted or consumed
    lane: int = 0                 # 0 = driver, 1..N = pool workers
    offloaded: bool = False
    t_enqueued: Optional[float] = None
    t_dispatched: Optional[float] = None
    t_started: Optional[float] = None
    t_finished: Optional[float] = None
    t_collected: Optional[float] = None
    t_merged: Optional[float] = None
    serialize_s: float = 0.0
    deserialize_s: float = 0.0
    pickle_bytes: int = 0

    @property
    def execute_s(self) -> float:
        if self.t_started is None or self.t_finished is None:
            return 0.0
        return max(0.0, self.t_finished - self.t_started)

    @property
    def queue_wait_s(self) -> float:
        """Dispatch-to-start gap (offloaded tasks only)."""
        if not self.offloaded or self.t_dispatched is None \
                or self.t_started is None:
            return 0.0
        return max(0.0, self.t_started - self.t_dispatched)

    @property
    def result_s(self) -> float:
        """Worker-finish to driver-collection latency."""
        if not self.offloaded or self.t_finished is None \
                or self.t_collected is None:
            return 0.0
        return max(0.0, self.t_collected - self.t_finished)

    @property
    def merge_s(self) -> float:
        """Driver time spent folding the completion into the step."""
        if self.t_collected is None or self.t_merged is None:
            return 0.0
        return max(0.0, self.t_merged - self.t_collected)


class StageTrace:
    """Lifecycle spans of one executed stage graph."""

    def __init__(self, graph, nlanes: int, sid_base: int = 0,
                 t0_abs: Optional[float] = None) -> None:
        t_build = time.perf_counter()
        self.t0_abs = t_build if t0_abs is None else t0_abs
        self.nlanes = max(1, int(nlanes))
        self.makespan_s = 0.0
        self.reconcile_errors = 0
        self.spans: List[TaskSpan] = [
            TaskSpan(sid=sid_base + t.tid, name=t.name, kind=t.kind,
                     kclass=kernel_class(t.name),
                     deps=tuple(sid_base + d for d in t.deps),
                     channel=t.channel)
            for t in graph.tasks
        ]
        self._sid_base = sid_base
        #: measured cost of building this record (seconds)
        self.overhead_s = time.perf_counter() - t_build

    # -- event hooks (tid = task id within this stage's graph) -------------
    def sid(self, tid: int) -> int:
        return self._sid_base + tid

    def rel(self, t_abs: float) -> float:
        return t_abs - self.t0_abs

    def enqueued(self, tid: int, t: float) -> None:
        self.spans[tid].t_enqueued = t

    def ran_inline(self, tid: int, t0: float, dur: float) -> None:
        s = self.spans[tid]
        s.lane = 0
        s.t_started = t0
        s.t_finished = t0 + dur
        # an inline result is "collected" the moment it finishes; the
        # merge timestamp then isolates the dependent-release cost
        s.t_collected = s.t_finished

    def offloaded_done(self, tid: int, lane: int, dur: float,
                       lifecycle: Dict[str, float],
                       t_collected: float) -> None:
        """Reconcile a worker-run task's lifecycle in the driver.

        ``lifecycle`` carries absolute ``perf_counter`` timestamps from
        the executor/worker plus serialize metering; the echoed span id
        (if present) must match — a mismatch is counted, not trusted.
        """
        s = self.spans[tid]
        echoed = lifecycle.get("sid")
        if echoed is not None and int(echoed) != s.sid:
            self.reconcile_errors += 1
        s.lane = max(0, int(lane))
        s.offloaded = lane > 0
        s.serialize_s = float(lifecycle.get("serialize_s", 0.0))
        s.deserialize_s = float(lifecycle.get("deserialize_s", 0.0))
        s.pickle_bytes = int(lifecycle.get("pickle_bytes", 0))
        t_disp = lifecycle.get("t_dispatched")
        t_start = lifecycle.get("t_started")
        t_finish = lifecycle.get("t_finished")
        s.t_dispatched = self.rel(t_disp) if t_disp is not None else None
        if t_start is not None and t_finish is not None:
            s.t_started = self.rel(t_start)
            s.t_finished = self.rel(t_finish)
        else:  # executor gave only a duration; anchor at collection
            s.t_started = t_collected - dur
            s.t_finished = t_collected
        if s.t_dispatched is not None and s.t_started < s.t_dispatched:
            # reconciliation slack: never let clock jitter create a
            # negative queue wait
            self.reconcile_errors += 1
            s.t_started = s.t_dispatched
            s.t_finished = max(s.t_finished, s.t_started)
        s.t_collected = t_collected

    def merged(self, tid: int, t: float) -> None:
        self.spans[tid].t_merged = t

    def close(self, makespan_s: float) -> None:
        self.makespan_s = makespan_s


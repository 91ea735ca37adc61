"""Critical path of an executed stage DAG.

The critical path is the longest dependency chain through the stage
graph, weighted by each task's *measured* span (serialize + queue wait
+ execute for offloaded tasks — the full latency a dependent actually
waits for; execute time for inline ones).  Its length bounds how fast
any executor can finish the stage no matter how many workers it has:
``realized parallelism = total busy time / critical-path time`` tells
how much of the DAG's theoretical concurrency a schedule achieved.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.observability.perfscope.lifecycle import StageTrace, TaskSpan


def span_weight(span: TaskSpan) -> float:
    """The latency a dependent waits on this task: lifecycle-inclusive."""
    return span.serialize_s + span.queue_wait_s + span.execute_s \
        + span.result_s + span.merge_s


def critical_path(trace: StageTrace) -> Tuple[float, List[TaskSpan]]:
    """(seconds, spans on the path) of one stage's longest weighted chain.

    Dynamic programming over the DAG in sid order — edges only point
    backwards (the graph builder appends tasks after their
    dependencies), so a single forward sweep suffices.
    """
    spans = trace.spans
    if not spans:
        return 0.0, []
    base = spans[0].sid
    best: Dict[int, float] = {}      # sid -> chain length ending here
    prev: Dict[int, int] = {}        # sid -> predecessor on that chain
    for s in spans:
        w = span_weight(s)
        longest, arg = 0.0, None
        for d in s.deps:
            got = best.get(d, 0.0)
            if got > longest:
                longest, arg = got, d
        best[s.sid] = longest + w
        if arg is not None:
            prev[s.sid] = arg
    end = max(best, key=best.get)
    path: List[TaskSpan] = []
    sid = end
    while True:
        path.append(spans[sid - base])
        if sid not in prev:
            break
        sid = prev[sid]
    path.reverse()
    return best[end], path


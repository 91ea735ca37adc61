"""Property test: StepPerf aggregates equal a naive recompute.

Random stage traces (random DAG, task kinds, comm channels, inline or
offloaded lanes, consistent lifecycle timestamps) are attributed with
:func:`attribute_stage`; the per-kind execute sums, the measured
comm/compute overlap, the lane idle, the makespan and a multi-step
``merge`` must equal straightforward recomputations written here
independently — the per-kind sums and the overlap integral in the form
the scheduler's former per-stage report used.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.perfscope import StageTrace, attribute_stage

KINDS = ("comm-post", "comm-wait", "compute", "interp", "bc")
CHANNELS = (None, "a", "b")
#: timestamps are multiples of 1/8 so the sums are exact in binary
TICK = 0.125


class FakeTask:
    def __init__(self, tid, kind, channel, deps):
        self.tid = tid
        self.name = f"T{tid}"
        self.kind = kind
        self.channel = channel
        self.deps = tuple(deps)


class FakeGraph:
    def __init__(self, tasks):
        self.tasks = tasks


@st.composite
def stage_traces(draw):
    n = draw(st.integers(1, 10))
    nlanes = draw(st.integers(1, 3))
    tasks = []
    for tid in range(n):
        deps = draw(st.sets(st.integers(0, tid - 1), max_size=3)) \
            if tid else set()
        tasks.append(FakeTask(tid, draw(st.sampled_from(KINDS)),
                              draw(st.sampled_from(CHANNELS)), sorted(deps)))
    trace = StageTrace(FakeGraph(tasks), nlanes, t0_abs=0.0)
    ticks = st.integers(0, 8).map(lambda k: k * TICK)
    end = 0.0
    for tid in range(n):
        lane = draw(st.integers(0, nlanes - 1))
        start = draw(st.integers(0, 40)) * TICK
        dur = draw(ticks)
        if lane == 0:
            trace.ran_inline(tid, start, dur)
            t_merged = start + dur + draw(ticks)
        else:
            serialize = draw(ticks)
            dispatched = serialize + start
            started = dispatched + draw(ticks)
            finished = started + dur
            collected = finished + draw(ticks)
            trace.offloaded_done(tid, lane, dur, {
                "serialize_s": serialize, "t_dispatched": dispatched,
                "t_started": started, "t_finished": finished,
            }, collected)
            t_merged = collected + draw(ticks)
        trace.merged(tid, t_merged)
        end = max(end, t_merged)
    trace.close(end + draw(ticks))
    return trace


# -- the reference: the former per-stage report's formulas ------------------

def _interval_overlap(spans, windows):
    """Total length of ``spans`` covered by the union of ``windows``."""
    if not spans or not windows:
        return 0.0
    merged = []
    for lo, hi in sorted(windows):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    total = 0.0
    for s0, s1 in spans:
        for w0, w1 in merged:
            lo, hi = max(s0, w0), min(s1, w1)
            if lo < hi:
                total += hi - lo
    return total


def naive_windows(trace):
    """A post's window runs from its finish to the first start of a
    consumer on its channel (or the makespan); it survives only if no
    later post on the channel finishes before that close."""
    windows = []
    for p in trace.spans:
        if p.kind != "comm-post" or p.channel is None:
            continue
        starts = [c.t_started for c in trace.spans
                  if c.channel == p.channel and c.kind != "comm-post"
                  and c.t_started >= p.t_finished]
        close = min(starts, default=trace.makespan_s)
        superseded = any(
            q is not p and q.kind == "comm-post" and q.channel == p.channel
            and p.t_finished < q.t_finished <= close
            for q in trace.spans)
        if not superseded:
            windows.append((p.t_finished, close))
    return windows


def naive_report(trace):
    ref = {"posted_comm_s": 0.0, "finish_comm_s": 0.0, "compute_s": 0.0}
    compute_spans = []
    for s in trace.spans:
        dur = s.t_finished - s.t_started
        if s.kind == "comm-post":
            ref["posted_comm_s"] += dur
        elif s.kind == "comm-wait":
            ref["finish_comm_s"] += dur
        elif s.kind == "compute":
            ref["compute_s"] += dur
            compute_spans.append((s.t_started, s.t_finished))
    ref["overlap_s"] = _interval_overlap(compute_spans, naive_windows(trace))
    ref["tasks_by_kind"] = dict(Counter(s.kind for s in trace.spans))
    ref["makespan_s"] = trace.makespan_s
    ref["idle_s"] = naive_idle(trace)
    return ref


def naive_idle(trace):
    """Sum over lanes of the elementary segments no busy interval covers
    (driver-lane segments under an in-flight result are not idle)."""
    busy = {lane: [] for lane in range(trace.nlanes)}
    results = []
    for s in trace.spans:
        if s.offloaded:
            busy[s.lane].append((s.t_dispatched, s.t_finished))
            busy[0].append((s.t_dispatched - s.serialize_s, s.t_dispatched))
            results.append((s.t_finished, s.t_collected))
        else:
            busy[0].append((s.t_started, s.t_finished))
        busy[0].append((s.t_collected, s.t_merged))
    cuts = {0.0, trace.makespan_s}
    for ivals in list(busy.values()) + [results]:
        for lo, hi in ivals:
            cuts.update((lo, hi))
    cuts = sorted(c for c in cuts if 0.0 <= c <= trace.makespan_s)
    idle = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        for lane, ivals in busy.items():
            if any(lo < mid < hi for lo, hi in ivals):
                continue
            if lane == 0 and any(lo < mid < hi for lo, hi in results):
                continue
            idle += b - a
    return idle


def assert_matches(perf, ref):
    assert perf.tasks_by_kind == ref["tasks_by_kind"]
    for key in ("posted_comm_s", "finish_comm_s", "compute_s", "overlap_s",
                "makespan_s", "idle_s"):
        assert getattr(perf, key) == pytest.approx(ref[key], abs=1e-9), key


@settings(max_examples=150, deadline=None)
@given(stage_traces())
def test_stage_aggregate_matches_naive_recompute(trace):
    perf = attribute_stage(trace)
    assert_matches(perf, naive_report(trace))
    assert perf.capacity_s == trace.makespan_s * trace.nlanes
    assert perf.idle_frac == (perf.idle_s / perf.capacity_s
                              if perf.capacity_s else 0.0)
    assert perf.overlap_s <= perf.compute_s + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.lists(stage_traces(), min_size=1, max_size=4))
def test_merged_steps_match_naive_sums(traces):
    total = attribute_stage(traces[0])
    for trace in traces[1:]:
        total.merge(attribute_stage(trace))
    refs = [naive_report(t) for t in traces]
    kinds = Counter()
    for ref in refs:
        kinds.update(ref["tasks_by_kind"])
    summed = {key: sum(ref[key] for ref in refs)
              for key in ("posted_comm_s", "finish_comm_s", "compute_s",
                          "overlap_s", "makespan_s", "idle_s")}
    summed["tasks_by_kind"] = dict(kinds)
    assert_matches(total, summed)
    assert total.stages == len(traces)
    assert total.nlanes == max(t.nlanes for t in traces)

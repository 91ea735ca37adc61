"""Accounting tallies equal a recompute from the raw events (property-based).

The ledger and the simulated devices keep aggregates, not event lists.
These tests keep the raw stream themselves and check that every summary
the tallies answer, and the pricing built on them, matches a naive
per-event recompute.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import KERNEL_CLASSES, DeviceBackend, LaunchSpec
from repro.kernels.counts import KernelBudget, budget_for_kernel
from repro.machine.gpu import V100Model
from repro.mpi.ledger import KINDS, CommLedger
from repro.perfmodel.calibration import CAL
from repro.perfmodel.device_timing import summarize_device
from repro.perfmodel.ledger_pricing import price_ledger

MAX_RANKS = 8

#: raw message streams as (src, dst, nbytes, kind), the record() order
messages = st.lists(
    st.tuples(st.integers(0, MAX_RANKS - 1), st.integers(0, MAX_RANKS - 1),
              st.integers(0, 10**6), st.sampled_from(KINDS)),
    max_size=60)


def naive_price(msgs, nranks, nodes):
    """The per-message pricing loop, over the raw list."""
    net = CAL.net
    rpn = max(1, nranks // nodes)
    seconds, offb, onb, counts = {}, {}, {}, {}
    for kind in KINDS:
        ms = [m for m in msgs if m[3] == kind]
        counts[kind] = len(ms)
        if not ms:
            seconds[kind], offb[kind], onb[kind] = 0.0, 0, 0
            continue
        recv_off = np.zeros(nranks)
        recv_on = np.zeros(nranks)
        nmsg = np.zeros(nranks, dtype=np.int64)
        for src, dst, nbytes, _ in ms:
            if src == dst:
                continue
            src, dst = src % nranks, dst % nranks
            if src // rpn == dst // rpn:
                recv_on[dst] += nbytes
            else:
                recv_off[dst] += nbytes
                nmsg[dst] += 1
        offb[kind], onb[kind] = int(recv_off.sum()), int(recv_on.sum())
        t = net.p2p_time(float(recv_off.max()), float(recv_on.max()),
                         int(nmsg.max()), nodes)
        if kind in ("parallelcopy", "regrid"):
            t += CAL.pc_meta_per_rank * nranks + net.barrier_time(nranks)
        if kind == "reduce":
            t = max(1, len(ms) // max(1, 2 * (nranks - 1))) \
                * net.reduction_time(nranks)
        seconds[kind] = float(t)
    return seconds, offb, onb, counts


@settings(max_examples=40, deadline=None)
@given(messages, messages, st.sampled_from(KINDS), st.integers(1, 4),
       st.integers(1, MAX_RANKS), st.integers(1, MAX_RANKS))
def test_ledger_tally_equals_recompute(before, after, cleared, rpn, nranks,
                                       nodes):
    led = CommLedger(ranks_per_node=rpn)
    for m in before:
        led.record(*m)
    led.clear(cleared)
    msgs = [m for m in before if m[3] != cleared]
    for m in after:
        led.record(*m)
    msgs += after

    assert len(led) == led.count() == len(msgs)
    for kind in (None,) + KINDS:
        sel = [m for m in msgs if kind is None or m[3] == kind]
        remote = [m for m in sel if m[0] != m[1]]
        assert led.count(kind) == len(sel)
        assert led.count(kind, remote_only=True) == len(remote)
        assert led.total_bytes(kind) == sum(m[2] for m in sel)
        assert led.total_bytes(kind, remote_only=True) == \
            sum(m[2] for m in remote)
        assert led.off_node_bytes(kind) == sum(
            m[2] for m in sel if m[0] // rpn != m[1] // rpn)
        assert led.on_node_bytes(kind) == sum(
            m[2] for m in remote if m[0] // rpn == m[1] // rpn)
        for direction, end in (("send", 0), ("recv", 1)):
            expect = [0] * MAX_RANKS
            for m in remote:
                expect[m[end]] += m[2]
            assert led.per_rank_bytes(MAX_RANKS, kind, direction) == expect
    by_kind = {}
    matrix = [[0] * MAX_RANKS for _ in range(MAX_RANKS)]
    for src, dst, nbytes, kind in msgs:
        count, volume = by_kind.get(kind, (0, 0))
        by_kind[kind] = (count + 1, volume + nbytes)
        matrix[src][dst] += nbytes
    assert led.by_kind() == by_kind
    assert led.matrix(MAX_RANKS) == matrix

    # pricing folds ranks onto a smaller run with `% nranks`
    nodes = min(nodes, nranks)
    priced = price_ledger(led, nranks, nodes)
    seconds, offb, onb, counts = naive_price(msgs, nranks, nodes)
    assert priced.seconds == seconds
    assert priced.off_node_bytes == offb
    assert priced.on_node_bytes == onb
    assert priced.messages == counts


def budget(flops, dram):
    return KernelBudget(name="test", flops_per_point=flops,
                        dram_bytes_per_point=dram, l2_amplification=1.6,
                        l1_amplification=4.0, registers_per_thread=64)


#: a few launch names with fixed budgets, so equal launches recur
LAUNCHES = {"WENOx": budget(600, 400), "Update": budget(20, 96),
            "FB_pack": budget(1, 16), "ComputeDt": budget(3, 8)}

launches = st.lists(
    st.tuples(st.sampled_from(sorted(LAUNCHES)), st.integers(1, 40),
              st.sampled_from(KERNEL_CLASSES), st.integers(0, 2)),
    max_size=80)


class Capture:
    """Device listener keeping the raw launch stream."""

    def __init__(self):
        self.records = []

    def on_launch(self, device, rec, wall_seconds):
        self.records.append(rec)


@settings(max_examples=40, deadline=None)
@given(launches)
def test_device_tally_equals_recompute(stream):
    be = DeviceBackend(nranks=3)
    captures = [Capture() for _ in be.devices]
    for dev, cap in zip(be.devices, captures):
        dev.add_listener(cap)
    for name, npoints, cls, rank in stream:
        be.parallel_for(name, lambda: None, npoints,
                        LaunchSpec(kernel_class=cls, budget=LAUNCHES[name],
                                   rank=rank))
    fields = ("npoints", "flops", "dram_bytes", "l2_bytes", "l1_bytes")
    model = V100Model()
    for dev, cap in zip(be.devices, captures):
        recs = cap.records
        assert dev.launch_count() == len(recs)
        assert sum(dev.launch_tally.values()) == len(recs)
        for name in (None,) + tuple(LAUNCHES):
            sel = [r for r in recs if name is None or r.name == name]
            tot = dev.totals(name)
            for f in fields:
                assert getattr(tot, f) == sum(getattr(r, f) for r in sel)
        timing = summarize_device(dev, model)
        names = {r.name for r in recs}
        assert set(timing.launches) == names
        for name in names:
            sel = [r for r in recs if r.name == name]
            assert timing.launches[name] == len(sel)
            assert timing.points[name] == sum(r.npoints for r in sel)
            expect = sum(model.kernel_time(budget_for_kernel(name),
                                           r.npoints) for r in sel)
            assert timing.seconds[name] == pytest.approx(expect, rel=1e-12,
                                                         abs=0.0)
    every = [r for cap in captures for r in cap.records]
    classes = {r.kernel_class for r in every}
    totals = be.class_totals()
    assert set(totals) == classes
    for cls in classes:
        sel = [r for r in every if r.kernel_class == cls]
        assert totals[cls] == {
            "launches": len(sel), "points": sum(r.npoints for r in sel),
            "flops": sum(r.flops for r in sel),
            "dram_bytes": sum(r.dram_bytes for r in sel)}

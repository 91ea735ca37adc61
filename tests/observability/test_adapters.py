"""Tests for the silo adapters: profiler, ledger and device listeners."""

import numpy as np
import pytest

from repro.backend import DeviceBackend, LaunchSpec
from repro.kernels.counts import KernelBudget
from repro.mpi.ledger import CommLedger
from repro.observability.adapters import (
    DeviceMetricsAdapter,
    LedgerMetricsAdapter,
    ProfilerTraceAdapter,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import GPU_STREAM, Tracer
from repro.profiling.tinyprofiler import TinyProfiler


def test_profiler_regions_become_nested_spans():
    tracer = Tracer()
    prof = TinyProfiler()
    prof.add_listener(ProfilerTraceAdapter(tracer, rank=0))
    with prof.region("FillPatch"):
        with prof.region("FillBoundary"):
            pass
    spans = {e["name"]: e for e in tracer.events()}
    assert set(spans) == {"FillPatch", "FillBoundary"}
    inner, outer = spans["FillBoundary"], spans["FillPatch"]
    assert inner["ts"] >= outer["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6
    assert inner["args"]["path"] == "FillPatch/FillBoundary"
    # profiler accumulation is unchanged by the listener
    assert prof.calls("FillPatch") == 1
    assert "FillBoundary" in prof.breakdown("FillPatch")


def test_profiler_charges_become_charged_spans():
    tracer = Tracer()
    prof = TinyProfiler()
    prof.add_listener(ProfilerTraceAdapter(tracer, rank=0))
    with prof.charged_region("FillPatch"):
        prof.charge("ParallelCopy", 2.0)
        prof.charge("FillBoundary", 1.0)
    spans = {e["name"]: e for e in tracer.events()}
    assert spans["FillPatch"]["dur"] == pytest.approx(3.0e6)
    assert spans["ParallelCopy"]["dur"] == pytest.approx(2.0e6)
    # the tracer's charged layout matches the profiler's accounting
    assert prof.total("FillPatch") == pytest.approx(3.0)


def test_remove_listener_stops_forwarding():
    tracer = Tracer()
    prof = TinyProfiler()
    adapter = ProfilerTraceAdapter(tracer, rank=0)
    prof.add_listener(adapter)
    prof.charge("A", 1.0)
    prof.remove_listener(adapter)
    prof.charge("B", 1.0)
    assert {e["name"] for e in tracer.events()} == {"A"}


def test_ledger_adapter_counters_and_matrix():
    reg = MetricsRegistry()
    adapter = LedgerMetricsAdapter(reg, ranks_per_node=2)
    led = CommLedger()
    led.add_listener(adapter)
    led.record(0, 1, 100, "fillboundary")   # same node (ranks 0,1)
    led.record(0, 2, 50, "fillboundary")    # off node (node 0 -> node 1)
    led.record(3, 3, 10, "reduce")          # local: no on/off split
    snap = reg.snapshot()
    assert snap["ledger.fillboundary.bytes"] == 150
    assert snap["ledger.fillboundary.messages"] == 2
    assert snap["ledger.fillboundary.on_node_bytes"] == 100
    assert snap["ledger.fillboundary.off_node_bytes"] == 50
    assert snap["ledger.reduce.bytes"] == 10
    assert "ledger.reduce.on_node_bytes" not in snap
    m = adapter.comms_matrix()
    assert m[0][1] == 100 and m[0][2] == 50 and m[3][3] == 10
    assert len(m) == 4
    # explicit rank count pads the matrix
    assert len(adapter.comms_matrix(6)) == 6
    # ledger's own accounting is unchanged
    assert led.by_kind()["fillboundary"] == (2, 150)


def test_ledger_paused_suppresses_listener():
    reg = MetricsRegistry()
    led = CommLedger()
    led.add_listener(LedgerMetricsAdapter(reg))
    with led.paused():
        led.record(0, 1, 999, "reduce")
    assert reg.snapshot() == {}
    assert len(led) == 0


def test_device_adapter_counts_and_spans():
    reg = MetricsRegistry()
    tracer = Tracer()
    be = DeviceBackend()
    dev = be.devices[0]
    dev.add_listener(DeviceMetricsAdapter(reg, rank=0, tracer=tracer))
    spec = LaunchSpec(budget=KernelBudget(
        name="test", flops_per_point=10.0, dram_bytes_per_point=8.0,
        l2_amplification=1.6, l1_amplification=4.0, registers_per_thread=64))
    be.parallel_for("WENOx", lambda: None, 1000, spec)
    be.parallel_for("WENOx", lambda: None, 500, spec)
    snap = reg.snapshot()
    assert snap["kernel.WENOx.launches"] == 2
    assert snap["kernel.WENOx.points"] == 1500
    assert snap["kernel.WENOx.flops"] == 15000
    assert snap["kernel.WENOx.dram_bytes"] == 12000
    assert snap["device.rank0.high_water_bytes"] == dev.high_water
    spans = [e for e in tracer.events() if e["ph"] == "X"]
    assert len(spans) == 2
    assert all(e["tid"] == GPU_STREAM and e["cat"] == "kernel" for e in spans)


def test_device_reduce_notifies_listener():
    reg = MetricsRegistry()
    be = DeviceBackend()
    be.devices[0].add_listener(DeviceMetricsAdapter(reg, rank=0))
    out = be.reduce_data("ComputeDt", np.array([3.0, 1.0, 2.0]), op="min")
    assert out == 1.0
    assert reg.snapshot()["kernel.ComputeDt.launches"] == 1

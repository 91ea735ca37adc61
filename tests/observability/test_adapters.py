"""Tests for the span sources: a tracer-bound profiler and the device
listener."""

import numpy as np
import pytest

from repro.backend import DeviceBackend, LaunchSpec
from repro.kernels.counts import KernelBudget
from repro.observability.adapters import DeviceTraceAdapter
from repro.observability.recorder import device_gauges
from repro.observability.tracer import GPU_STREAM, Tracer
from repro.profiling.tinyprofiler import TinyProfiler


def test_profiler_regions_become_nested_spans():
    tracer = Tracer()
    prof = TinyProfiler()
    prof.bind_tracer(tracer, rank=0)
    with prof.region("FillPatch"):
        with prof.region("FillBoundary"):
            pass
    spans = {e["name"]: e for e in tracer.events()}
    assert set(spans) == {"FillPatch", "FillBoundary"}
    inner, outer = spans["FillBoundary"], spans["FillPatch"]
    assert inner["ts"] >= outer["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6
    assert inner["args"]["path"] == "FillPatch/FillBoundary"
    # profiler accumulation is unchanged by the tracer
    assert prof.calls("FillPatch") == 1
    assert "FillBoundary" in prof.breakdown("FillPatch")


def test_profiler_charges_become_charged_spans():
    tracer = Tracer()
    prof = TinyProfiler()
    prof.bind_tracer(tracer, rank=0)
    with prof.charged_region("FillPatch"):
        prof.charge("ParallelCopy", 2.0)
        prof.charge("FillBoundary", 1.0)
    spans = {e["name"]: e for e in tracer.events()}
    assert spans["FillPatch"]["dur"] == pytest.approx(3.0e6)
    assert spans["ParallelCopy"]["dur"] == pytest.approx(2.0e6)
    # the tracer's charged layout matches the profiler's accounting
    assert prof.total("FillPatch") == pytest.approx(3.0)


def test_device_adapter_counts_and_spans():
    tracer = Tracer()
    be = DeviceBackend()
    dev = be.devices[0]
    dev.add_listener(DeviceTraceAdapter(tracer, rank=0))
    spec = LaunchSpec(budget=KernelBudget(
        name="test", flops_per_point=10.0, dram_bytes_per_point=8.0,
        l2_amplification=1.6, l1_amplification=4.0, registers_per_thread=64))
    be.parallel_for("WENOx", lambda: None, 1000, spec)
    be.parallel_for("WENOx", lambda: None, 500, spec)
    # the recorder reads launch totals from the device tallies
    snap = device_gauges(be.devices)
    assert snap["kernel.WENOx.launches"] == 2
    assert snap["kernel.WENOx.points"] == 1500
    assert snap["kernel.WENOx.flops"] == 15000
    assert snap["kernel.WENOx.dram_bytes"] == 12000
    assert snap["device.rank0.high_water_bytes"] == dev.high_water
    spans = [e for e in tracer.events() if e["ph"] == "X"]
    assert len(spans) == 2
    assert all(e["tid"] == GPU_STREAM and e["cat"] == "kernel" for e in spans)
    assert [e["args"]["points"] for e in spans] == [1000, 500]


def test_device_reduce_notifies_listener():
    tracer = Tracer()
    be = DeviceBackend()
    be.devices[0].add_listener(DeviceTraceAdapter(tracer, rank=0))
    out = be.reduce_data("ComputeDt", np.array([3.0, 1.0, 2.0]), op="min")
    assert out == 1.0
    spans = [e for e in tracer.events() if e["ph"] == "X"]
    assert [(e["name"], e["args"]["class"]) for e in spans] == [
        ("ComputeDt", "reduction")]
    assert device_gauges(be.devices)["kernel.ComputeDt.launches"] == 1

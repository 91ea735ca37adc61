"""Tests for the simulated GPU device."""

import numpy as np
import pytest

from repro.backend import DeviceBackend, LaunchSpec
from repro.kernels.counts import KernelBudget
from repro.kernels.device import (
    DeviceMemoryError,
    GpuDevice,
    V100_MEMORY_BYTES,
)


def test_default_is_v100_capacity():
    dev = GpuDevice()
    assert dev.memory_bytes == V100_MEMORY_BYTES == 16 * 1024**3


def test_alloc_free_accounting():
    dev = GpuDevice(memory_bytes=1000)
    a = dev.reserve(80)
    assert dev.bytes_in_use == 80
    b = dev.reserve(40)
    assert dev.bytes_in_use == 120
    a.free()
    assert dev.bytes_in_use == 40
    a.free()  # idempotent
    assert dev.bytes_in_use == 40
    b.free()
    assert dev.bytes_in_use == 0
    assert dev.high_water == 120


def test_capacity_enforced():
    dev = GpuDevice(memory_bytes=100)
    dev.reserve(80)
    with pytest.raises(DeviceMemoryError):
        dev.reserve(80)


def test_context_manager_frees():
    dev = GpuDevice(memory_bytes=1000)
    with dev.reserve(80):
        assert dev.bytes_in_use == 80
    assert dev.bytes_in_use == 0


def budget(flops, dram, l2=1.0, l1=1.0):
    return KernelBudget(name="test", flops_per_point=flops,
                        dram_bytes_per_point=dram, l2_amplification=l2,
                        l1_amplification=l1, registers_per_thread=64)


def test_launch_records_and_returns():
    be = DeviceBackend()
    out = be.parallel_for("WENOx", lambda: np.ones(3), 1000,
                          LaunchSpec(budget=budget(600, 400, 1.6, 4.0)))
    assert np.all(out == 1.0)
    (rec,) = be.devices[0].launch_tally
    assert rec.name == "WENOx"
    assert rec.flops == 600000
    assert rec.dram_bytes == 400000
    assert rec.l2_bytes == 640000
    assert rec.l1_bytes == 1600000


def test_reduce():
    be = DeviceBackend()
    assert be.reduce_data("ComputeDt", np.array([3.0, 1.0, 2.0]), "min") == 1.0
    assert be.reduce_data("ComputeDt", np.array([3.0, 1.0]), "max") == 3.0
    assert be.reduce_data("ComputeDt", np.array([3.0, 1.0]), "sum") == 4.0
    with pytest.raises(ValueError):
        be.reduce_data("ComputeDt", np.array([1.0]), "prod")
    dev = be.devices[0]
    assert dev.launch_count() == 3
    rec = next(iter(dev.launch_tally))
    assert (rec.npoints, rec.flops, rec.dram_bytes, rec.l2_bytes,
            rec.l1_bytes) == (3, 3, 24, 24, 24)


def test_totals_and_by_kernel():
    be = DeviceBackend()
    be.parallel_for("A", lambda: None, 10, LaunchSpec(budget=budget(2, 4)))
    be.parallel_for("A", lambda: None, 10, LaunchSpec(budget=budget(2, 4)))
    be.parallel_for("B", lambda: None, 5, LaunchSpec(budget=budget(1, 1)))
    dev = be.devices[0]
    # the two equal "A" launches share one tally entry
    assert {rec.name: n for rec, n in dev.launch_tally.items()} == {
        "A": 2, "B": 1}
    assert dev.launch_count("A") == 2
    tot = dev.totals("A")
    assert tot.flops == 40
    assert dev.totals().npoints == 25


def test_listeners_see_every_launch_of_a_shared_entry():
    be = DeviceBackend()
    seen = []

    class Probe:
        def on_launch(self, device, rec, wall_seconds):
            seen.append((rec.name, rec.npoints))

    be.devices[0].add_listener(Probe())
    for _ in range(3):
        be.parallel_for("A", lambda: None, 10, LaunchSpec(budget=budget(2, 4)))
    assert seen == [("A", 10)] * 3
    assert list(be.devices[0].launch_tally.values()) == [3]


def test_reserve_accounts_without_host_array():
    dev = GpuDevice(memory_bytes=1000)
    with dev.reserve(600) as r:
        assert not hasattr(r, "data")
        assert dev.bytes_in_use == 600
        with pytest.raises(DeviceMemoryError):
            dev.reserve(600)
    assert dev.bytes_in_use == 0
    assert dev.high_water == 600
    assert dev.alloc_count == 1


def test_double_free_detection():
    dev = GpuDevice(memory_bytes=1000)
    dev._allocate(100)
    dev._release(100)
    with pytest.raises(RuntimeError):
        dev._release(100)

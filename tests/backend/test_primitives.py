"""Execution-backend primitives: host/device parity, counters, context."""

import time

import numpy as np
import pytest

from repro.backend import (DeviceBackend, HostBackend, LaunchSpec,
                           counters_delta, current_backend, make_exec_backend,
                           parallel_for, reduce_data, set_backend, use_backend)
from repro.kernels.counts import (BUDGETS, FILLBOUNDARY_BUDGET, INTERP_BUDGET,
                                  UPDATE_BUDGET, WENO_BUDGET,
                                  budget_for_kernel)

FLUX = LaunchSpec(kernel_class="flux", budget=WENO_BUDGET)
UPDATE = LaunchSpec(kernel_class="update", budget=UPDATE_BUDGET)
FILL = LaunchSpec(kernel_class="fillpatch", budget=FILLBOUNDARY_BUDGET)


class TestHostBackend:
    def test_parallel_for_runs_body(self):
        host = HostBackend()
        out = host.parallel_for("K", lambda: np.arange(4.0) * 2, 4)
        np.testing.assert_array_equal(out, [0.0, 2.0, 4.0, 6.0])

    def test_reduce_ops_bitwise(self):
        host = HostBackend()
        rng = np.random.default_rng(7)
        v = rng.standard_normal(257)
        assert host.reduce_data("R", v, "max") == float(np.max(v))
        assert host.reduce_data("R", v, "min") == float(np.min(v))
        assert host.reduce_data("R", v, "sum") == float(np.sum(v))

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError, match="unknown reduction op"):
            HostBackend().reduce_data("R", np.ones(3), "prod")

    def test_no_accounting(self):
        host = HostBackend()
        host.parallel_for("K", lambda: None, 10)
        assert host.counters_snapshot() == {}
        assert host.class_totals() == {}
        assert host.worker_launches == 0


class TestDeviceBackend:
    def test_parallel_for_matches_host_bitwise(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 8))
        body = lambda: np.sin(a) * np.exp(a)  # noqa: E731
        host_out = HostBackend().parallel_for("K", body, a.size)
        dev_out = DeviceBackend().parallel_for("K", body, a.size, FLUX)
        np.testing.assert_array_equal(host_out, dev_out)

    def test_reduce_matches_host_bitwise(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(1000)
        for op in ("min", "max", "sum"):
            h = HostBackend().reduce_data("R", v, op)
            d = DeviceBackend().reduce_data("R", v, op)
            assert h == d

    def test_launch_recorded_with_class_and_budget(self):
        be = DeviceBackend()
        be.parallel_for("WENOx", lambda: None, 100, FLUX)
        (rec,) = be.devices[0].launch_tally
        assert rec.name == "WENOx"
        assert rec.kernel_class == "flux"
        assert rec.npoints == 100
        assert rec.flops == int(100 * WENO_BUDGET.flops_per_point)

    def test_counters_accumulate_by_class(self):
        be = DeviceBackend()
        be.parallel_for("FB_pack", lambda: None, 10, FILL)
        be.parallel_for("FB_unpack", lambda: None, 10, FILL)
        be.reduce_data("ComputeDt", np.ones(5), "max")
        snap = be.counters_snapshot()
        assert snap["fillpatch"]["launches"] == 2
        assert snap["fillpatch"]["points"] == 20
        assert snap["reduction"]["launches"] == 1

    def test_rank_selects_device(self):
        be = DeviceBackend(nranks=2)
        devs = be.devices
        assert [d.name for d in devs] == ["V100-rank0", "V100-rank1"]
        be.parallel_for("K", lambda: None, 1, LaunchSpec(rank=1))
        be.parallel_for("K", lambda: None, 1, LaunchSpec(rank=3))
        assert devs[0].launch_count() == 0
        assert devs[1].launch_count() == 2

    def test_worker_counter_merge_kept_separate(self):
        be = DeviceBackend()
        be.parallel_for("Update", lambda: None, 50, UPDATE)
        be.merge_worker_counters(
            {"update": {"launches": 3, "points": 150, "flops": 10,
                        "dram_bytes": 20}})
        # driver-local counters untouched; totals fold both sources
        assert be.counters_snapshot()["update"]["launches"] == 1
        assert be.worker_launches == 3
        assert be.class_totals()["update"]["launches"] == 4
        assert be.class_totals()["update"]["points"] == 200

    def test_counters_delta(self):
        be = DeviceBackend()
        be.parallel_for("Update", lambda: None, 5, UPDATE)
        before = be.counters_snapshot()
        be.parallel_for("Update", lambda: None, 7, UPDATE)
        be.parallel_for("WENOx", lambda: None, 3, FLUX)
        delta = counters_delta(be.counters_snapshot(), before)
        assert delta["update"]["launches"] == 1
        assert delta["update"]["points"] == 7
        assert delta["flux"]["launches"] == 1
        # unchanged classes are omitted entirely
        be2 = DeviceBackend()
        be2.parallel_for("Update", lambda: None, 5, UPDATE)
        snap = be2.counters_snapshot()
        assert counters_delta(snap, snap) == {}


class TestBudgetResolution:
    def test_exact_then_prefix_then_fallback(self):
        assert budget_for_kernel("WENOx") is BUDGETS["WENO"]
        assert budget_for_kernel("WENOz") is BUDGETS["WENO"]
        assert budget_for_kernel("Viscous") is BUDGETS["Viscous"]
        assert budget_for_kernel("FB_pack") is FILLBOUNDARY_BUDGET
        assert budget_for_kernel("Interp_trilinear") is INTERP_BUDGET
        assert budget_for_kernel("SomethingNew") is UPDATE_BUDGET

    def test_copy_budgets_have_nonzero_flops(self):
        # zero flops/pt would make the roofline arithmetic intensity
        # degenerate; copies are priced with a small nonzero budget
        for name in ("FB_pack", "PC_copy", "BC_fill"):
            assert budget_for_kernel(name).flops_per_point > 0


class TestCurrentBackendContext:
    def test_default_is_host(self):
        assert current_backend().target == "host"

    def test_use_backend_restores_on_exit(self):
        be = DeviceBackend()
        with use_backend(be):
            assert current_backend() is be
        assert current_backend().target == "host"

    def test_use_backend_nests(self):
        outer = DeviceBackend()
        inner = HostBackend()
        with use_backend(outer):
            with use_backend(inner):
                assert current_backend() is inner
            assert current_backend() is outer

    def test_restores_on_exception(self):
        be = DeviceBackend()
        with pytest.raises(RuntimeError):
            with use_backend(be):
                raise RuntimeError("boom")
        assert current_backend().target == "host"

    def test_set_backend_none_restores_default(self):
        prev = set_backend(DeviceBackend())
        assert prev.target == "host"
        set_backend(None)
        assert current_backend().target == "host"

    def test_free_functions_dispatch_to_current(self):
        be = DeviceBackend()
        with use_backend(be):
            out = parallel_for("K", lambda: 42, 7, UPDATE)
            r = reduce_data("R", np.array([1.0, 3.0]), "max")
        assert out == 42
        assert r == 3.0
        assert [rec.name for rec in be.devices[0].launch_tally] == ["K", "R"]


class TestMakeExecBackend:
    def test_targets(self):
        host = make_exec_backend("host", nranks=3)
        assert host.target == "host" and host.devices is None
        be = make_exec_backend("device", nranks=3)
        assert be.target == "device"
        assert [d.name for d in be.devices] == [
            "V100-rank0", "V100-rank1", "V100-rank2"]

    def test_unknown_target_raises(self):
        with pytest.raises(ValueError, match="unknown backend target"):
            make_exec_backend("cuda")


class SlowListener:
    """Deliberately expensive on_launch observer."""

    def __init__(self, delay):
        self.delay = delay
        self.walls = []

    def on_launch(self, device, rec, wall_seconds):
        self.walls.append(wall_seconds)
        time.sleep(self.delay)


class TestListenerOutsideTimedWindow:
    def test_slow_listener_does_not_inflate_wall_time(self):
        """Listeners fire after the perf_counter window: a 50 ms
        listener must not appear in the charged kernel wall time."""
        be = DeviceBackend()
        listener = SlowListener(0.05)
        be.devices[0].add_listener(listener)
        for _ in range(3):
            be.parallel_for("K", lambda: None, 10, UPDATE)
        be.reduce_data("R", np.ones(4), op="sum")
        assert len(listener.walls) == 4
        assert all(w < 0.04 for w in listener.walls)

"""Target-registry API: registration, resolution, LaunchSpec contract."""

import numpy as np
import pytest

from repro.backend import (HostBackend, LaunchSpec, UnknownTargetError,
                           available_targets, make_exec_backend,
                           register_target, resolve_target,
                           unregister_target)
from repro.core.errors import ConfigError

ALL_TARGETS = ("host", "device", "fused")


class TestRegistry:
    def test_builtin_targets_registered(self):
        targets = available_targets()
        for name in ALL_TARGETS:
            assert name in targets

    def test_targets_constant_derived_from_registry(self):
        """The target list is read from the registry, never duplicated:
        there is no module-level constant, and late registrations show up
        in available_targets()."""
        import repro.backend
        import repro.backend.launch

        assert not hasattr(repro.backend, "TARGETS")
        assert not hasattr(repro.backend.launch, "TARGETS")
        register_target("tmp_derived", lambda nranks=1: HostBackend())
        try:
            assert "tmp_derived" in available_targets()
        finally:
            unregister_target("tmp_derived")
        assert "tmp_derived" not in available_targets()

    def test_make_exec_backend_goes_through_registry(self):
        for name in ALL_TARGETS:
            assert make_exec_backend(name).target == name

    def test_register_and_construct_custom_target(self):
        class Tracer(HostBackend):
            target = "tracer"

        register_target("tracer", lambda nranks=1: Tracer())
        try:
            be = make_exec_backend("tracer")
            assert isinstance(be, Tracer)
            assert "tracer" in available_targets()
        finally:
            unregister_target("tracer")

    def test_duplicate_registration_rejected_unless_override(self):
        register_target("tmp_dup", lambda nranks=1: HostBackend())
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_target("tmp_dup", lambda nranks=1: HostBackend())
            # override replaces the factory in place
            class Other(HostBackend):
                target = "tmp_dup"

            register_target("tmp_dup", lambda nranks=1: Other(),
                            override=True)
            assert isinstance(make_exec_backend("tmp_dup"), Other)
        finally:
            unregister_target("tmp_dup")

    def test_auto_name_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            register_target("auto", lambda nranks=1: HostBackend())

    def test_unknown_target_error_lists_registered_names(self):
        with pytest.raises(UnknownTargetError) as exc:
            make_exec_backend("cuda")
        msg = str(exc.value)
        for name in ALL_TARGETS:
            assert name in msg


class TestResolveTarget:
    def test_explicit_names_pass_through(self):
        for name in ALL_TARGETS:
            assert resolve_target(name) == name

    def test_auto_resolves_to_version_default(self):
        assert resolve_target("auto", version_default="device") == "device"
        assert resolve_target(None, version_default="host") == "host"
        # without a version default, auto defers
        assert resolve_target("auto") == "auto"

    def test_unknown_target_is_config_error_with_source(self):
        with pytest.raises(ConfigError) as exc:
            resolve_target("cuda", source="REPRO_BACKEND")
        msg = str(exc.value)
        assert "cuda" in msg and "REPRO_BACKEND" in msg
        for name in ALL_TARGETS:
            assert name in msg

    def test_crocco_reports_config_error(self):
        from repro.cases.shocktube import SodShockTube
        from repro.core.crocco import Crocco, CroccoConfig

        case = SodShockTube(ncells=32)
        with pytest.raises(ConfigError, match="backend.target"):
            Crocco(case, CroccoConfig(version="1.1", max_grid_size=32,
                                      backend_target="cuda"))

    def test_cli_bad_backend_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        deck = tmp_path / "inputs"
        deck.write_text("crocco.case = sod\namr.n_cell = 32\n"
                        "amr.max_grid_size = 32\nrun.steps = 1\n")
        rc = main([str(deck), "--backend", "cuda"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "cuda" in err


class TestLaunchSpecContract:
    @pytest.mark.parametrize("target", ALL_TARGETS)
    def test_spec_accepted_by_all_targets(self, target):
        be = make_exec_backend(target)
        spec = LaunchSpec(kernel_class="flux", rank=0, shape=(5, 8, 8))
        out = be.parallel_for("WENOx", lambda: 42, 64, spec)
        assert out == 42
        red = be.reduce_data("ComputeDt", np.arange(6.0), "max",
                             LaunchSpec(kernel_class="reduction"))
        assert red == 5.0

    @pytest.mark.parametrize("target", ALL_TARGETS)
    def test_loose_kwargs_raise_type_error(self, target):
        """The LaunchSpec is the only launch contract: the historical
        loose keywords are rejected outright, by every target and by the
        module-level free functions."""
        from repro.backend import parallel_for, reduce_data, use_backend

        be = make_exec_backend(target)
        with pytest.raises(TypeError, match="kernel_class"):
            be.parallel_for("Update", lambda: 7, 10, kernel_class="update")
        with pytest.raises(TypeError, match="rank"):
            be.reduce_data("ComputeDt", np.arange(4.0), "min", rank=0)
        with use_backend(be):
            with pytest.raises(TypeError, match="budget"):
                parallel_for("K", lambda: 1, 1, budget=None)
            with pytest.raises(TypeError, match="device"):
                reduce_data("R", np.ones(2), "max", device=None)
        assert be.class_totals() == {}

    def test_unknown_kwarg_rejected(self):
        be = make_exec_backend("host")
        with pytest.raises(TypeError, match="grid_size"):
            be.parallel_for("K", lambda: 1, 1, grid_size=128)

    def test_device_target_records_spec_fields(self):
        be = make_exec_backend("device", nranks=2)
        seen = []

        class Probe:
            def on_launch(self, device, rec, wall):
                seen.append((device.name, device.bytes_in_use))

        be.devices[1].add_listener(Probe())
        be.parallel_for("WENOx", lambda: seen.append(
                            be.devices[1].bytes_in_use), 100,
                        LaunchSpec(kernel_class="flux", rank=1,
                                   shape=(5, 10, 10), scratch_bytes=4000))
        # the scratch is held on the launching rank's device for the
        # body only, and released before the record is filed
        assert seen == [4000, ("V100-rank1", 0)]
        assert not be.devices[0].launch_tally
        assert be.devices[1].launch_count() == 1
        assert be.devices[1].high_water == 4000
        assert be.class_totals()["flux"]["points"] == 100

"""Tests for the kernel set: summation ordering x execution target."""

import numpy as np
import pytest

from repro.backend import make_exec_backend
from repro.kernels.api import ORDERINGS, make_backend
from repro.kernels.device import DeviceMemoryError
from repro.numerics.eos import IdealGasEOS
from repro.numerics.metrics import CartesianMetrics
from repro.numerics.state import StateLayout
from repro.numerics.viscous import ViscousFlux, constant_viscosity

NG = 4
EOS = IdealGasEOS()
LAY = StateLayout(dim=2)

#: the three stages of the port: Fortran on the CPU, C++ on the CPU,
#: C++ on the GPU
PORT_STAGES = (("fortran", "host"), ("cpp", "host"), ("cpp", "device"))


def kernels(ordering, target="host", **kw):
    return make_backend(ordering, LAY, EOS,
                        exec_backend=make_exec_backend(target), **kw)


def smooth_state(n=24, ng=NG, seed=0):
    rng = np.random.default_rng(seed)
    ntot = n + 2 * ng
    x = ((np.arange(-ng, n + ng) % n) + 0.5) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy)
    vel = np.stack([0.3 + 0.1 * np.sin(2 * np.pi * yy),
                    -0.2 + 0.1 * np.cos(2 * np.pi * xx)])
    p = 1.0 + 0.1 * np.cos(2 * np.pi * xx)
    return EOS.conservative(LAY, rho, vel, p)


def test_make_backend_validation():
    assert ORDERINGS == ("fortran", "cpp")
    with pytest.raises(ValueError, match="unknown ordering"):
        make_backend("cuda", LAY, EOS)
    with pytest.raises(ValueError, match="unknown ordering"):
        make_backend("gpu", LAY, EOS)


def test_gpu_backend_gets_default_device():
    """The device target owns one simulated GPU per rank; the kernel set
    itself carries none, and defaults to the plain host target."""
    ks = kernels("cpp", "device")
    assert [d.name for d in ks.exec_backend.devices] == ["V100-rank0"]
    assert not hasattr(ks, "device")
    assert make_backend("cpp", LAY, EOS).exec_backend.target == "host"


def test_rhs_shapes_all_backends():
    u = smooth_state()
    met = CartesianMetrics((1.0 / 24, 1.0 / 24))
    for ordering, target in PORT_STAGES:
        ks = kernels(ordering, target,
                     viscous=ViscousFlux(constant_viscosity(1e-3)))
        rhs = ks.rhs(u.copy(), met, NG)
        assert rhs.shape == (4, 24, 24)
        assert np.isfinite(rhs).all()


def test_fortran_cpp_drift_small_but_generally_nonzero():
    """Orderings agree to near machine precision but not bit-exactly."""
    u = smooth_state()
    met = CartesianMetrics((1.0 / 24, 1.0 / 24))
    rf = kernels("fortran").rhs(u.copy(), met, NG)
    rc = kernels("cpp").rhs(u.copy(), met, NG)
    diff = np.abs(rf - rc)
    scale = np.abs(rf).max()
    assert diff.max() < 1e-10 * max(scale, 1.0)  # tiny
    assert diff.max() > 0.0  # but real: different accumulation order


def test_gpu_matches_cpp_exactly():
    """The paper reports no accuracy change moving C++ kernels to GPU."""
    u = smooth_state()
    met = CartesianMetrics((1.0 / 24, 1.0 / 24))
    rc = kernels("cpp", "host").rhs(u.copy(), met, NG)
    rg = kernels("cpp", "device").rhs(u.copy(), met, NG)
    assert np.array_equal(rc, rg)


def test_gpu_launch_records():
    u = smooth_state()
    met = CartesianMetrics((1.0 / 24, 1.0 / 24))
    ks = kernels("cpp", "device",
                 viscous=ViscousFlux(constant_viscosity(1e-3)))
    ks.rhs(u.copy(), met, NG)
    tally = ks.exec_backend.devices[0].launch_tally
    assert {rec.name for rec in tally} == {"WENOx", "WENOy", "Viscous"}
    assert all(rec.npoints == 24 * 24 for rec in tally)


def test_gpu_scratch_freed_after_rhs():
    u = smooth_state()
    met = CartesianMetrics((1.0 / 24, 1.0 / 24))
    ks = kernels("cpp", "device")
    ks.rhs(u.copy(), met, NG)
    dev = ks.exec_backend.devices[0]
    assert dev.bytes_in_use == 0
    # one conserved-variable scratch array per WENO launch, at most one
    # live at a time
    assert dev.high_water == u.nbytes
    assert dev.alloc_count == 2


def test_gpu_memory_limit_on_big_patch():
    ks = kernels("cpp", "device")
    ks.exec_backend.devices[0].memory_bytes = 10_000
    u = smooth_state(n=32)
    met = CartesianMetrics((1.0 / 32, 1.0 / 32))
    with pytest.raises(DeviceMemoryError):
        ks.rhs(u, met, NG)


def test_update_kernel_all_backends():
    for ordering, target in PORT_STAGES:
        ks = kernels(ordering, target)
        u = np.ones((4, 8, 8))
        du = np.zeros_like(u)
        rhs = np.full_like(u, 3.0)
        ks.update(u, du, rhs, dt=0.1, stage=0)
        assert np.allclose(u, 1.0 + 0.3 / 3.0)
        if target == "device":
            assert ks.exec_backend.devices[0].launch_count("Update") == 1


def test_max_rate_matches_across_backends():
    u = smooth_state()
    met = CartesianMetrics((1.0 / 24, 1.0 / 24))
    rates = {stage: kernels(*stage).max_rate(u, met) for stage in PORT_STAGES}
    assert rates["fortran", "host"] == pytest.approx(rates["cpp", "host"])
    assert rates["cpp", "host"] == rates["cpp", "device"]
    ks = kernels("cpp", "device")
    ks.max_rate(u, met)
    assert ks.exec_backend.devices[0].launch_count("ComputeDt") == 1


def test_register_state_residency():
    """Level-state residency is held by the target, per rank."""
    be = make_exec_backend("device", nranks=2)
    handles = be.reserve([1024, 0])
    assert [d.bytes_in_use for d in be.devices] == [1024, 0]
    for h in handles:
        h.free()
    assert [d.bytes_in_use for d in be.devices] == [0, 0]
    assert make_exec_backend("host").reserve([1024]) == []


def test_nghost_accounts_for_operators():
    ks = kernels("cpp")
    assert ks.nghost == 4  # weno: 3 + 1
    ks2 = kernels("cpp", viscous=ViscousFlux(constant_viscosity(1e-3)))
    assert ks2.nghost == 4  # viscous 4th order needs 4

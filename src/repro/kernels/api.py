"""The per-patch kernel set: one solver's kernels in one summation ordering.

A :class:`KernelSet` bundles the per-patch kernels CRoCCo's RK3 advance
calls (Algorithm 2): ``WENOx/y/z``, ``Viscous``, ``Update``, plus the
``ComputeDt`` rate estimate.  The paper's port makes two independent
changes (Sec. IV), and the repo models them on two independent axes:

**Ordering** (this module) — the Fortran -> C++ translation.

``fortran``
    The original kernel organization: the RK right-hand side accumulates
    direction sweeps in x, y, z order and assembles fluxes with
    Fortran-style left-to-right summation.

``cpp``
    The translated kernels.  Mathematically identical, but the compiler
    re-associates differently: we model this by accumulating the direction
    sweeps in reverse order and pairing additions differently.  Running
    both orderings on the same problem produces a small floating-point
    drift whose L2 norm plateaus near machine-precision-amplified levels —
    the paper's 1e-7 validation criterion (Sec. IV-A).

**Execution target** (:mod:`repro.backend`) — the move to the GPU, which
changes no arithmetic.  Every kernel is a ``parallel_for``/``reduce_data``
launch on the KernelSet's ``exec_backend``; the kernels pass the
launching ``rank`` and never see a device.  The target alone decides
where the launch runs and whether it is accounted (device residency,
scratch reservations, launch records).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.backend import ExecutionBackend, HostBackend, LaunchSpec
from repro.kernels.counts import (UPDATE_BUDGET, VISCOUS_BUDGET, WENO_BUDGET,
                                  fused_weno_budget)
from repro.numerics.cfl import local_max_rate
from repro.numerics.fluxes import ConvectiveFlux
from repro.numerics.metrics import Metrics
from repro.numerics.rk3 import rk3_stage
from repro.numerics.state import StateLayout
from repro.numerics.viscous import ViscousFlux

ORDERINGS = ("fortran", "cpp")

DIRECTION_NAMES = ("WENOx", "WENOy", "WENOz")


@dataclass
class KernelSet:
    """One solver configuration's kernels in one summation ordering."""

    ordering: str
    layout: StateLayout
    eos: object
    convective: ConvectiveFlux
    viscous: Optional[ViscousFlux] = None
    #: the execution target every launch routes through
    exec_backend: ExecutionBackend = field(default_factory=HostBackend)

    def __post_init__(self) -> None:
        if self.ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {self.ordering!r}; options {ORDERINGS}")
        # the translated (cpp) kernels evaluate the LF split in the
        # re-associated form — the fortran/C++ floating-point divergence
        want = "fused" if self.ordering == "fortran" else "distributed"
        if self.convective.split_form != want:
            self.convective = replace(self.convective, split_form=want)

    @property
    def nghost(self) -> int:
        ng = self.convective.nghost + 1
        if self.viscous is not None:
            ng = max(ng, self.viscous.nghost)
        return ng

    def _scratch_bytes(self, u: np.ndarray) -> int:
        """Global-memory scratch one WENO launch stages intermediates in:
        a full conserved-variable array over the patch (Sec. IV-B)."""
        return self.layout.ncons * int(np.prod(u.shape[1:])) * 8

    # -- RHS evaluation --------------------------------------------------
    def rhs(self, u: np.ndarray, metrics: Metrics, ng: int,
            rank: int = 0) -> np.ndarray:
        """Full right-hand side over the valid region of one patch.

        The accumulation *order* of direction sweeps differs between the
        fortran and cpp orderings (see module docstring): a deliberate,
        faithful source of floating-point divergence.  ``rank`` is the
        patch owner, whose device the target launches on.
        """
        if (self.exec_backend.fuses_kernels
                and not self.convective.characteristic):
            # the fused target collapses the per-direction sweeps into
            # one wide launch with shared primitives and cached scratch
            out = self._fused_sweep(u, metrics, ng, rank)
        else:
            dim = self.layout.dim
            directions = (range(dim) if self.ordering == "fortran"
                          else range(dim - 1, -1, -1))
            out = None
            for d in directions:
                contrib = self._weno_direction(u, metrics, d, ng, rank)
                out = contrib if out is None else out + contrib
        if self.viscous is not None:
            out = out + self._viscous(u, metrics, ng, rank)
        assert out is not None
        return out

    def _weno_direction(self, u: np.ndarray, metrics: Metrics, d: int,
                        ng: int, rank: int) -> np.ndarray:
        npts = int(np.prod([s - 2 * ng for s in u.shape[1:]]))
        return self.exec_backend.parallel_for(
            DIRECTION_NAMES[d],
            lambda: self.convective.divergence(
                self.layout, self.eos, u, metrics, d, ng),
            npts, LaunchSpec(kernel_class="flux", budget=WENO_BUDGET,
                             rank=rank, shape=u.shape,
                             scratch_bytes=self._scratch_bytes(u)))

    def _fused_sweep(self, u: np.ndarray, metrics: Metrics, ng: int,
                     rank: int) -> np.ndarray:
        """One wide launch for all directional sweeps (fused target).

        The launch is named ``WENOxy``/``WENOxyz`` and covers
        ``dim * nvalid`` points, so per-class point and flop totals stay
        comparable with the per-direction launch stream.
        """
        from repro.kernels.fused import fused_sweep

        backend = self.exec_backend
        dim = self.layout.dim
        npts = dim * int(np.prod([s - 2 * ng for s in u.shape[1:]]))
        body = lambda: fused_sweep(
            self.layout, self.eos, self.convective, u, metrics, ng,
            backend.scratch, jit=backend.jit_enabled,
            reverse=(self.ordering != "fortran"))
        return backend.parallel_for(
            "WENO" + "xyz"[:dim], body, npts,
            LaunchSpec(kernel_class="flux", budget=fused_weno_budget(dim),
                       rank=rank, shape=u.shape,
                       scratch_bytes=self._scratch_bytes(u)))

    def _viscous(self, u: np.ndarray, metrics: Metrics, ng: int,
                 rank: int) -> np.ndarray:
        assert self.viscous is not None
        npts = int(np.prod([s - 2 * ng for s in u.shape[1:]]))
        return self.exec_backend.parallel_for(
            "Viscous",
            lambda: self.viscous.divergence(self.layout, self.eos, u,
                                            metrics, ng),
            npts, LaunchSpec(kernel_class="flux", budget=VISCOUS_BUDGET,
                             rank=rank, shape=u.shape))

    # -- RK update kernel -----------------------------------------------------
    def update(self, u_valid: np.ndarray, du: np.ndarray, rhs: np.ndarray,
               dt: float, stage: int, rank: int = 0) -> None:
        """Low-storage RK stage over one patch's valid region, in place."""
        npts = int(np.prod(u_valid.shape[1:]))
        self.exec_backend.parallel_for(
            "Update",
            lambda: rk3_stage(u_valid, du, rhs, dt, stage),
            npts, LaunchSpec(kernel_class="update", budget=UPDATE_BUDGET,
                             rank=rank, shape=u_valid.shape))

    # -- ComputeDt ----------------------------------------------------------
    def max_rate(self, u: np.ndarray, metrics: Metrics,
                 rank: int = 0) -> float:
        """Patch CFL rate, via the target's ReduceData (a recorded device
        reduction on accounting targets, plain NumPy on host)."""
        return local_max_rate(self.layout, self.eos, u, metrics,
                              backend=self.exec_backend, rank=rank)


def make_backend(
    ordering: str,
    layout: StateLayout,
    eos,
    convective: Optional[ConvectiveFlux] = None,
    viscous: Optional[ViscousFlux] = None,
    exec_backend: Optional[ExecutionBackend] = None,
) -> KernelSet:
    """Convenience constructor with default operators."""
    return KernelSet(
        ordering=ordering,
        layout=layout,
        eos=eos,
        convective=convective if convective is not None else ConvectiveFlux(),
        viscous=viscous,
        exec_backend=exec_backend if exec_backend is not None else HostBackend(),
    )

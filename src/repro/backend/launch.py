"""Execution targets: the ParallelFor/ReduceData launch seam.

CRoCCo 2.0's port puts *every* kernel — flux sweeps, FillBoundary
pack/unpack, ParallelCopy, interpolation, AverageDown, tagging, the
ComputeDt reduction — behind the AMReX GPU API (``launch`` /
``ParallelFor`` / ``ReduceData``).  As in AMReX, the kernel source never
carries a device flag: the *execution target* alone decides where a
launch runs and whether it is accounted.  The kernel layer
(:class:`~repro.kernels.api.KernelSet`) and the AMR substrate both
launch through this one seam.

**Targets are pluggable.**  A target registers a factory with
:func:`register_target`; :func:`make_exec_backend` constructs backends
*only* through that registry, and :func:`available_targets` enumerates
what is installed:

``host``
    Plain NumPy: :meth:`~ExecutionBackend.parallel_for` runs the body
    directly and :meth:`~ExecutionBackend.reduce_data` is a NumPy
    reduction.  No devices, no records, no accounting — the v1.x CPU
    path.

``device``
    The same arithmetic executed as recorded launches on simulated
    :class:`~repro.kernels.device.GpuDevice` instances, one per rank
    (Summit: one V100 per MPI rank).  The target owns those devices, the
    level-state residency and per-launch scratch reserved on them, and
    their launch tallies, from which the per-kernel-class counters are
    summed.  Because the body is identical, host and device targets are
    *bitwise* identical; only the accounting differs — the v2.0/2.1
    path.

``fused``
    The first *optimizing* target (:mod:`repro.backend.fused`): kernels
    that advertise fusion collapse the per-direction WENO sweeps into
    one wide launch, reconstruction scratch is reused from a
    shape-keyed cache, and the hottest kernels are optionally JITed via
    numba (soft dependency).  Accounting matches the device target;
    results drift from host by <= 1e-7 relative L2 (the paper's own
    Fortran -> C++ criterion), not bitwise.

**The launch contract is a** :class:`LaunchSpec`: every target accepts
``parallel_for(name, fn, npoints, spec)`` / ``reduce_data(name, values,
op, spec)`` and nothing else.

A module-level current backend (default: host) lets deep call sites —
the AMR substrate has no reference to the driver — resolve their target
with :func:`current_backend`; the driver activates its configured
backend around each step with :func:`use_backend`.  Per-kernel-class
launch counters support merging accounting from pool workers back into
the driver (the workers' launch tallies themselves stay worker-local).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: kernel classes used to group launch accounting
KERNEL_CLASSES = ("flux", "update", "fillpatch", "interp", "averagedown",
                  "tagging", "reduction")

_REDUCE_OPS = {"min": np.min, "max": np.max, "sum": np.sum}

#: counter fields tracked per kernel class
COUNTER_FIELDS = ("launches", "points", "flops", "dram_bytes")


# -- the launch contract -----------------------------------------------------

@dataclass(frozen=True)
class LaunchSpec:
    """The one keyword contract of ``parallel_for``/``reduce_data``.

    Every registered target accepts a LaunchSpec (targets that do not
    account simply ignore the accounting fields):

    ``kernel_class``
        Coarse accounting group (one of :data:`KERNEL_CLASSES`).
    ``budget``
        A :class:`~repro.kernels.counts.KernelBudget` pricing the launch
        (flops/bytes per point); accounting targets resolve ``None`` from
        the launch name via
        :func:`~repro.kernels.counts.budget_for_kernel`.
    ``rank``
        The simulated MPI rank issuing the launch; accounting targets
        map it to that rank's device.
    ``shape``
        Array-shape hint for scratch caching: optimizing targets key
        their reconstruction-scratch allocator by box shape, and the
        hint lets them attribute cache traffic per launch.
    ``scratch_bytes``
        Global-memory scratch the kernel stages intermediates in.  The
        port allocates it from the host before the launch, never inside
        the kernel (Sec. IV-B); accounting targets reserve it on the
        rank's device for the launch's duration.
    """

    kernel_class: str = "flux"
    budget: Optional[object] = None
    rank: int = 0
    shape: Optional[Tuple[int, ...]] = None
    scratch_bytes: int = 0


_FLUX_SPEC = LaunchSpec()
_REDUCTION_SPEC = LaunchSpec(kernel_class="reduction")


def _reduce_op(op: str) -> Callable:
    if op not in _REDUCE_OPS:
        raise ValueError(f"unknown reduction op {op!r}")
    return _REDUCE_OPS[op]


@dataclass
class LaunchCounter:
    """Cumulative launch accounting for one kernel class."""

    launches: int = 0
    points: int = 0
    flops: int = 0
    dram_bytes: int = 0

    def add_dict(self, d: Dict[str, int]) -> None:
        self.launches += int(d.get("launches", 0))
        self.points += int(d.get("points", 0))
        self.flops += int(d.get("flops", 0))
        self.dram_bytes += int(d.get("dram_bytes", 0))

    def as_dict(self) -> Dict[str, int]:
        return {"launches": self.launches, "points": self.points,
                "flops": self.flops, "dram_bytes": self.dram_bytes}


def counters_delta(after: Dict[str, Dict[str, int]],
                   before: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Per-class difference of two counter snapshots (new work only)."""
    delta: Dict[str, Dict[str, int]] = {}
    for cls, a in after.items():
        b = before.get(cls, {})
        d = {f: int(a.get(f, 0)) - int(b.get(f, 0)) for f in COUNTER_FIELDS}
        if any(d.values()):
            delta[cls] = d
    return delta


class ExecutionBackend:
    """Launch primitives shared by the kernel layer and the AMR substrate.

    ``parallel_for(name, fn, npoints, spec)`` runs ``fn`` as one logical
    launch over ``npoints`` grid points; ``reduce_data`` is the
    ``amrex::ReduceData`` analogue.  Each target decides whether
    anything is recorded.
    """

    target = "abstract"

    #: targets that fuse kernel launches set this; :class:`KernelSet`
    #: checks it to route the RK right-hand side through the fused sweep
    fuses_kernels = False

    #: the simulated GPUs, one per rank (None on non-accounting targets)
    devices: Optional[List[object]] = None

    def parallel_for(self, name: str, fn: Callable, npoints: int,
                     spec: Optional[LaunchSpec] = None):
        raise NotImplementedError

    def reduce_data(self, name: str, values, op: str = "min",
                    spec: Optional[LaunchSpec] = None) -> float:
        raise NotImplementedError

    def reserve(self, per_rank_bytes: Sequence[int]) -> List[object]:
        """Hold persistent (level-state) residency, ``per_rank_bytes[r]``
        on rank ``r``'s device; returns handles whose ``free()`` releases
        it.  Non-accounting targets hold nothing."""
        return []

    # -- accounting (accounting targets only; host returns empties) --------
    def counters_snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-class counters of the launches recorded in this process."""
        return {}

    def merge_worker_counters(self, delta: Dict[str, Dict[str, int]]) -> None:
        """Fold per-class counters from pool workers into this backend."""

    def class_totals(self) -> Dict[str, Dict[str, int]]:
        """Driver-local plus merged worker accounting, by kernel class."""
        return {}

    @property
    def worker_launches(self) -> int:
        return 0


class HostBackend(ExecutionBackend):
    """Plain NumPy execution: no device, no records, no accounting."""

    target = "host"

    def parallel_for(self, name, fn, npoints, spec=None):
        return fn()

    def reduce_data(self, name, values, op="min", spec=None) -> float:
        return float(_reduce_op(op)(values))


class DeviceBackend(ExecutionBackend):
    """Recorded execution on simulated GPUs, one device per rank.

    ``spec.rank`` selects the launching rank's device (Summit: one V100
    per MPI rank).  This is the one place a launch is recorded: the body
    is timed, and its :class:`~repro.kernels.device.LaunchRecord` is
    priced from the launch budget and counted in the device's tally.
    The per-kernel-class counters are sums over those tallies; counters
    merged from pool workers are kept separately (``worker_counters``)
    so driver-recorded work is never double-counted.
    """

    target = "device"

    def __init__(self, nranks: int = 1) -> None:
        from repro.kernels.device import GpuDevice

        self.devices = [GpuDevice(name=f"V100-rank{r}")
                        for r in range(nranks)]
        self.worker_counters: Dict[str, LaunchCounter] = {}

    def device_for(self, rank: int):
        return self.devices[rank % len(self.devices)]

    def reserve(self, per_rank_bytes: Sequence[int]) -> List[object]:
        return [self.device_for(r).reserve(nbytes)
                for r, nbytes in enumerate(per_rank_bytes) if nbytes]

    def _record(self, dev, name: str, npoints: int, budget,
                kernel_class: str, wall_seconds: float) -> None:
        from repro.kernels.device import LaunchRecord

        # inner cache levels see amplified traffic: each cell is re-read by
        # every stencil covering it, and the caches absorb most, not all,
        # of that reuse
        dram = int(npoints * budget.dram_bytes_per_point)
        rec = LaunchRecord(
            name=name,
            npoints=npoints,
            flops=int(npoints * budget.flops_per_point),
            dram_bytes=dram,
            l2_bytes=int(dram * budget.l2_amplification),
            l1_bytes=int(dram * budget.l1_amplification),
            kernel_class=kernel_class,
        )
        dev.record(rec, wall_seconds)

    # the timed windows below cover only the body; scratch reservation,
    # record construction and listener notification stay outside them so
    # accounting and observability never inflate charged kernel wall time
    def parallel_for(self, name, fn, npoints, spec=None):
        spec = spec or _FLUX_SPEC
        dev = self.device_for(spec.rank)
        scratch = dev.reserve(spec.scratch_bytes) if spec.scratch_bytes else None
        try:
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
        finally:
            if scratch is not None:
                scratch.free()
        if spec.budget is not None:
            budget = spec.budget
        else:
            from repro.kernels.counts import budget_for_kernel

            budget = budget_for_kernel(name)
        self._record(dev, name, npoints, budget, spec.kernel_class, elapsed)
        return result

    def reduce_data(self, name, values, op="min", spec=None) -> float:
        from repro.kernels.counts import REDUCE_BUDGET

        spec = spec or _REDUCTION_SPEC
        reduce = _reduce_op(op)
        t0 = time.perf_counter()
        result = float(reduce(values))
        elapsed = time.perf_counter() - t0
        self._record(self.device_for(spec.rank), name,
                     int(np.asarray(values).size), REDUCE_BUDGET,
                     spec.kernel_class, elapsed)
        return result

    # -- per-class counters -----------------------------------------------
    def counters_snapshot(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for dev in self.devices:
            for rec, n in dev.launch_tally.items():
                tot = out.setdefault(rec.kernel_class,
                                     {f: 0 for f in COUNTER_FIELDS})
                tot["launches"] += n
                tot["points"] += n * rec.npoints
                tot["flops"] += n * rec.flops
                tot["dram_bytes"] += n * rec.dram_bytes
        return out

    def merge_worker_counters(self, delta: Dict[str, Dict[str, int]]) -> None:
        for cls, d in delta.items():
            self.worker_counters.setdefault(cls, LaunchCounter()).add_dict(d)

    def class_totals(self) -> Dict[str, Dict[str, int]]:
        out = self.counters_snapshot()
        for cls, c in self.worker_counters.items():
            tot = out.setdefault(cls, {f: 0 for f in COUNTER_FIELDS})
            for field_, value in c.as_dict().items():
                tot[field_] += value
        return out

    @property
    def worker_launches(self) -> int:
        return sum(c.launches for c in self.worker_counters.values())


# -- target registry ---------------------------------------------------------

class UnknownTargetError(ValueError):
    """An execution-target name with no registered factory."""


#: name -> factory(nranks=1) -> ExecutionBackend, in registration order
_TARGET_FACTORIES: Dict[str, Callable[..., ExecutionBackend]] = {}


def register_target(name: str, factory: Callable[..., ExecutionBackend], *,
                    override: bool = False) -> None:
    """Register an execution-target factory under ``name``.

    ``factory(nranks=1)`` must return a fresh :class:`ExecutionBackend`
    for a run of ``nranks`` simulated ranks (accounting targets build
    one device per rank).  Registering an existing name raises
    unless ``override=True`` (used by tests and downstream forks to swap
    a target implementation in place).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"target name must be a non-empty string, got {name!r}")
    if name == "auto":
        raise ValueError("'auto' is reserved for version-default resolution")
    if name in _TARGET_FACTORIES and not override:
        raise ValueError(
            f"target {name!r} is already registered "
            f"(pass override=True to replace it)")
    _TARGET_FACTORIES[name] = factory


def unregister_target(name: str) -> None:
    """Remove a registered target (primarily for test isolation)."""
    _TARGET_FACTORIES.pop(name, None)


def available_targets() -> Tuple[str, ...]:
    """Registered target names, in registration order."""
    return tuple(_TARGET_FACTORIES)


def make_exec_backend(target: str, nranks: int = 1) -> ExecutionBackend:
    """Build a backend by target name (``backend.target`` / REPRO_BACKEND).

    Construction goes through the registry *only*: every target —
    built-in or downstream — plugs in via :func:`register_target`.
    """
    factory = _TARGET_FACTORIES.get(target)
    if factory is None:
        raise UnknownTargetError(
            f"unknown backend target {target!r}; registered targets: "
            f"{', '.join(available_targets())}")
    return factory(nranks=nranks)


def resolve_target(value: Optional[str], *,
                   version_default: Optional[str] = None,
                   source: str = "backend.target") -> str:
    """The one validation path for every way a target can be configured.

    ``backend.target`` deck keys, the ``REPRO_BACKEND`` env var and the
    ``--backend`` CLI flag all funnel through here; an unknown name
    raises :class:`repro.core.errors.ConfigError` naming the offending
    ``source`` and listing the registered targets, which the CLI and the
    serve layer report as a one-line error with exit status 2.

    ``auto`` resolves to ``version_default`` when given (the version
    config's preferred target), and passes through unchanged otherwise
    so callers without a version in hand can defer resolution.
    """
    target = (value or "auto").strip() if isinstance(value, str) or value is None \
        else value
    if target == "auto":
        if version_default is None:
            return "auto"
        target = version_default
    if target not in _TARGET_FACTORIES:
        from repro.core.errors import ConfigError

        raise ConfigError(
            f"unknown backend target {target!r} (from {source}); "
            f"registered targets: {', '.join(available_targets())}, "
            f"plus 'auto'")
    return target


# the built-in accounting targets; the optimizing `fused` target registers
# itself from repro.backend.fused (imported by the package __init__)
register_target("host", lambda nranks=1: HostBackend())
register_target("device", lambda nranks=1: DeviceBackend(nranks))


# -- current-backend context -------------------------------------------------

_DEFAULT = HostBackend()
_current: ExecutionBackend = _DEFAULT


def current_backend() -> ExecutionBackend:
    """The active backend (host unless a driver activated another)."""
    return _current


def set_backend(backend: Optional[ExecutionBackend]) -> ExecutionBackend:
    """Install ``backend`` (None restores the host default); returns the
    previously active backend."""
    global _current
    previous = _current
    _current = backend if backend is not None else _DEFAULT
    return previous


@contextmanager
def use_backend(backend: ExecutionBackend):
    """Activate ``backend`` for the dynamic extent of a block.

    Re-entrant: the previously active backend is restored on exit, so
    nested drivers (e.g. a validation run inside a recorded run) compose.
    """
    previous = set_backend(backend)
    try:
        yield backend
    finally:
        set_backend(previous)


def parallel_for(name: str, fn: Callable, npoints: int,
                 spec: Optional[LaunchSpec] = None):
    """Launch ``fn`` through the currently active backend."""
    return current_backend().parallel_for(name, fn, npoints, spec)


def reduce_data(name: str, values, op: str = "min",
                spec: Optional[LaunchSpec] = None) -> float:
    """Reduce ``values`` through the currently active backend."""
    return current_backend().reduce_data(name, values, op, spec)

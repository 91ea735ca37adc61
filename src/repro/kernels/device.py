"""Simulated GPU device: memory arena and launch tally.

We have no physical GPU, so this module supplies the *behavioral* device
the accounting execution targets (:mod:`repro.backend`) launch on, one
per simulated MPI rank:

- a global-memory allocator with a hard capacity (16 GB on a Summit V100),
  raising :class:`DeviceMemoryError` exactly where the real code would
  fault — the paper reports grid counts beyond 2.0e5 points spilling V100
  memory, which shaped both scaling studies;
- the kernel-launch tally (name, points, flops, bytes at each memory
  level, counted once per distinct record) that feeds the hierarchical
  roofline model of Fig. 4, plus the listeners notified of each launch.

The device never runs anything: :class:`~repro.backend.DeviceBackend`
times each launch body on the host NumPy arrays, builds its
:class:`LaunchRecord` and files it here.  Repeated launches of the same
kernel over the same box produce equal records, so the tally stays as
small as the set of distinct (kernel, class, point count) triples
however long the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: Summit NVIDIA V100 device memory
V100_MEMORY_BYTES = 16 * 1024**3


class DeviceMemoryError(MemoryError):
    """Raised when a device allocation exceeds the arena capacity."""


@dataclass(frozen=True)
class LaunchRecord:
    """One kernel launch (hashable: equal launches share a tally entry)."""

    name: str
    npoints: int
    flops: int
    dram_bytes: int
    l2_bytes: int
    l1_bytes: int
    #: coarse grouping for the run report (flux / update / fillpatch /
    #: interp / averagedown / tagging / reduction)
    kernel_class: str = "flux"


class Reservation:
    """Bytes held against the device arena until ``free()``."""

    def __init__(self, device: "GpuDevice", nbytes: int) -> None:
        self._device = device
        self.nbytes = nbytes
        device._allocate(nbytes)
        self._freed = False

    def free(self) -> None:
        if not self._freed:
            self._device._release(self.nbytes)
            self._freed = True

    def __enter__(self) -> "Reservation":
        return self

    def __exit__(self, *exc) -> None:
        self.free()


class GpuDevice:
    """A simulated accelerator: bounded memory plus its launch tally."""

    def __init__(self, name: str = "V100",
                 memory_bytes: int = V100_MEMORY_BYTES) -> None:
        self.name = name
        self.memory_bytes = memory_bytes
        self.bytes_in_use = 0
        self.high_water = 0
        #: distinct launch record -> number of launches that produced it
        self.launch_tally: Dict[LaunchRecord, int] = {}
        self.alloc_count = 0
        self._listeners: List[object] = []

    # -- listeners ---------------------------------------------------------
    def add_listener(self, listener: object) -> None:
        """Attach an observer: ``on_launch(device, record, wall_seconds)``
        fires after every recorded launch or reduction."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def record(self, rec: LaunchRecord, wall_seconds: float) -> None:
        """Count one launch and notify the listeners."""
        self.launch_tally[rec] = self.launch_tally.get(rec, 0) + 1
        for listener in self._listeners:
            listener.on_launch(self, rec, wall_seconds)

    # -- memory -----------------------------------------------------------
    def _allocate(self, nbytes: int) -> None:
        if self.bytes_in_use + nbytes > self.memory_bytes:
            raise DeviceMemoryError(
                f"device {self.name}: allocation of {nbytes} bytes exceeds "
                f"capacity ({self.bytes_in_use}/{self.memory_bytes} in use)"
            )
        self.bytes_in_use += nbytes
        self.high_water = max(self.high_water, self.bytes_in_use)
        self.alloc_count += 1

    def _release(self, nbytes: int) -> None:
        self.bytes_in_use -= nbytes
        if self.bytes_in_use < 0:
            raise RuntimeError("device arena double free")

    def reserve(self, nbytes: int) -> Reservation:
        """Account ``nbytes`` of device memory without a host array.

        The accounting targets hold level-state residency and per-launch
        scratch this way: the arithmetic runs on host arrays the driver
        already owns, so only the bytes need tracking.
        """
        return Reservation(self, nbytes)

    # -- summaries --------------------------------------------------------
    def launch_count(self, name: Optional[str] = None) -> int:
        """Launches recorded (optionally of one kernel)."""
        return sum(n for rec, n in self.launch_tally.items()
                   if name is None or rec.name == name)

    def totals(self, name: Optional[str] = None) -> LaunchRecord:
        """Aggregate record over all launches (optionally one kernel)."""
        tally = [(r, n) for r, n in self.launch_tally.items()
                 if name is None or r.name == name]
        return LaunchRecord(
            name=name or "total",
            npoints=sum(n * r.npoints for r, n in tally),
            flops=sum(n * r.flops for r, n in tally),
            dram_bytes=sum(n * r.dram_bytes for r, n in tally),
            l2_bytes=sum(n * r.l2_bytes for r, n in tally),
            l1_bytes=sum(n * r.l1_bytes for r, n in tally),
        )

    def __repr__(self) -> str:
        return (
            f"GpuDevice({self.name}, {self.bytes_in_use}/{self.memory_bytes} B, "
            f"{self.launch_count()} launches)"
        )

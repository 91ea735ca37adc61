"""Simulated GPU device: memory arena and launch-record store.

We have no physical GPU, so this module supplies the *behavioral* device
the accounting execution targets (:mod:`repro.backend`) launch on, one
per simulated MPI rank:

- a global-memory allocator with a hard capacity (16 GB on a Summit V100),
  raising :class:`DeviceMemoryError` exactly where the real code would
  fault — the paper reports grid counts beyond 2.0e5 points spilling V100
  memory, which shaped both scaling studies;
- the kernel-launch records (name, points, flops, bytes at each memory
  level) that feed the hierarchical roofline model of Fig. 4, plus the
  listeners notified of each one.

The device never runs anything: :class:`~repro.backend.DeviceBackend`
times each launch body on the host NumPy arrays, builds its
:class:`LaunchRecord` and files it here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Summit NVIDIA V100 device memory
V100_MEMORY_BYTES = 16 * 1024**3


class DeviceMemoryError(MemoryError):
    """Raised when a device allocation exceeds the arena capacity."""


@dataclass
class LaunchRecord:
    """One recorded kernel launch."""

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


class DeviceArray(Reservation):
    """A NumPy array accounted against the device arena."""

    def __init__(self, device: "GpuDevice", shape: Tuple[int, ...],
                 dtype=np.float64) -> None:
        self.data = np.zeros(shape, dtype=dtype)
        super().__init__(device, self.data.nbytes)


class GpuDevice:
    """A simulated accelerator: bounded memory plus its launch records."""

    def __init__(self, name: str = "V100",
                 memory_bytes: int = V100_MEMORY_BYTES) -> None:
        self.name = name
        self.memory_bytes = memory_bytes
        self.bytes_in_use = 0
        self.high_water = 0
        self.launches: List[LaunchRecord] = []
        self.alloc_count = 0
        self._listeners: List[object] = []

    # -- listeners ---------------------------------------------------------
    def add_listener(self, listener: object) -> None:
        """Attach an observer: ``on_launch(device, record, wall_seconds)``
        fires after every recorded launch or reduction."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: object) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def record(self, rec: LaunchRecord, wall_seconds: float) -> None:
        """File one launch record and notify the listeners."""
        self.launches.append(rec)
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

    def alloc(self, shape: Tuple[int, ...], dtype=np.float64) -> DeviceArray:
        """Allocate a zero-filled array in device global memory."""
        return DeviceArray(self, shape, dtype)

    def reserve(self, nbytes: int) -> Reservation:
        """Account ``nbytes`` of device memory without a host array.

        The accounting targets hold level-state residency and per-launch
        scratch this way: the arithmetic runs on host arrays the driver
        already owns, so only the bytes need tracking.
        """
        return Reservation(self, nbytes)

    def upload(self, arr: np.ndarray) -> DeviceArray:
        """Copy a host array to the device (accounted allocation + copy)."""
        d = DeviceArray(self, arr.shape, arr.dtype)
        d.data[...] = arr
        return d

    # -- summaries --------------------------------------------------------
    def launches_by_kernel(self) -> Dict[str, List[LaunchRecord]]:
        out: Dict[str, List[LaunchRecord]] = {}
        for rec in self.launches:
            out.setdefault(rec.name, []).append(rec)
        return out

    def totals(self, name: Optional[str] = None) -> LaunchRecord:
        """Aggregate record over all launches (optionally one kernel)."""
        recs = [r for r in self.launches if name is None or r.name == name]
        return LaunchRecord(
            name=name or "total",
            npoints=sum(r.npoints for r in recs),
            flops=sum(r.flops for r in recs),
            dram_bytes=sum(r.dram_bytes for r in recs),
            l2_bytes=sum(r.l2_bytes for r in recs),
            l1_bytes=sum(r.l1_bytes for r in recs),
        )

    def reset(self) -> None:
        self.launches.clear()

    def __repr__(self) -> str:
        return (
            f"GpuDevice({self.name}, {self.bytes_in_use}/{self.memory_bytes} B, "
            f"{len(self.launches)} launches)"
        )

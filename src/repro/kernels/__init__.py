"""The CRoCCo numerics kernels and the simulated GPU they are accounted on.

The paper's port proceeds Fortran -> C++ -> GPU (Sec. IV).  We reproduce
the *software structure* of that port on two independent axes:

- every kernel (WENOx, WENOy, WENOz, Viscous, Update, ComputeDt) belongs
  to a :class:`~repro.kernels.api.KernelSet` in one summation
  *ordering*, ``fortran`` or ``cpp``: identical mathematics with
  different floating-point accumulation orders, reproducing the mechanism
  behind the paper's ~1e-7 L2-norm drift between languages;
- every kernel is a launch on an *execution target*
  (:mod:`repro.backend`: ``host``, ``device`` or ``fused``).  The
  accounting targets run the same arithmetic on simulated GPUs
  (:mod:`repro.kernels.device`), one per rank: scratch is reserved in
  "global memory" before launch (never inside kernels), launches are
  tallied with flop/byte counts for the roofline model, and
  device-memory capacity is enforced — reproducing the 16 GB V100 limit
  that shaped the paper's problem sizes.
"""

from repro.kernels.device import DeviceMemoryError, GpuDevice
from repro.kernels.api import KernelSet, make_backend

__all__ = ["GpuDevice", "DeviceMemoryError", "KernelSet", "make_backend"]

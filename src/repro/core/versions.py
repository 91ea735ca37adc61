"""The CRoCCo version matrix (Sec. V-C of the paper).

=======  ========  ====  ===========  ==========================
Version  Ordering  AMR   Target       Interpolator
=======  ========  ====  ===========  ==========================
1.0      fortran   off   host         --
1.1      cpp       off   host         --
1.2      cpp       on    host         custom curvilinear
2.0      cpp       on    device       custom curvilinear
2.1      cpp       on    device       AMReX trilinear (built-in)
=======  ========  ====  ===========  ==========================

The two axes are the paper's two port steps (Sec. IV): the summation
*ordering* of the kernels (Fortran -> C++) and the default execution
*target* (CPU -> GPU, which changes no arithmetic).  ``auto`` resolves
to the version's target; any registered target can be forced instead.

2.1 is the ParallelCopy ablation: swapping the custom curvilinear
interpolator for the built-in trilinear one removes the global
communication inside FillPatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class VersionConfig:
    """Capability switches of one CRoCCo version."""

    name: str
    ordering: str  # kernel summation ordering: fortran | cpp
    target: str  # default execution target: host | device
    amr: bool
    interpolator: str  # "curvilinear" | "trilinear" | "conservative" | "weno"

    @property
    def on_gpu(self) -> bool:
        """The paper ran this version on the GPUs (one rank per GPU)."""
        return self.target != "host"

    @property
    def uses_global_parallelcopy(self) -> bool:
        """The custom curvilinear interpolator gathers coordinates globally."""
        return self.amr and self.interpolator == "curvilinear"


VERSIONS: Dict[str, VersionConfig] = {
    "1.0": VersionConfig("1.0", "fortran", "host", amr=False, interpolator="curvilinear"),
    "1.1": VersionConfig("1.1", "cpp", "host", amr=False, interpolator="curvilinear"),
    "1.2": VersionConfig("1.2", "cpp", "host", amr=True, interpolator="curvilinear"),
    "2.0": VersionConfig("2.0", "cpp", "device", amr=True, interpolator="curvilinear"),
    "2.1": VersionConfig("2.1", "cpp", "device", amr=True, interpolator="trilinear"),
}


def get_version(name: str) -> VersionConfig:
    if name not in VERSIONS:
        raise KeyError(f"unknown CRoCCo version {name!r}; options {sorted(VERSIONS)}")
    return VERSIONS[name]

"""Environment isolation for benchmark runs.

``CroccoConfig`` and the fused target read several environment variables
as defaults, so a shell left in a CI-matrix setting would silently
measure a different workload.  :func:`isolate` removes those variables
and pins BLAS/OpenMP to one thread and the fused JIT to off.  It must run
before NumPy is imported, so this module imports nothing heavy.
"""

from __future__ import annotations

from typing import Dict, MutableMapping

#: variables the program reads as configuration defaults
SCRUBBED = (
    "REPRO_BACKEND",
    "REPRO_EXECUTOR",
    "REPRO_WORKERS",
    "REPRO_FAULTS",
    "REPRO_FUSED_JIT",
)

#: values set after the scrub: single-threaded BLAS/OpenMP, and the fused
#: target's optional numba JIT off, so a machine with numba installed
#: runs the same code as one without
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "REPRO_FUSED_JIT": "off",
}


def isolate(env: MutableMapping[str, str]) -> Dict[str, str]:
    """Scrub :data:`SCRUBBED` from ``env``, then apply :data:`PINNED`.

    Returns the scrubbed variables that were set, with their old values,
    so the run can report what it overrode.
    """
    removed = {name: env.pop(name) for name in SCRUBBED if name in env}
    env.update(PINNED)
    return removed

"""Correctness checks run on every deck run of the benchmark.

Each check returns a list of problems; an empty list means it passed.
A run with any problem counts as failed, not as slow.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

import numpy as np

#: the committed level-0 samples of each workload's seed-0 run
REFERENCE = Path(__file__).resolve().parent / "reference_seed0.npz"
#: the paper's port criterion: relative L2 difference to the reference
REFERENCE_RTOL = 1e-7
#: incident-shock position error allowed after 10 DMR steps: one level-0
#: cell (4 / 128).  Errors measured on seeds 0-11: 0.0008 to 0.013.
SHOCK_TOL = 4.0 / 128
#: vortex L2 error vs the exact solution after 10 steps at 256^2, about 3x
#: the largest measured on seeds 0-11 (rho 1.9e-8, T 2.8e-8, u 8.3e-7)
VORTEX_L2_BOUND = {"rho": 5e-8, "T": 7e-8, "u0": 2.5e-6, "u1": 2.5e-6}
#: watchdog counters that must stay zero
RESILIENCE_ZERO = ("step_retries", "rollbacks", "restores",
                   "checkpoint_failures")


def state_problems(sim) -> List[str]:
    """Every level finite, with positive density and pressure."""
    lay, eos = sim.case.layout, sim.case.eos
    out = []
    for lev in range(sim.finest_level + 1):
        for i, fab in sim.state[lev]:
            u = fab.valid()
            if not np.isfinite(u).all():
                out.append(f"non-finite state on level {lev} box {i}")
                continue
            if lay.density(u).min() <= 0:
                out.append(f"non-positive density on level {lev} box {i}")
            if eos.pressure(lay, u).min() <= 0:
                out.append(f"non-positive pressure on level {lev} box {i}")
    return out


def resilience_problems(sim) -> List[str]:
    stats = sim.resilience.as_dict()
    return [f"watchdog {name} = {stats[name]}"
            for name in RESILIENCE_ZERO if stats.get(name)]


def shock_error(sim, y_frac: float = 0.9) -> float:
    """|measured - exact| incident-shock x on the row nearest y_frac.

    The exact Mach-10 trajectory is evaluated at the physical height of
    the measured point, which the curvilinear stretching moves off
    ``y_frac``.
    """
    from repro.core.diagnostics import shock_position

    x = shock_position(sim, y_frac)
    for i, _ in sim.state[0]:
        c = sim.coords[0].fab(i).valid()
        j = int(np.argmin(np.abs(c[1][0, :] - y_frac * sim.case.prob_extent[1])))
        row_x = c[0][:, j]
        if row_x[0] <= x <= row_x[-1]:
            k = int(np.argmin(np.abs(row_x - x)))
            exact = float(sim.case.shock_x(c[1][k, j], sim.time))
            return abs(x - exact)
    raise ValueError(f"measured shock x = {x} lies in no level-0 box")


def shock_problems(sim) -> List[str]:
    err = shock_error(sim)
    if err > SHOCK_TOL:
        return [f"incident shock {err:.4f} from the exact trajectory "
                f"(tolerance {SHOCK_TOL:.4f})"]
    return []


def vortex_problems(sim) -> List[str]:
    from repro.core.validation import error_norms

    errs = error_norms(sim)
    return [f"vortex L2({name}) = {errs[name]['L2']:.3e} > {bound:.1e}"
            for name, bound in VORTEX_L2_BOUND.items()
            if not errs[name]["L2"] <= bound]


def level0_sample(sim, stride: int) -> np.ndarray:
    """Level-0 valid state on the whole domain, every ``stride``-th cell."""
    dom = sim.geoms[0].domain
    mf = sim.state[0]
    out = np.full((mf.ncomp,) + dom.shape(), np.nan)
    for _, fab in mf:
        out[(slice(None),) + fab.box.slices(relative_to=dom)] = fab.valid()
    cells = (slice(None),) + (slice(None, None, stride),) * (out.ndim - 1)
    return out[cells]


def reference_problems(got: np.ndarray, workload: str,
                       reference: Path = REFERENCE) -> List[str]:
    """Relative L2 difference of a level-0 sample to the reference."""
    from repro.core.validation import l2_difference

    with np.load(reference) as ref:
        want = ref[workload]
    rel = l2_difference(got, want) / l2_difference(want, np.zeros_like(want))
    if not rel <= REFERENCE_RTOL:
        return [f"level-0 state differs from the reference by relative "
                f"L2 {rel:.3e} (tolerance {REFERENCE_RTOL:g})"]
    return []


def write_reference(samples: Dict[str, np.ndarray],
                    reference: Path = REFERENCE) -> None:
    np.savez_compressed(reference, **samples)

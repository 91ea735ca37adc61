"""The benchmark's workloads: seed -> case and fully pinned run config.

Each workload is one deck run: build the case, ``Crocco(case, config)``,
``initialize()``, then ``step()`` up to a fixed final step.  The seed
only picks physical parameters within the stated ranges; seed 0 gives
the nominal deck values.  Every :class:`~repro.core.crocco.CroccoConfig`
field is set here, so no environment default reaches a run.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Tuple

from checks import shock_problems, vortex_problems

#: steps per deck run, the same for every workload so the tail rule picks
#: one percentile everywhere.  The dmr_v20_host hierarchy grows at the
#: regrid in step 5, which makes steps 5-10 slower than steps 1-4; with 10
#: steps the median and the tail percentile fall inside the slower group
#: instead of on the edge between the groups, where they jump from run to
#: run.
STEPS = 10
#: deck runs a timed run always completes, whatever ``--seconds`` says:
#: 3 x 10 steps leave 10 samples beyond the 66th percentile
MIN_RUNS = 3
#: the percentile reported as ``step_s.tail_p66`` (see measure.tail_percentile)
TAIL_PERCENTILE = 66

#: examples/decks/dmr.inputs, with the interpolator, target and executor
#: spelled out; the fields every workload pins beyond these are below
DMR_DECK = dict(
    max_level=2, blocking_factor=8, max_grid_size=32, regrid_int=4,
    n_error_buf=1, grid_eff=0.7, cfl=0.5, fixed_dt=None,
    nranks=6, ranks_per_node=6, weno_variant="symbo", tagging="density",
    coords_source="stored",
)

#: run-time fields pinned the same way for every workload
COMMON = dict(
    trace_out=None, metrics_out=None, profile=False,
    executor="serial", workers=None, perfscope=True,
    cache_dir=None, step_budget=None, wall_budget_s=None,
    metrics_stream=False,
    watchdog=True, max_step_retries=3, retry_same_dt=1,
    supervise=True, task_retries=2, retry_backoff=0.05, task_timeout=30.0,
    max_pool_restarts=3, autocheckpoint_every=0, autocheckpoint_keep=2,
    max_restores=2, positivity_spike=None, cfl_margin=None,
    faults_plan="", faults_seed=0,
)

#: span names every workload fires (see layers.BINDINGS)
ALWAYS = frozenset({
    "core.step", "core.initialize", "core.bc_fill", "kernels.rhs",
    "kernels.update", "kernels.max_rate", "numerics.compute_dt",
    "runtime.run_stage", "runtime.build_graph", "runtime.scheduler",
    "resilience.watchdog", "amr.fillboundary.post",
    "amr.fillboundary.finish",
})
AMR = frozenset({"amr.interp", "amr.regrid", "amr.error_est",
                 "amr.fill_coarse_patch", "amr.average_down"})


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line: why this workload, and its seed-to-parameter ranges
    why: str
    #: seed -> physical parameters
    params: Callable[[int], Dict[str, float]]
    #: parameters -> case
    case: Callable[[Dict[str, float]], object]
    #: autocheckpoint directory -> every pinned CroccoConfig field
    config: Callable[[Path], Dict[str, object]]
    #: sim -> problems with the physics (shock trajectory, exact solution)
    physics: Callable[[object], List[str]]
    #: spans that must fire / must never fire in a traced run
    expect: FrozenSet[str]
    absent: FrozenSet[str]
    #: spans that must fire in every timed step
    every_step: FrozenSet[str] = frozenset()
    #: stride of the level-0 sample compared against the reference
    ref_stride: int = 2


#: relative range of the DMR grid-stretch amplitude around 0.12.  Across
#: +-25% the refined hierarchy, and with it the cost of a deck run,
#: changes by about 30%, which would swamp the benchmark's bounds.
STRETCH_RANGE = 0.10


def _dmr_params(seed: int) -> Dict[str, float]:
    if seed == 0:
        return {"stretch": 0.12}
    u = random.Random(seed).uniform(-STRETCH_RANGE, STRETCH_RANGE)
    return {"stretch": 0.12 * (1.0 + u)}


def _dmr_case(p):
    from repro.cases.dmr import DoubleMachReflection

    return DoubleMachReflection(ncells=(128, 32), curvilinear=True,
                                stretch=p["stretch"])


def _vortex_params(seed: int) -> Dict[str, float]:
    if seed == 0:
        return {"strength": 5.0, "u0": 1.0, "v0": 0.5}
    rng = random.Random(seed)
    strength = rng.uniform(4.0, 6.0)
    speed = rng.uniform(0.8, 1.2)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return {"strength": strength, "u0": speed * math.cos(angle),
            "v0": speed * math.sin(angle)}


def _vortex_case(p):
    from repro.cases.vortex import IsentropicVortex

    return IsentropicVortex(ncells=256, strength=p["strength"],
                            u0=p["u0"], v0=p["v0"])


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="dmr_v20_host",
        why=("v2.0 DMR deck 128x32, 3 levels, curvilinear interp + global "
             "coord ParallelCopy, host target: coarse gather/interp and "
             "comm heaviest. Seed: stretch 0.12 +-10%"),
        params=_dmr_params, case=_dmr_case,
        config=lambda chk: dict(
            DMR_DECK, **COMMON, version="2.0", interpolator="curvilinear",
            backend_target="host", autocheckpoint_dir=str(chk)),
        expect=ALWAYS | AMR | {"amr.pc_coords"},
        absent=frozenset({"io.checkpoint"}),
        physics=shock_problems,
    ),
    Workload(
        name="dmr_v21_churn",
        why=("v2.1 DMR (trilinear), fused target, regrid and autocheckpoint "
             "every step: layout changes each step, so per-layout caches "
             "pay build cost. Seed: stretch 0.12 +-10%"),
        params=_dmr_params, case=_dmr_case,
        config=lambda chk: dict(
            DMR_DECK, **dict(COMMON, autocheckpoint_every=1),
            version="2.1", interpolator="trilinear", backend_target="fused",
            regrid_int=1, autocheckpoint_dir=str(chk)),
        expect=ALWAYS | AMR | {"io.checkpoint"},
        # post_coords still runs here, as a no-op: no coordinate copy
        absent=frozenset(),
        every_step=frozenset({"amr.regrid", "io.checkpoint"}),
        physics=shock_problems,
    ),
    Workload(
        name="vortex_uniform",
        why=("isentropic vortex 256^2, one level, 16 boxes, fused: WENO RHS "
             "dominates, no interp/regrid; exact solution. Seed: strength "
             "4-6, speed 0.8-1.2 at any angle"),
        params=_vortex_params, case=_vortex_case,
        config=lambda chk: dict(
            COMMON, version="2.1", max_level=0, blocking_factor=8,
            max_grid_size=64, regrid_int=2, n_error_buf=1, grid_eff=0.7,
            cfl=0.5, fixed_dt=None, nranks=6, ranks_per_node=6,
            weno_variant="symbo", tagging="density", coords_source="stored",
            interpolator="trilinear", backend_target="fused",
            autocheckpoint_dir=str(chk)),
        expect=ALWAYS,
        absent=AMR | {"amr.pc_coords", "io.checkpoint"},
        physics=vortex_problems,
        ref_stride=8,
    ),
)}


def make_config(fields: Dict[str, object]) -> Tuple[object, Tuple[str, ...]]:
    """A CroccoConfig from ``fields``, plus the config fields left unpinned.

    Names the config does not have are skipped rather than fatal, so a
    later change that removes a field still runs the benchmark; the
    tests check that every pinned name exists at this commit.
    """
    from repro.core.crocco import CroccoConfig

    known = {f.name for f in dataclasses.fields(CroccoConfig)}
    config = CroccoConfig(**{k: v for k, v in fields.items() if k in known})
    return config, tuple(sorted(known - set(fields)))

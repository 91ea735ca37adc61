"""One deck run through the public driver API, timed and checked.

``Crocco(case, config)``, ``initialize()``, then ``step()`` up to the
workload's final step, each step timed on its own, with the calibration
kernel of :mod:`calibrate` timed before the setup and after the setup and
every step, outside the program's calls.  A traced run wraps
the layer bindings of :mod:`layers` for its whole duration and restores
them afterwards.
"""

from __future__ import annotations

import gc
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from calibrate import REF_S, calibration_s
from checks import (level0_sample, reference_problems, resilience_problems,
                    state_problems)
from measure import normalized
from layers import layer_metrics, patch_targets, probe, rss_kb, trace_problems
from spans import SpanRecorder
from workloads import STEPS, Workload, make_config


@dataclass
class DeckRun:
    setup_s: float
    #: wall time of each step() call
    step_s: List[float]
    #: valid cells on all levels after each step
    cells: List[int]
    problems: List[str]
    #: calibration kernel time before the setup, after it and after
    #: each step (len(step_s) + 2 entries)
    cal_s: List[float]
    #: resolved target / executor / JIT state and unpinned config fields
    env: Dict[str, str]
    #: final level-0 state, every ref_stride-th cell (checks.level0_sample)
    sample: np.ndarray
    #: per-layer metrics (traced runs only)
    layers: Optional[Dict[str, float]] = None
    recorder: Optional[SpanRecorder] = field(default=None, repr=False)

    @property
    def time_to_solution_s(self) -> float:
        return sum(self.step_s)

    @property
    def norm_setup_s(self) -> float:
        """Setup time at the reference machine speed."""
        return normalized([self.setup_s], self.cal_s[:2], REF_S)[0]

    @property
    def norm_step_s(self) -> List[float]:
        """Step times at the reference machine speed."""
        return normalized(self.step_s, self.cal_s[1:], REF_S)

    @property
    def norm_time_to_solution_s(self) -> float:
        return sum(self.norm_step_s)


def _hierarchy(sim):
    cells = {lev: sim.box_arrays[lev].num_pts()
             for lev in range(sim.finest_level + 1)}
    boxes = {lev: len(sim.box_arrays[lev])
             for lev in range(sim.finest_level + 1)}
    return cells, boxes


def _env(sim, unpinned) -> Dict[str, str]:
    jit = getattr(sim.exec_backend, "jit_enabled", None)
    return {"target": sim.backend_target, "executor": sim.engine.name,
            "jit": "n/a" if jit is None else ("on" if jit else "off"),
            "unpinned": ",".join(unpinned) or "none"}


def setup_only(wl: Workload, seed: int, workdir: Path) -> float:
    """Crocco construction plus initialize() once, at the reference
    machine speed."""
    from repro.core.crocco import Crocco

    config, _ = make_config(wl.config(workdir / "autochk"))
    case = wl.case(wl.params(seed))
    gc.collect()
    cal = [calibration_s()]
    t0 = time.perf_counter()
    sim = Crocco(case, config)
    try:
        sim.initialize()
        setup = time.perf_counter() - t0
        cal.append(calibration_s())
        return normalized([setup], cal, REF_S)[0]
    finally:
        sim.close()


def run_deck(wl: Workload, seed: int, workdir: Path, traced: bool = False,
             check_reference: bool = False) -> DeckRun:
    """One full deck run; raises only if the program raises."""
    from repro.core.crocco import Crocco

    chk = workdir / "autochk"
    config, unpinned = make_config(wl.config(chk))
    case = wl.case(wl.params(seed))
    rec = SpanRecorder() if traced else None
    cells_by_level, boxes_by_level, step_s, cells = [], [], [], []
    cal = []
    patched = rec.patch(patch_targets(case)) if rec else nullcontext()
    try:
        with patched:
            gc.collect()
            cal.append(calibration_s())
            t0 = time.perf_counter()
            sim = Crocco(case, config)
            try:
                sim.initialize()
                setup = time.perf_counter() - t0
                cal.append(calibration_s())
                before = probe(sim) if rec else None
                rss_first = 0.0
                for k in range(STEPS):
                    t = time.perf_counter()
                    sim.step()
                    step_s.append(time.perf_counter() - t)
                    cal.append(calibration_s())
                    c, b = _hierarchy(sim)
                    cells.append(sum(c.values()))
                    cells_by_level.append(c)
                    boxes_by_level.append(b)
                    if k == 0 and rec:
                        rss_first = rss_kb()
                problems = (state_problems(sim) + resilience_problems(sim)
                            + wl.physics(sim))
                sample = level0_sample(sim, wl.ref_stride)
                if check_reference:
                    problems += reference_problems(sample, wl.name)
                layers = None
                if rec:
                    layers = layer_metrics(
                        rec, before, probe(sim), STEPS, cells_by_level,
                        boxes_by_level, rss_first, rss_kb())
                    problems += trace_problems(
                        rec, wl.expect, wl.absent, wl.every_step, STEPS,
                        layers["trace.unattributed_frac"])
                env = _env(sim, unpinned)
            finally:
                sim.close()
    finally:
        shutil.rmtree(chk, ignore_errors=True)
    return DeckRun(setup, step_s, cells, problems, cal, env, sample, layers,
                   rec)

"""Export simulated-Summit scaling runs in the unified trace/metrics schema.

The weak-scaling driver models each Table-I configuration as one solver
iteration (Fig. 6's region decomposition, Fig. 7's FillPatch split).
This module replays those modeled iterations through the same
observability pipeline a functional run uses — TinyProfiler charges
written as charged-clock spans into the :class:`Tracer` it is bound to,
per-step gauges in a :class:`MetricsRegistry` — so a simulated run
directory holds the *same* ``trace.json`` /
``metrics.jsonl`` artifacts (charged time instead of wall time) and
``python -m repro.report`` regenerates the Fig. 6/7 decompositions from
the artifacts alone.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.core.versions import get_version
from repro.observability.metrics import MetricsRegistry
from repro.observability.recorder import METRICS_NAME, TRACE_NAME
from repro.observability.tracer import Tracer
from repro.perfmodel.calibration import CAL, Calibration
from repro.perfmodel.execution import (
    IterationBreakdown,
    fillpatch_split,
    simulate_iteration,
)
from repro.perfmodel.scaling import TABLE1, _cached_hierarchy
from repro.profiling.tinyprofiler import TinyProfiler


def charge_iteration(profiler: TinyProfiler, bd: IterationBreakdown,
                     split: Optional[Dict[str, float]] = None) -> None:
    """Charge one modeled iteration into a profiler, Fig. 6/7-shaped.

    Produces the same region nest a functional step produces: top-level
    Advance / FillPatch / ComputeDt / AverageDown / Regrid, with
    FillBoundary and ParallelCopy nested under FillPatch (and the
    nowait/finish sub-split below those when ``split`` is given).
    """
    profiler.charge("Advance", bd.advance)
    with profiler.charged_region("FillPatch"):
        with profiler.charged_region("FillBoundary"):
            if split is not None:
                profiler.charge("FillBoundary_nowait", split["FillBoundary_nowait"])
                profiler.charge("FillBoundary_finish", split["FillBoundary_finish"])
            else:
                profiler.charge("FillBoundary_total", bd.fillboundary)
        with profiler.charged_region("ParallelCopy"):
            if split is not None:
                profiler.charge("ParallelCopy_nowait", split["ParallelCopy_nowait"])
                profiler.charge("ParallelCopy_finish", split["ParallelCopy_finish"])
            else:
                profiler.charge("ParallelCopy_total", bd.parallelcopy)
    profiler.charge("ComputeDt", bd.computedt)
    profiler.charge("AverageDown", bd.averagedown)
    profiler.charge("Regrid", bd.regrid)


def export_weak_scaling(
    out_dir,
    version: str = "2.1",
    table: Sequence[Tuple[int, int, float]] = TABLE1,
    cal: Calibration = CAL,
) -> Dict[str, str]:
    """Run the weak-scaling series and write trace/metrics artifacts.

    Each table row (nodes, gpus, equivalent points) becomes one "timestep"
    whose charged time is the modeled iteration at that scale.  Returns
    ``{"trace": path, "metrics": path}``.
    """
    v = get_version(version)
    tracer = Tracer()
    tracer.set_process_name(0, f"simulated Summit (CRoCCo {version})")
    tracer.set_thread_name(0, 0, "charged regions")
    metrics = MetricsRegistry()
    profiler = TinyProfiler()
    profiler.bind_tracer(tracer, rank=0)

    charged_total = 0.0
    for step, (nodes, _gpus, pts) in enumerate(table):
        nranks = cal.spec.ranks_for(nodes, v.on_gpu)
        rpn = cal.spec.ranks_per_node(v.on_gpu)
        levels = _cached_hierarchy(pts, nranks, rpn, v.amr, cal)
        bd = simulate_iteration(v, levels, nodes, cal)
        split = fillpatch_split(v, levels, nodes, cal) if v.amr else None
        charge_iteration(profiler, bd, split)
        charged_total += bd.total

        g = metrics.gauge
        g("nodes").set(nodes)
        g("nranks").set(nranks)
        g("equiv_points").set(pts)
        for li, lev in enumerate(levels):
            g(f"active_cells.lev{li}").set(lev.num_pts())
        g("active_cells.total").set(sum(l.num_pts() for l in levels))
        g("levels").set(len(levels))
        for name, seconds in bd.as_dict().items():
            g(f"region.{name}").set(seconds)
        if split is not None:
            for name, seconds in split.items():
                g(f"fillpatch.{name}").set(seconds)
        metrics.sample(step, charged_total)
        tracer.counter("equiv_points", {"points": float(pts)})

    out = Path(out_dir)
    other = {
        "mode": "charged",
        "schema": "repro-trace-1",
        "config": {
            "version": version,
            "driver": "weak_scaling",
            "nodes": [int(n) for (n, _g, _p) in table],
        },
    }
    return {
        "trace": tracer.write(out / TRACE_NAME, other_data=other),
        "metrics": metrics.write_jsonl(out / METRICS_NAME),
    }

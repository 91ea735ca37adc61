"""Per-layer metrics of a traced deck run.

:data:`BINDINGS` names each public function the traced run wraps, at the
binding its caller looks up: ``compute_dt`` and ``fill_coarse_patch`` as
bound in ``repro.core.crocco``, ``build_stage_graph`` as bound in
``repro.runtime.engine``.  Wrapping only the defining module would
record nothing.  Counters the program keeps itself (CommLedger, backend
launch counters, scratch cache, resilience stats) are read before and
after the timed steps.

:data:`METRICS` is the per-layer list in ``BENCHMARK.json`` with, for
each metric, the end-to-end metric it should move and the workload where
it dominates / is about absent.  Times are totals per deck run, counts
are per step.
"""

from __future__ import annotations

import importlib
import os
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from spans import Span, SpanRecorder, self_times, unattributed_fraction

#: (module, attribute path, span name) of every wrapped binding
BINDINGS = (
    ("repro.amr.fillpatch", "FillPatchOp.interp_fab", "amr.interp"),
    ("repro.amr.fillpatch", "FillPatchOp.post_coords", "amr.pc_coords"),
    ("repro.amr.fillpatch", "FillPatchOp.post_fillboundary",
     "amr.fillboundary.post"),
    ("repro.amr.fillpatch", "FillPatchOp.finish_fillboundary",
     "amr.fillboundary.finish"),
    ("repro.amr.amrcore", "AmrCore.regrid", "amr.regrid"),
    ("repro.core.crocco", "Crocco.error_est", "amr.error_est"),
    ("repro.core.crocco", "fill_coarse_patch", "amr.fill_coarse_patch"),
    ("repro.amr.average_down", "average_down", "amr.average_down"),
    ("repro.core.crocco", "Crocco.step", "core.step"),
    ("repro.core.crocco", "Crocco.initialize", "core.initialize"),
    ("repro.kernels.api", "KernelSet.rhs", "kernels.rhs"),
    ("repro.kernels.api", "KernelSet.update", "kernels.update"),
    ("repro.kernels.api", "KernelSet.max_rate", "kernels.max_rate"),
    ("repro.core.crocco", "compute_dt", "numerics.compute_dt"),
    ("repro.runtime.engine", "RuntimeEngine.run_stage", "runtime.run_stage"),
    ("repro.runtime.engine", "build_stage_graph", "runtime.build_graph"),
    ("repro.runtime.scheduler", "Scheduler.run", "runtime.scheduler"),
    ("repro.resilience.watchdog", "StepWatchdog.guarded_advance",
     "resilience.watchdog"),
    ("repro.io.checkpoint", "save_checkpoint", "io.checkpoint"),
)
#: the run's own case instance: ``Case.bc_fill`` as the driver calls it
CASE_BINDING = ("bc_fill", "core.bc_fill")
ROOT = "core.step"

KERNEL_CLASSES = ("flux", "update", "interp", "fillpatch", "averagedown",
                  "tagging", "reduction")
COUNTER_FIELDS = ("launches", "points", "flops", "dram_bytes")
LEDGER_KINDS = ("fillboundary", "parallelcopy", "reduce", "averagedown",
                "regrid")
LEVELS = (0, 1, 2)

TTS = "time_to_solution_s"
CUPS = "cell_updates_per_s"
P50 = "step_s.p50"
TAIL = "step_s.tail_p66"
RSS = "peak_rss_mb"
V20, V21, VTX = "dmr_v20_host", "dmr_v21_churn", "vortex_uniform"

#: (name, unit, better, end-to-end metric it should move,
#:  workload where it dominates / where it is about absent)
METRICS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("amr.interp.s", "s", "lower", f"{TTS} {CUPS}", f"{V20} / {VTX}"),
    ("amr.interp.calls", "1/step", "lower", f"{TTS} {CUPS}", f"{V20} / {VTX}"),
    ("amr.pc_coords.s", "s", "lower", f"{TTS} {CUPS}", f"{V20} / {V21}"),
    ("amr.fillboundary.s", "s", "lower", P50, f"{V20} / everywhere"),
    ("amr.fillboundary.calls", "1/step", "lower", P50, f"{V20} / everywhere"),
    ("amr.regrid.s", "s", "lower", TAIL, f"{V21} / {VTX}"),
    ("amr.regrid.calls", "1/step", "lower", TAIL, f"{V21} / {VTX}"),
    ("amr.error_est.s", "s", "lower", TAIL, f"{V21} / {VTX}"),
    ("amr.fill_coarse_patch.s", "s", "lower", TAIL, f"{V21} / {VTX}"),
    ("amr.average_down.s", "s", "lower", P50, f"{V20} {V21} / {VTX}"),
) + tuple(
    (f"amr.valid_cells.L{lev}", "cells", "lower", CUPS, "all")
    for lev in LEVELS
) + tuple(
    (f"amr.boxes.L{lev}", "count", "lower", CUPS, "all") for lev in LEVELS
) + (
    ("core.bc_fill.s", "s", "lower", P50, f"{V20} {V21} / {VTX}"),
    ("core.bc_fill.calls", "1/step", "lower", P50, f"{V20} {V21} / {VTX}"),
    ("core.step.self_s", "s", "lower", "closure", "all"),
    ("core.initialize.s", "s", "lower", "setup_s", "all"),
    ("kernels.rhs.s", "s", "lower", TTS, f"{VTX} / {V20}"),
    ("kernels.rhs.calls", "1/step", "lower", TTS, f"{VTX} / {V20}"),
    ("kernels.update.s", "s", "lower", TTS, f"{VTX} / {V20}"),
    ("kernels.max_rate.s", "s", "lower", TTS, f"{VTX} / {V20}"),
    ("numerics.compute_dt.s", "s", "lower", P50, "small everywhere"),
) + tuple(
    (f"backend.{fld}", "1/step", "lower", f"{TTS} {RSS}",
     f"{V21} {VTX} / {V20}")
    for fld in COUNTER_FIELDS
) + tuple(
    (f"backend.{fld}.{cls}", "1/step", "lower", TTS, f"{V21} {VTX} / {V20}")
    for cls in KERNEL_CLASSES for fld in COUNTER_FIELDS
) + (
    ("backend.scratch.hit_rate", "ratio", "higher", P50, f"{VTX} / {V20}"),
    ("runtime.run_stage.s", "s", "lower", P50, f"{V20} {V21} / {VTX}"),
    ("runtime.build_graph.s", "s", "lower", P50, f"{V20} {V21} / {VTX}"),
    ("runtime.scheduler.self_s", "s", "lower", P50, f"{V20} {V21} / {VTX}"),
    ("runtime.tasks", "1/step", "lower", P50, f"{V20} {V21} / {VTX}"),
    ("mpi.msgs", "1/step", "lower", f"{TTS} {RSS}", f"{V20} / {VTX}"),
    ("mpi.bytes", "B/step", "lower", TTS, f"{V20} / {VTX}"),
    ("mpi.remote_bytes", "B/step", "lower", TTS, f"{V20} / {VTX}"),
) + tuple(
    (f"mpi.{what}.{kind}", unit, "lower", TTS, f"{V20} / {VTX}")
    for kind in LEDGER_KINDS
    for what, unit in (("msgs", "1/step"), ("bytes", "B/step"))
) + (
    ("resilience.watchdog.self_s", "s", "lower", P50, "all"),
    ("resilience.retries", "1/step", "lower", P50, "all (zero when correct)"),
    ("resilience.checkpoint_failures", "1/step", "lower", TTS,
     f"{V21} (zero when correct)"),
    ("io.checkpoint.s", "s", "lower", TTS, f"{V21} / {V20} {VTX}"),
    ("io.checkpoint.calls", "1/step", "lower", TTS, f"{V21} / {V20} {VTX}"),
    ("io.checkpoint.bytes", "B/step", "lower", TTS, f"{V21} / {V20} {VTX}"),
    ("mem.rss_growth_kb_per_step", "KB/step", "lower", RSS, "all"),
    ("trace.overhead_frac", "ratio", "lower", "none", "all"),
    ("trace.unattributed_frac", "ratio", "lower", "none", "all"),
)

#: the closure bound on trace.unattributed_frac (ROADMAP item 1: 2%)
UNATTRIBUTED_BOUND = 0.02


def _dir_bytes(path) -> Dict[str, float]:
    return {"bytes": float(sum(f.stat().st_size
                               for f in Path(path).rglob("*") if f.is_file()))}


def patch_targets(case) -> List[tuple]:
    """``(owner, attr, span name, wrap kwargs)`` for SpanRecorder.patch."""
    out = []
    for module, path, name in BINDINGS:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        kwargs = {}
        if name == ROOT:
            kwargs["opens_step"] = True
        elif name == "io.checkpoint":
            kwargs["measure"] = _dir_bytes
        out.append((owner, attr, name, kwargs))
    attr, name = CASE_BINDING
    out.append((case, attr, name, {}))
    return out


def rss_kb() -> float:
    """Current resident set of this process in KB (0 where unreadable)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


def probe(sim) -> Dict[str, float]:
    """Program-kept counters, read between steps."""
    ledger = sim.comm.ledger
    out = {"mpi.msgs": ledger.count(), "mpi.bytes": ledger.total_bytes(),
           "mpi.remote_bytes": ledger.total_bytes(remote_only=True)}
    by_kind = ledger.by_kind()
    for kind in LEDGER_KINDS:
        msgs, nbytes = by_kind.get(kind, (0, 0))
        out[f"mpi.msgs.{kind}"] = msgs
        out[f"mpi.bytes.{kind}"] = nbytes
    totals = sim.exec_backend.class_totals()
    for fld in COUNTER_FIELDS:
        out[f"backend.{fld}"] = sum(c.get(fld, 0) for c in totals.values())
        for cls in KERNEL_CLASSES:
            out[f"backend.{fld}.{cls}"] = totals.get(cls, {}).get(fld, 0)
    scratch = getattr(sim.exec_backend, "scratch_stats", None)
    stats = scratch() if scratch is not None else {}
    out["scratch.hits"] = stats.get("hits", 0)
    out["scratch.lookups"] = stats.get("hits", 0) + stats.get("misses", 0)
    out["runtime.tasks"] = sum(sim.engine.total_report.tasks_by_kind.values())
    res = sim.resilience.as_dict()
    out["resilience.retries"] = res.get("step_retries", 0)
    out["resilience.checkpoint_failures"] = res.get("checkpoint_failures", 0)
    return {k: float(v) for k, v in out.items()}


def span_totals(spans: Sequence[Span], selfs: Sequence[float]
                ) -> Dict[str, Dict[str, float]]:
    """Per span name over the timed steps: total time, self time, calls."""
    out: Dict[str, Dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        if s.step < 0:
            continue
        t = out.setdefault(s.name, {"s": 0.0, "self": 0.0, "calls": 0.0,
                                    "bytes": 0.0})
        t["s"] += s.duration
        t["self"] += own
        t["calls"] += 1
        t["bytes"] += s.extra.get("bytes", 0.0)
    return out


def layer_metrics(rec: SpanRecorder, before: Dict[str, float],
                  after: Dict[str, float], nsteps: int,
                  cells: Sequence[Dict[int, int]],
                  boxes: Sequence[Dict[int, int]],
                  rss_first_kb: float, rss_last_kb: float
                  ) -> Dict[str, float]:
    """Every metric of :data:`METRICS` except trace.overhead_frac."""
    selfs = self_times(rec.spans)
    tot = span_totals(rec.spans, selfs)

    def get(name: str, key: str = "s") -> float:
        return tot.get(name, {}).get(key, 0.0)

    m: Dict[str, float] = {
        "amr.interp.s": get("amr.interp"),
        "amr.interp.calls": get("amr.interp", "calls") / nsteps,
        "amr.pc_coords.s": get("amr.pc_coords"),
        "amr.fillboundary.s": (get("amr.fillboundary.post")
                               + get("amr.fillboundary.finish")),
        "amr.fillboundary.calls":
            get("amr.fillboundary.post", "calls") / nsteps,
        "amr.regrid.s": get("amr.regrid"),
        "amr.regrid.calls": get("amr.regrid", "calls") / nsteps,
        "amr.error_est.s": get("amr.error_est"),
        "amr.fill_coarse_patch.s": get("amr.fill_coarse_patch"),
        "amr.average_down.s": get("amr.average_down"),
        "core.bc_fill.s": get("core.bc_fill"),
        "core.bc_fill.calls": get("core.bc_fill", "calls") / nsteps,
        "core.step.self_s": get(ROOT, "self"),
        "core.initialize.s": sum(s.duration for s in rec.spans
                                 if s.name == "core.initialize"),
        "kernels.rhs.s": get("kernels.rhs"),
        "kernels.rhs.calls": get("kernels.rhs", "calls") / nsteps,
        "kernels.update.s": get("kernels.update"),
        "kernels.max_rate.s": get("kernels.max_rate"),
        "numerics.compute_dt.s": get("numerics.compute_dt"),
        "runtime.run_stage.s": get("runtime.run_stage"),
        "runtime.build_graph.s": get("runtime.build_graph"),
        "runtime.scheduler.self_s": get("runtime.scheduler", "self"),
        "resilience.watchdog.self_s": get("resilience.watchdog", "self"),
        "io.checkpoint.s": get("io.checkpoint"),
        "io.checkpoint.calls": get("io.checkpoint", "calls") / nsteps,
        "io.checkpoint.bytes": get("io.checkpoint", "bytes") / nsteps,
        "mem.rss_growth_kb_per_step":
            (rss_last_kb - rss_first_kb) / max(1, nsteps - 1),
        "trace.unattributed_frac":
            unattributed_fraction(rec.spans, selfs, ROOT),
    }
    for lev in LEVELS:
        m[f"amr.valid_cells.L{lev}"] = sum(c.get(lev, 0) for c in cells) / nsteps
        m[f"amr.boxes.L{lev}"] = sum(b.get(lev, 0) for b in boxes) / nsteps
    for key in after:
        if key.startswith(("mpi.", "backend.", "runtime.", "resilience.")):
            m[key] = (after[key] - before[key]) / nsteps
    lookups = after["scratch.lookups"] - before["scratch.lookups"]
    m["backend.scratch.hit_rate"] = (
        (after["scratch.hits"] - before["scratch.hits"]) / lookups
        if lookups else 0.0)
    return m


def trace_problems(rec: SpanRecorder, expect, absent, every_step,
                   nsteps: int, unattributed: float) -> List[str]:
    """Span coverage and closure of one traced deck run.

    Expected spans fired, absent ones did not, per-step ones fired in
    every step, and the step time no span below the root accounts for
    stays under :data:`UNATTRIBUTED_BOUND`.
    """
    fired: Dict[str, set] = {}
    for s in rec.spans:
        fired.setdefault(s.name, set()).add(s.step)
    out = [f"span {name} never fired" for name in sorted(expect)
           if name not in fired]
    out += [f"span {name} fired but is not expected on this workload"
            for name in sorted(absent) if name in fired]
    for name in sorted(every_step):
        missing = set(range(nsteps)) - fired.get(name, set())
        if missing:
            out.append(f"span {name} missing in steps {sorted(missing)}")
    if not unattributed <= UNATTRIBUTED_BOUND:
        out.append(f"trace.unattributed_frac {unattributed:.4f} over "
                   f"{UNATTRIBUTED_BOUND}")
    return out

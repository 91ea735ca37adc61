"""Deck-level benchmark: time to solution and a traced per-layer breakdown.

Usage, from the repository root::

    python3 perfbench/run.py --workload dmr_v20_host --seed 1 \
        --seconds 30 --trace 0

Workloads are defined in ``perfbench/workloads.py``; each run is one
serial process that repeats the workload's deck (setup plus a fixed
number of steps) for ``--seconds`` seconds, at least ``MIN_RUNS`` times,
and checks every deck run for correctness.  ``--trace 0`` reports the
end-to-end metrics of untraced deck runs.  Their times are rescaled to
the reference machine speed of ``perfbench/calibrate.py`` (a fixed kernel
timed between steps), which cancels the host's drift in speed; the raw
wall-clock medians are printed above the result line.  ``--trace 1`` alternates
untraced and traced deck runs and reports the per-layer metrics of
``perfbench/layers.py``; the traced spans of the last deck run are
written to ``.perfbench/spans-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every deck run passed its checks, 1 when one failed and 2 when the
program sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from envpin import isolate  # noqa: E402  (imports nothing heavy)

#: setup-only repetitions before the timed deck runs, for setup_s: at
#: least SETUP_REPS, and more while under SETUP_SECONDS (a single-level
#: setup takes about 10 ms, a three-level DMR setup about 0.2 s)
SETUP_REPS = 5
SETUP_SECONDS = 2.0
#: setup-only repetitions after each deck run, so the setup samples span
#: the whole run rather than its first seconds
SETUP_REPS_BETWEEN = 2
#: never start a deck run expected to end later than this (the process
#: must exit within 180 s even on a slow machine)
HARD_LIMIT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("time_to_solution_s", "s"),
    ("step_s.p50", "s"),
    ("step_s.tail_p66", "s"),
    ("cell_updates_per_s", "cells/s"),
    ("peak_rss_mb", "MB"),
)


def src_lines() -> int:
    """Line count of src/ (informational, not a metric)."""
    return sum(len(p.read_bytes().splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def _attempt(fn, failures: list):
    """Run ``fn``; if it raises, record the failure and return None."""
    try:
        return fn()
    except Exception as exc:  # a failed deck run is counted, not fatal
        traceback.print_exc()
        failures.append(f"raised {exc!r}")
        return None


class Loop:
    """Repeat deck runs until ``seconds`` pass, at least ``minimum``."""

    def __init__(self, seconds: float, minimum: int) -> None:
        self.seconds = seconds
        self.minimum = minimum
        self.start = time.perf_counter()
        self.longest = 0.0
        self.done = 0

    def more(self) -> bool:
        elapsed = time.perf_counter() - self.start
        if elapsed + self.longest > HARD_LIMIT_S:
            return self.done == 0
        return self.done < self.minimum or elapsed + self.longest <= self.seconds

    def record(self, t0: float) -> None:
        self.done += 1
        self.longest = max(self.longest, time.perf_counter() - t0)


def run_timed(wl, seed, seconds, workdir):
    """End-to-end metrics of untraced deck runs."""
    import resource
    import statistics

    from deck import run_deck, setup_only
    from measure import beyond, cell_updates_per_s, percentile
    from workloads import MIN_RUNS, TAIL_PERCENTILE

    failures: list = []
    loop = Loop(seconds, MIN_RUNS)
    setups = []

    def setup_once() -> bool:
        t = _attempt(lambda: setup_only(wl, seed, workdir), failures)
        if t is not None:
            setups.append(t)
        return t is not None

    while (len(setups) + len(failures) < SETUP_REPS
           or time.perf_counter() - loop.start < SETUP_SECONDS):
        if not setup_once():
            break
    # a setup that raised counts as an attempted, failed run
    runs, attempted = [], len(failures)
    while loop.more():
        t0 = time.perf_counter()
        attempted += 1
        run = _attempt(lambda: run_deck(wl, seed, workdir,
                                        check_reference=seed == 0), failures)
        for _ in range(SETUP_REPS_BETWEEN):
            attempted += not setup_once()
        loop.record(t0)
        if run is None:
            continue
        if run.problems:
            failures.append("; ".join(run.problems))
            print(f"deck run {attempted} failed: {failures[-1]}")
            continue
        runs.append(run)
    if not runs:
        return attempted, len(failures), {}, {}, None
    steps = [s for r in runs for s in r.norm_step_s]
    tts = [r.norm_time_to_solution_s for r in runs]
    values = {
        "setup_s": statistics.median(setups + [r.norm_setup_s for r in runs]),
        "time_to_solution_s": statistics.median(tts),
        "step_s.p50": statistics.median(steps),
        "step_s.tail_p66": percentile(steps, TAIL_PERCENTILE),
        "cell_updates_per_s": statistics.median(
            cell_updates_per_s(r.cells, r.norm_time_to_solution_s)
            for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "times": "rescaled to the reference machine speed (calibrate.py)",
        "setup_s": f"median of {len(setups) + len(runs)} setups",
        "time_to_solution_s": f"median of {len(runs)} deck runs: "
                              + " ".join(f"{t:.3f}" for t in tts),
        "step_s.p50": f"median of {len(steps)} steps",
        "step_s.tail_p66": f"p{TAIL_PERCENTILE} of {len(steps)} steps, "
                           f"{beyond(len(steps), TAIL_PERCENTILE)} beyond",
        "cell_updates_per_s": f"median of {len(runs)} deck runs",
        "peak_rss_mb": "process peak",
        "wall clock": "medians "
        + f"setup {statistics.median(r.setup_s for r in runs):.4f} s, "
        + "time to solution "
        + f"{statistics.median(r.time_to_solution_s for r in runs):.4f} s, "
        + f"step {statistics.median(s for r in runs for s in r.step_s):.4f}"
        + " s, calibration kernel "
        + f"{statistics.median(c for r in runs for c in r.cal_s):.4f} s",
    }
    return attempted, len(failures), values, counts, runs[0]


def run_traced(wl, seed, seconds, workdir):
    """Per-layer metrics of traced deck runs, paired with untraced ones."""
    import statistics

    from deck import run_deck
    from layers import METRICS, span_totals
    from layers import ROOT as ROOT_SPAN
    from spans import self_times

    failures: list = []
    loop = Loop(seconds, 1)
    plain, traced = [], []
    attempted = 0
    while loop.more():
        t0 = time.perf_counter()
        for out, is_traced in ((plain, False), (traced, True)):
            attempted += 1
            run = _attempt(lambda: run_deck(wl, seed, workdir,
                                            traced=is_traced,
                                            check_reference=seed == 0),
                           failures)
            if run is None:
                continue
            if run.problems:
                failures.append("; ".join(run.problems))
                print(f"deck run {attempted} failed: {failures[-1]}")
                continue
            out.append(run)
        loop.record(t0)
    if not plain or not traced:
        return attempted, len(failures), {}, {}, None
    traced[-1].recorder.dump(
        ROOT / ".perfbench" / f"spans-{wl.name}-seed{seed}.json")
    values = {name: statistics.median(r.layers[name] for r in traced)
              for name, *_ in METRICS if name != "trace.overhead_frac"}
    t_plain = statistics.median(r.norm_time_to_solution_s for r in plain)
    t_traced = statistics.median(r.norm_time_to_solution_s for r in traced)
    values["trace.overhead_frac"] = (t_traced - t_plain) / t_plain
    rec = traced[-1].recorder
    tot = span_totals(rec.spans, self_times(rec.spans))
    wall = tot[ROOT_SPAN]["s"]
    print("self time by span, share of step wall (last traced deck run):")
    for name, t in sorted(tot.items(), key=lambda kv: -kv[1]["self"])[:8]:
        print(f"  {name:<26s} {t['self']:9.4f} s  {t['self'] / wall:6.1%}")
    counts = {"per-layer": f"median of {len(traced)} traced deck runs "
                           f"(paired with {len(plain)} untraced)"}
    return attempted, len(failures), values, counts, traced[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    removed = isolate(os.environ)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from layers import METRICS
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; options "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    params = wl.params(args.seed)
    print(f"workload {wl.name}  seed {args.seed}  "
          + "  ".join(f"{k}={v:.6g}" for k, v in params.items()))
    print(f"why: {wl.why}")
    if removed:
        print("scrubbed environment: " + ", ".join(
            f"{k}={v}" for k, v in sorted(removed.items())))
    print(f"src_lines {src_lines()} (informational)")

    workdir = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    try:
        if args.trace:
            attempted, failed, values, counts, sample = run_traced(
                wl, args.seed, args.seconds, workdir)
            units = {name: unit for name, unit, *_ in METRICS}
        else:
            attempted, failed, values, counts, sample = run_timed(
                wl, args.seed, args.seconds, workdir)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if sample is not None:
        e = sample.env
        print(f"resolved: target={e['target']} executor={e['executor']} "
              f"jit={e['jit']} nproc={os.cpu_count()} numpy={numpy.__version__}"
              f" unpinned_config={e['unpinned']}")
    for name, note in counts.items():
        print(f"  ({name}: {note})")
    for name, unit in units.items():
        if name in values:
            print(f"{name:<32s} {values[name]:.6g} {unit}")
    correct = failed == 0 and bool(values)
    print(f"attempted {attempted}  failed {failed}  correct {correct}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Perfscope attribution: decompose the serial-vs-pool gap, price itself.

Runs the small AMR DMR problem under the ``serial`` and 2-worker
``pool`` executors and checks the two properties that make the
attribution of the scheduler's per-task record trustworthy:

- **closure** — the six buckets (serialize + queue-wait + execute +
  result + merge + idle) must tile the pool run's lane capacity
  (makespan x lanes) to within 5%.  Idle is measured from per-lane
  timeline gaps, not computed as capacity-minus-busy, so this is a real
  cross-process clock-reconciliation check, not an identity;
- **cost** — the record's self-metered bookkeeping (building each stage
  trace and attributing it) on the serial run must stay under 2% of
  wall time.  The record is always kept, so the self-meter is the
  measure; there is no disabled run to compare wall time against.

The headline rows (critical-path seconds, realized parallelism, bucket
split, coverage, overhead fraction) go to BENCH_results.json so the
attribution trajectory is tracked like any other benchmark.
"""

import time

from benchmarks._record import record
from benchmarks.conftest import FULL, table
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig

NCELLS = (96, 24) if FULL else (64, 16)
NSTEPS = 10 if FULL else 5

#: acceptance thresholds (see the module docstring)
COVERAGE_TOL = 0.05
OVERHEAD_FRAC_MAX = 0.02


def _run(executor, workers=None):
    case = DoubleMachReflection(ncells=NCELLS, curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.0", nranks=6, ranks_per_node=6, max_level=1,
        max_grid_size=32, blocking_factor=8, regrid_int=2,
        executor=executor, workers=workers,
    ))
    sim.initialize()
    t0 = time.perf_counter()
    sim.run(NSTEPS)
    wall = time.perf_counter() - t0
    perf = sim.engine.total_report
    sim.close()
    return wall, perf


def test_perfscope_attribution(benchmark):
    def build():
        return _run("serial"), _run("pool", workers=2)

    (s_wall, s_perf), (p_wall, p_perf) = \
        benchmark.pedantic(build, rounds=1, iterations=1)

    rows = []
    for name, wall, perf in (("serial", s_wall, s_perf),
                             ("pool", p_wall, p_perf)):
        rows.append((name, f"{wall:.3f}", f"{perf.critical_path_s:.3f}",
                     f"{perf.realized_parallelism:.2f}",
                     f"{perf.coverage:.1%}", f"{perf.idle_s:.3f}",
                     f"{perf.queue_wait_s:.4f}", f"{perf.serialize_s:.4f}"))
    table(f"Perfscope attribution — DMR {NCELLS}, {NSTEPS} steps",
          ("executor", "wall[s]", "critpath[s]", "par", "coverage",
           "idle[s]", "wait[s]", "ser[s]"), rows)

    overhead_frac = s_perf.overhead_s / s_wall if s_wall > 0 else 0.0
    print(f"  perfscope self-metered overhead: {s_perf.overhead_s * 1e3:.2f} "
          f"ms = {overhead_frac:.2%} of serial wall")
    print(f"  pool bucket closure: attributed {p_perf.attributed_s:.4f} "
          f"worker-s of {p_perf.capacity_s:.4f} capacity "
          f"({p_perf.coverage:.2%}), {p_perf.reconcile_errors} "
          f"reconcile error(s)")

    for name, perf in (("serial", s_perf), ("pool", p_perf)):
        cfg = f"executor={name}"
        record("perfscope_critical_path", cfg, perf.critical_path_s, "s",
               tasks=perf.tasks, stages=perf.stages)
        record("perfscope_parallelism", cfg, perf.realized_parallelism, "x",
               lanes=perf.nlanes)
        record("perfscope_coverage", cfg, perf.coverage, "fraction",
               reconcile_errors=perf.reconcile_errors,
               **{f"{b}_s": perf.bucket(b)
                  for b in ("serialize", "queue_wait", "execute", "result",
                            "merge", "idle")})
    # gated in seconds (lower is better); the wall fraction the acceptance
    # bound is stated in rides along as an extra column
    record("perfscope_overhead", "executor=serial", s_perf.overhead_s, "s",
           overhead_frac=overhead_frac, wall_s=s_wall)

    # closure: the six buckets tile the pool capacity within 5%
    assert p_perf.offloaded > 0
    assert abs(p_perf.coverage - 1.0) <= COVERAGE_TOL, (
        f"bucket sum {p_perf.attributed_s:.4f}s vs capacity "
        f"{p_perf.capacity_s:.4f}s ({p_perf.coverage:.2%})")
    assert p_perf.reconcile_errors == 0
    # cost: attribution must stay effectively free on the serial path
    assert overhead_frac <= OVERHEAD_FRAC_MAX, (
        f"perfscope overhead {overhead_frac:.2%} of serial wall")
    # sanity: the critical path can't exceed the work it bounds
    assert 0.0 < s_perf.critical_path_s <= s_perf.execute_s + 1e-9
    assert p_perf.realized_parallelism > 0.0

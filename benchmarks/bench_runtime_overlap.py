"""Runtime executors: serial vs pool wall time and measured comm overlap.

Runs the same small AMR DMR problem through the task-graph runtime under
the deterministic ``serial`` executor and the multiprocessing ``pool``
executor, and records wall time, the pool/serial speedup, and the
measured comm/compute overlap fraction computed from the scheduler's
per-task record (the real-schedule counterpart of Fig. 7's nowait/finish
decomposition) and the lane-measured idle fraction.

The measured speedup is hardware-dependent — on a single-core CI
container the pool adds fork/IPC overhead instead of parallelism — so
the recorded values are observations, not assertions; correctness of
both executors is asserted (pool matches serial to tight tolerance).
"""

import os
import time

import numpy as np
import pytest

from benchmarks._record import record
from benchmarks.conftest import FULL, table
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig

NCELLS = (96, 24) if FULL else (64, 16)
NSTEPS = 10 if FULL else 5


def _run(executor: str, workers=None):
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
    state = {(lev, i): fab.whole().copy()
             for lev in range(sim.finest_level + 1)
             for i, fab in sim.state[lev]}
    report = sim.engine.total_report
    sim.close()
    return wall, state, report


def test_runtime_overlap_serial_vs_pool(benchmark):
    def build():
        serial = _run("serial")
        pool = _run("pool", workers=max(2, (os.cpu_count() or 2)))
        return serial, pool

    (s_wall, s_state, s_rep), (p_wall, p_state, p_rep) = \
        benchmark.pedantic(build, rounds=1, iterations=1)

    # correctness: pool must reproduce serial (same graph, same kernels)
    assert set(s_state) == set(p_state)
    err = max(float(np.abs(s_state[k] - p_state[k]).max()) for k in s_state)
    assert err < 1e-12

    speedup = s_wall / p_wall if p_wall > 0 else 0.0
    rows = [
        ("serial", f"{s_wall:.3f}", f"{s_rep.overlap_s:.4f}",
         f"{s_rep.overlap_frac:.1%}", f"{s_rep.idle_frac:.1%}", 1),
        ("pool", f"{p_wall:.3f}", f"{p_rep.overlap_s:.4f}",
         f"{p_rep.overlap_frac:.1%}", f"{p_rep.idle_frac:.1%}",
         p_rep.workers),
    ]
    table(f"Runtime executors — DMR {NCELLS}, {NSTEPS} steps "
          f"({os.cpu_count()} CPU core(s))",
          ("executor", "wall[s]", "overlap[s]", "overlap%", "idle%",
           "workers"), rows)
    print(f"  pool/serial speedup: {speedup:.2f}x "
          f"(hardware-limited on {os.cpu_count()} core(s))")

    # both rows carry the same schema (workers/speedup present on each)
    # so downstream tooling can group and compare without special-casing
    record("runtime_overlap", "executor=serial", s_wall, "s",
           overlap_s=s_rep.overlap_s, overlap_frac=s_rep.overlap_frac,
           workers=1, speedup=1.0)
    record("runtime_overlap", "executor=pool", p_wall, "s",
           overlap_s=p_rep.overlap_s, overlap_frac=p_rep.overlap_frac,
           workers=p_rep.workers, speedup=speedup)

    # the scheduler posts comm early on both executors: overlap is real
    assert s_rep.overlap_s > 0.0
    assert p_rep.overlap_s > 0.0
    # comm was actually split: both halves of FillBoundary show up
    assert s_rep.posted_comm_s > 0.0
    assert s_rep.finish_comm_s > 0.0

"""End-to-end runtime: nowait/finish comm split, executor equivalence,
engine reports, and config plumbing."""

import multiprocessing

import numpy as np
import pytest

from repro.amr.boundary import (fill_boundary, fill_boundary_nowait)
from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping
from repro.amr.geometry import Geometry
from repro.amr.multifab import MultiFab
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.io.inputs import InputDeck
from repro.mpi.comm import Communicator

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def make_mf(ngrow=2, periodic=(False, False)):
    domain = Box((0, 0), (31, 31))
    ba = BoxArray.from_domain(domain, 16, 8)
    comm = Communicator(4, ranks_per_node=2)
    dm = DistributionMapping.make(ba, 4, "roundrobin")
    mf = MultiFab(ba, dm, 2, ngrow, comm)
    geom = Geometry(domain, (0.0, 0.0), (1.0, 1.0), periodic)
    return mf, geom


def randomize(mf, seed=0):
    rng = np.random.default_rng(seed)
    for _i, fab in mf:
        fab.whole()[...] = rng.standard_normal(fab.whole().shape)


class TestNowaitFinish:
    @pytest.mark.parametrize("periodic", [(False, False), (True, True)])
    def test_split_matches_eager(self, periodic):
        eager, geom = make_mf(periodic=periodic)
        split, _ = make_mf(periodic=periodic)
        randomize(eager)
        randomize(split)
        fill_boundary(eager, geom)
        handle = fill_boundary_nowait(split, geom)
        # ghosts are untouched until finish(): valid data already packed
        handle.finish()
        for i, fab in eager:
            np.testing.assert_array_equal(fab.whole(),
                                          split.fab(i).whole())

    def test_handle_accounting(self):
        mf, geom = make_mf()
        randomize(mf)
        handle = fill_boundary_nowait(mf, geom)
        assert handle.npackets > 0
        assert handle.nbytes > 0
        handle.finish()
        # finish is idempotent: packets are consumed
        assert handle.npackets == 0
        handle.finish()

    def test_pack_snapshot_isolated_from_later_writes(self):
        """The nowait pack must snapshot source data; mutating valid cells
        between post and finish must not leak into the exchanged ghosts."""
        a, geom = make_mf()
        b, _ = make_mf()
        randomize(a, seed=3)
        randomize(b, seed=3)
        fill_boundary(a, geom)

        handle = fill_boundary_nowait(b, geom)
        for _i, fab in b:
            fab.valid()[...] += 1.0  # overlapped "compute" on valid cells
        handle.finish()
        ng = b.ngrow.tup()[0]
        for i, fab in a:
            # mask out valid cells; ghosts must match a's (pre-bump) ghosts
            mask = np.ones(fab.whole().shape, dtype=bool)
            mask[(slice(None),) + tuple(slice(ng, s - ng)
                                        for s in fab.whole().shape[1:])] = False
            np.testing.assert_array_equal(fab.whole()[mask],
                                          b.fab(i).whole()[mask])


def run_dmr(executor, workers=None, steps=3, max_level=1):
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.0", nranks=6, ranks_per_node=6, max_level=max_level,
        max_grid_size=32, blocking_factor=8, regrid_int=2,
        executor=executor, workers=workers,
    ))
    sim.initialize()
    sim.run(steps)
    state = {(lev, i): fab.whole().copy()
             for lev in range(sim.finest_level + 1)
             for i, fab in sim.state[lev]}
    report = sim.engine.total_report
    sim.close()
    return state, report


class TestExecutorEquivalence:
    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_pool_matches_serial(self):
        s_state, _ = run_dmr("serial")
        p_state, p_rep = run_dmr("pool", workers=2)
        assert set(s_state) == set(p_state)
        for k in s_state:
            err = float(np.abs(s_state[k] - p_state[k]).max())
            assert err < 1e-12, f"level/box {k}: max abs err {err}"
        # the pool actually offloaded compute tasks
        assert p_rep.tasks_by_kind["compute"] > 0
        assert p_rep.workers >= 2


class TestEngineReport:
    def test_two_level_run_overlaps(self):
        _state, rep = run_dmr("serial", steps=3)
        assert rep.stages == 9  # 3 steps x 3 RK stages
        assert rep.tasks_by_kind["comm-post"] > 0
        assert rep.tasks_by_kind["comm-wait"] > 0
        assert rep.tasks_by_kind["compute"] > 0
        assert rep.posted_comm_s > 0.0
        assert rep.finish_comm_s > 0.0
        # coarse-level compute runs inside the fine level's comm window
        assert rep.overlap_s > 0.0
        assert 0.0 < rep.overlap_frac <= 1.0

    def test_single_level_serial_has_no_overlap(self):
        # with one level and one executor thread nothing can run inside
        # the only comm window — the measured overlap is exactly zero
        _state, rep = run_dmr("serial", steps=2, max_level=0)
        assert rep.tasks_by_kind.get("interp", 0) == 0
        assert rep.overlap_s == 0.0


class TestConfigPlumbing:
    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "pool")
        monkeypatch.setenv("REPRO_WORKERS", "7")
        cfg = CroccoConfig(version="1.1")
        assert cfg.executor == "pool"
        assert cfg.workers == 7

    def test_env_absent_defaults_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        cfg = CroccoConfig(version="1.1")
        assert cfg.executor == "serial"
        assert cfg.workers is None

    def test_deck_keys(self):
        deck = InputDeck.parse(
            "crocco.version = 1.1\n"
            "runtime.executor = pool\n"
            "runtime.workers = 4\n"
        )
        cfg = deck.to_crocco_config()
        assert cfg.executor == "pool"
        assert cfg.workers == 4

    def test_deck_silent_keeps_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        deck = InputDeck.parse("crocco.version = 1.1\n")
        assert deck.to_crocco_config().executor == "serial"

    def test_engine_name_exposed(self):
        case = DoubleMachReflection(ncells=(64, 16))
        sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=32,
                                        executor="serial"))
        assert sim.engine.name == "serial"
        assert not sim.engine.is_pool
        sim.close()

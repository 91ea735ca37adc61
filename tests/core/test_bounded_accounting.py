"""Long runs keep bounded accounting: tallies, not per-event lists."""

from repro.cases.vortex import IsentropicVortex
from repro.core.crocco import Crocco, CroccoConfig


def tally_sizes(sim):
    return (len(list(sim.comm.ledger.entries())),
            [len(d.launch_tally) for d in sim.devices])


def test_tally_sizes_flat_while_traffic_grows():
    # one level: no regrid, so the box layout (and with it the set of
    # distinct routes and launch shapes) is fixed for the whole run
    sim = Crocco(IsentropicVortex(ncells=16), CroccoConfig(
        version="2.1", nranks=4, ranks_per_node=2, max_level=0,
        max_grid_size=8, backend_target="device", executor="serial"))
    try:
        sim.initialize()
        sim.run(5)
        msgs5 = sim.comm.ledger.count()
        launches5 = sum(d.launch_count() for d in sim.devices)
        sizes5 = tally_sizes(sim)
        sim.run(45)
        msgs50 = sim.comm.ledger.count()
        launches50 = sum(d.launch_count() for d in sim.devices)
        assert tally_sizes(sim) == sizes5
        assert 9 <= msgs50 / msgs5 <= 11
        assert 9 <= launches50 / launches5 <= 11
    finally:
        sim.close()

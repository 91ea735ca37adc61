"""Price a functional run's recorded traffic on the Summit network model.

This bridges the two layers: the functional solver tallies every simulated
MPI message in its :class:`~repro.mpi.ledger.CommLedger`; this module
converts that *measured* traffic — rather than modeled volumes — into
seconds on the fat-tree model, attributed to the paper's profiling
regions.  Useful for validating the performance layer's volume models
against real runs at proxy scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.mpi.ledger import KINDS, CommLedger
from repro.perfmodel.calibration import CAL, Calibration


@dataclass(frozen=True)
class PricedLedger:
    """Seconds per message kind, from recorded traffic."""

    seconds: Dict[str, float]
    off_node_bytes: Dict[str, int]
    on_node_bytes: Dict[str, int]
    messages: Dict[str, int]

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def price_ledger(ledger: CommLedger, nranks: int, nodes: int,
                 cal: Calibration = CAL) -> PricedLedger:
    """Convert a CommLedger into per-kind seconds on the network model.

    Point-to-point kinds (fillboundary, averagedown) are bounded by the
    busiest receiving rank; global kinds (parallelcopy, regrid) add the
    metadata/handshake term; reductions are priced as binomial trees per
    recorded all-reduce.
    """
    if nodes < 1 or nranks < 1:
        raise ValueError("nodes and nranks must be positive")
    net = cal.net
    seconds: Dict[str, float] = {}
    offb: Dict[str, int] = {}
    onb: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    rpn = max(1, nranks // nodes)
    for kind in KINDS:
        counts[kind] = ledger.count(kind)
        if not counts[kind]:
            seconds[kind] = 0.0
            offb[kind] = onb[kind] = 0
            continue
        recv_off = np.zeros(nranks)
        recv_on = np.zeros(nranks)
        nmsg = np.zeros(nranks, dtype=np.int64)
        for src, dst, _, n, nbytes in ledger.entries(kind):
            if src == dst:
                continue
            dst = dst % nranks
            src = src % nranks
            if src // rpn == dst // rpn:
                recv_on[dst] += nbytes
            else:
                recv_off[dst] += nbytes
                nmsg[dst] += n
        offb[kind] = int(recv_off.sum())
        onb[kind] = int(recv_on.sum())
        t = net.p2p_time(float(recv_off.max()), float(recv_on.max()),
                         int(nmsg.max()), nodes)
        if kind in ("parallelcopy", "regrid"):
            # each ParallelCopy episode pays the global metadata handshake;
            # estimate episode count from the traffic structure (one per
            # destination sweep is indistinguishable here, so charge once)
            t += cal.pc_meta_per_rank * nranks + net.barrier_time(nranks)
        if kind == "reduce":
            # an all-reduce over n ranks records n-1 messages up the
            # binomial tree and n-1 back down the broadcast
            rounds = max(1, counts[kind] // max(1, 2 * (nranks - 1)))
            t = rounds * net.reduction_time(nranks)
        seconds[kind] = float(t)
    return PricedLedger(seconds, offb, onb, counts)

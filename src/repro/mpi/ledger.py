"""Message ledger: the tally of simulated MPI traffic.

Every communication primitive in the substrate (FillBoundary point-to-point
exchanges, ParallelCopy global redistribution, reductions) records its
messages here.  The ledger is the ground truth that the Summit network
model prices: message counts, per-kind byte volumes, and the
on-node/off-node split all come from real box-intersection geometry.

Like the AMReX TinyProfiler, the ledger keeps aggregates, not events: one
``[count, bytes]`` entry per ``(src, dst, kind)``, so its size is bounded
by ``nranks**2 * len(KINDS)`` however long the run.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

#: Message kinds tracked by the ledger, matching the paper's profiling
#: regions (Fig. 7 splits FillPatch into FillBoundary and ParallelCopy).
KINDS = ("fillboundary", "parallelcopy", "reduce", "averagedown", "regrid")


class CommLedger:
    """Tallies simulated messages and summarizes traffic."""

    def __init__(self, ranks_per_node: int = 6) -> None:
        #: ranks per node; Summit runs 6 ranks/node (one per V100 GPU)
        self.ranks_per_node = ranks_per_node
        #: (src, dst, kind) -> [messages, bytes]
        self._tally: Dict[Tuple[int, int, str], List[int]] = {}

    def record(self, src: int, dst: int, nbytes: int, kind: str) -> None:
        """Count one message; ``kind`` must be one of :data:`KINDS`."""
        if kind not in KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        if nbytes < 0:
            raise ValueError("message size must be non-negative")
        entry = self._tally.get((src, dst, kind))
        if entry is None:
            self._tally[(src, dst, kind)] = [1, nbytes]
        else:
            entry[0] += 1
            entry[1] += nbytes

    def clear(self, kind: Optional[str] = None) -> None:
        """Drop recorded traffic — all of it, or one ``kind`` only."""
        if kind is None:
            self._tally.clear()
            return
        if kind not in KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        self._tally = {k: v for k, v in self._tally.items() if k[2] != kind}

    def __len__(self) -> int:
        return self.count()

    def entries(self, kind: Optional[str] = None
                ) -> Iterator[Tuple[int, int, str, int, int]]:
        """``(src, dst, kind, messages, bytes)`` per tallied route."""
        for (src, dst, k), (n, b) in self._tally.items():
            if kind is None or k == kind:
                yield src, dst, k, n, b

    # -- summaries --------------------------------------------------------
    def total_bytes(self, kind: Optional[str] = None, remote_only: bool = False) -> int:
        return sum(b for src, dst, _, _, b in self.entries(kind)
                   if not (remote_only and src == dst))

    def count(self, kind: Optional[str] = None, remote_only: bool = False) -> int:
        return sum(n for src, dst, _, n, _ in self.entries(kind)
                   if not (remote_only and src == dst))

    def node_of(self, rank: int) -> int:
        return rank // self.ranks_per_node

    def off_node_bytes(self, kind: Optional[str] = None) -> int:
        """Bytes crossing node boundaries (priced at network bandwidth)."""
        return sum(b for src, dst, _, _, b in self.entries(kind)
                   if self.node_of(src) != self.node_of(dst))

    def on_node_bytes(self, kind: Optional[str] = None) -> int:
        """Bytes between different ranks on the same node (NVLink/shared mem)."""
        return sum(b for src, dst, _, _, b in self.entries(kind)
                   if src != dst and self.node_of(src) == self.node_of(dst))

    def per_rank_bytes(self, nranks: int, kind: Optional[str] = None,
                       direction: str = "send") -> List[int]:
        """Bytes sent (or received) by each rank, excluding self-messages."""
        out = [0] * nranks
        for src, dst, _, _, b in self.entries(kind):
            if src != dst:
                out[src if direction == "send" else dst] += b
        return out

    def by_kind(self) -> Dict[str, Tuple[int, int]]:
        """{kind: (count, bytes)} over all messages."""
        out: Dict[str, Tuple[int, int]] = {}
        for _, _, k, n, b in self.entries():
            count, nbytes = out.get(k, (0, 0))
            out[k] = (count + n, nbytes + b)
        return out

    def matrix(self, nranks: int) -> List[List[int]]:
        """Dense rank-to-rank byte matrix (row = src, column = dst)."""
        out = [[0] * nranks for _ in range(nranks)]
        for src, dst, _, _, b in self.entries():
            out[src][dst] += b
        return out

"""Tests for the simulated communicator and message ledger."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpi.comm import Communicator, SerialComm
from repro.mpi.ledger import CommLedger


def test_message_local_flag():
    # a message whose source and destination rank coincide is a local
    # memcpy: counted, but never remote traffic
    led = CommLedger()
    led.record(2, 2, 100, "fillboundary")
    led.record(1, 2, 100, "fillboundary")
    assert led.count() == 2
    assert led.count(remote_only=True) == 1
    assert led.total_bytes(remote_only=True) == 100


def test_ledger_record_and_query():
    led = CommLedger(ranks_per_node=2)
    led.record(0, 1, 100, "fillboundary")
    led.record(0, 2, 50, "parallelcopy")
    led.record(3, 3, 10, "fillboundary")
    assert len(led) == 3
    assert led.total_bytes() == 160
    assert led.total_bytes("fillboundary") == 110
    assert led.total_bytes("fillboundary", remote_only=True) == 100
    assert led.count("parallelcopy") == 1


def test_ledger_kind_validation():
    led = CommLedger()
    with pytest.raises(ValueError):
        led.record(0, 1, 10, "bogus")
    with pytest.raises(ValueError):
        led.record(0, 1, -1, "reduce")


def test_on_node_off_node_split():
    led = CommLedger(ranks_per_node=2)
    led.record(0, 1, 100, "fillboundary")  # same node (0,1 -> node 0)
    led.record(0, 2, 70, "fillboundary")  # cross node (node 0 -> node 1)
    led.record(1, 1, 5, "fillboundary")  # self
    assert led.on_node_bytes() == 100
    assert led.off_node_bytes() == 70


def test_per_rank_bytes():
    led = CommLedger()
    led.record(0, 1, 100, "fillboundary")
    led.record(0, 2, 50, "fillboundary")
    led.record(2, 0, 25, "fillboundary")
    send = led.per_rank_bytes(3, direction="send")
    recv = led.per_rank_bytes(3, direction="recv")
    assert send == [150, 0, 25]
    assert recv == [25, 100, 50]


def test_by_kind():
    led = CommLedger()
    led.record(0, 1, 100, "reduce")
    led.record(0, 1, 100, "reduce")
    led.record(0, 1, 7, "regrid")
    assert led.by_kind() == {"reduce": (2, 200), "regrid": (1, 7)}


def test_repeated_routes_share_one_entry():
    led = CommLedger()
    for _ in range(100):
        led.record(0, 1, 8, "reduce")
        led.record(1, 0, 8, "reduce")
    assert len(led) == 200
    assert sorted(led.entries()) == [(0, 1, "reduce", 100, 800),
                                     (1, 0, "reduce", 100, 800)]


def test_clear_by_kind():
    led = CommLedger()
    led.record(0, 1, 100, "reduce")
    led.record(0, 1, 50, "regrid")
    led.record(1, 2, 25, "reduce")
    led.clear(kind="reduce")
    assert led.by_kind() == {"regrid": (1, 50)}
    with pytest.raises(ValueError):
        led.clear(kind="warp")
    led.clear()
    assert len(led) == 0


def test_comm_validation():
    with pytest.raises(ValueError):
        Communicator(0)
    comm = Communicator(4, ranks_per_node=2)
    with pytest.raises(ValueError):
        comm.send_bytes(0, 4, 10, "reduce")
    assert comm.nnodes == 2


def test_serial_comm():
    c = SerialComm()
    assert c.nranks == 1
    assert c.reduce_min([5.0]) == 5.0
    assert len(c.ledger) == 0  # single rank: no messages in a tree of one


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=33))
def test_tree_reduce_correctness(values):
    comm = Communicator(len(values), ranks_per_node=6)
    assert comm.reduce_min(values) == min(values)
    assert comm.reduce_max(values) == max(values)
    assert comm.reduce_sum(values) == pytest.approx(sum(values), rel=1e-12, abs=1e-9)


def test_tree_reduce_message_count():
    comm = Communicator(8, ranks_per_node=2)
    comm.reduce_min([1.0] * 8)
    # reduce: 4+2+1 = 7 messages; broadcast: 7 more
    assert len(comm.ledger) == 14


def test_reduce_wrong_length():
    comm = Communicator(4)
    with pytest.raises(ValueError):
        comm.reduce_min([1.0, 2.0])


def test_barrier_rounds():
    assert Communicator(1).barrier_rounds() == 1
    assert Communicator(8).barrier_rounds() == 3
    assert Communicator(1024).barrier_rounds() == 10

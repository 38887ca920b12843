"""Transaction record tests."""

from repro.core.metrics import TransactionRecord


def rec(txn, scheme, latency, sent=2, recv=2, msgs=4, hops=100):
    return TransactionRecord(txn=txn, scheme=scheme, home=0, sharers=2,
                             start=1000, end=1000 + latency,
                             home_sent=sent, home_recv=recv,
                             total_messages=msgs, flit_hops=hops)


def test_record_properties():
    r = rec(1, "ui-ua", latency=150, sent=3, recv=5)
    assert r.latency == 150
    assert r.home_occupancy == 8

"""Transaction record and aggregation tests."""

import pytest

from repro.core.metrics import (TransactionRecord, aggregate_records,
                                normalized_latency)


def rec(txn, scheme, latency, sent=2, recv=2, msgs=4, hops=100):
    return TransactionRecord(txn=txn, scheme=scheme, home=0, sharers=2,
                             start=1000, end=1000 + latency,
                             home_sent=sent, home_recv=recv,
                             total_messages=msgs, flit_hops=hops)


def test_record_properties():
    r = rec(1, "ui-ua", latency=150, sent=3, recv=5)
    assert r.latency == 150
    assert r.home_occupancy == 8


def test_aggregate_groups_by_scheme():
    records = [rec(1, "ui-ua", 100), rec(2, "ui-ua", 200),
               rec(3, "mi-ma-ec", 90, msgs=3)]
    summaries = aggregate_records(records)
    assert set(summaries) == {"ui-ua", "mi-ma-ec"}
    ui = summaries["ui-ua"]
    assert ui.transactions == 2
    assert ui.latency.mean == pytest.approx(150.0)
    assert ui.messages.mean == 4
    row = ui.as_row()
    assert row["scheme"] == "ui-ua"
    assert row["latency"] == pytest.approx(150.0)
    assert row["latency_max"] == 200


def test_normalized_latency():
    summaries = aggregate_records(
        [rec(1, "ui-ua", 200), rec(2, "mi-ma-ec", 100)])
    norm = normalized_latency(summaries)
    assert norm["ui-ua"] == pytest.approx(1.0)
    assert norm["mi-ma-ec"] == pytest.approx(0.5)


def test_normalized_latency_requires_baseline():
    summaries = aggregate_records([rec(1, "mi-ma-ec", 100)])
    with pytest.raises(KeyError):
        normalized_latency(summaries)


def test_normalized_latency_zero_baseline_rejected():
    summaries = aggregate_records([rec(1, "ui-ua", 0),
                                   rec(2, "mi-ma-ec", 10)])
    with pytest.raises(ValueError):
        normalized_latency(summaries)


def test_aggregate_empty():
    assert aggregate_records([]) == {}

"""Worm structure validation tests."""

import pytest

from repro.network.worm import (VNET_REPLY, VNET_REQUEST, Worm, WormKind)


def make(**kw):
    base = dict(kind=WormKind.MULTICAST, src=0, dests=(1, 2, 3),
                size_flits=8)
    base.update(kw)
    return Worm(**base)


def test_basic_fields_and_navigation():
    w = make()
    assert w.next_dest == 1
    assert not w.at_last_leg
    w.advance()
    assert w.next_dest == 2
    w.advance()
    assert w.at_last_leg
    with pytest.raises(ValueError):
        w.advance()


def test_unicast_single_destination():
    with pytest.raises(ValueError):
        make(kind=WormKind.UNICAST)
    w = make(kind=WormKind.UNICAST, dests=(5,))
    assert w.at_last_leg


def test_validation_rules():
    with pytest.raises(ValueError):
        make(dests=())
    with pytest.raises(ValueError):
        make(dests=(0, 1))       # source among destinations
    with pytest.raises(ValueError):
        make(dests=(1, 1, 2))    # duplicates
    with pytest.raises(ValueError):
        make(size_flits=0)


def test_delivers_at_respects_reserve_only():
    w = make(kind=WormKind.IRESERVE, dests=(1, 2, 3),
             reserve_only=frozenset({2}))
    assert w.delivers_at(1)
    assert not w.delivers_at(2)
    assert w.delivers_at(3)
    assert not w.delivers_at(7)


def test_uids_unique_and_monotonic():
    a, b = make(), make()
    assert b.uid > a.uid


def test_vnet_constants():
    assert VNET_REQUEST == 0
    assert VNET_REPLY == 1

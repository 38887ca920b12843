"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Simulator, Timeout
from repro.sim.engine import SimulationError


def test_timeout_advances_clock():
    sim = Simulator()
    trace = []

    def body():
        trace.append(sim.now)
        yield Timeout(10)
        trace.append(sim.now)
        yield Timeout(5)
        trace.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert trace == [0, 10, 15]


def test_process_return_value_and_join():
    sim = Simulator()

    def worker():
        yield Timeout(7)
        return "answer"

    def parent():
        proc = sim.spawn(worker(), name="worker")
        value = yield proc.done
        assert value == "answer"
        return sim.now

    parent_proc = sim.spawn(parent())
    sim.run()
    assert parent_proc.done.value == 7
    assert not parent_proc.alive


def test_wait_event_receives_value():
    sim = Simulator()
    ev = sim.event("data")
    got = []

    def waiter():
        value = yield ev
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.call_after(30, lambda: ev.succeed("hello"))
    sim.run()
    assert got == [(30, "hello")]


def test_multiple_waiters_resume_fifo():
    sim = Simulator()
    ev = sim.event()
    order = []

    def waiter(tag):
        yield ev
        order.append(tag)

    for tag in range(4):
        sim.spawn(waiter(tag))
    sim.call_after(5, lambda: ev.succeed())
    sim.run()
    assert order == [0, 1, 2, 3]


def test_yield_from_composition():
    sim = Simulator()
    trace = []

    def inner():
        yield Timeout(3)
        trace.append(("inner", sim.now))
        return 99

    def outer():
        value = yield from inner()
        trace.append(("outer", sim.now, value))

    sim.spawn(outer())
    sim.run()
    assert trace == [("inner", 3), ("outer", 3, 99)]


def test_negative_delay_rejected():
    sim = Simulator()

    def bad():
        yield Timeout(-1)

    sim.spawn(bad())
    with pytest.raises(SimulationError, match="negative"):
        sim.run()


def test_bad_yield_type_rejected():
    for nonsense in ("nonsense", 5):  # a bare number is no Timeout
        sim = Simulator()

        def bad():
            yield nonsense

        sim.spawn(bad())
        with pytest.raises(SimulationError, match="unsupported"):
            sim.run()


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError, match="generator"):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_waiting_on_already_fired_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    got = []

    def waiter():
        value = yield ev
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert got == [(0, "early")]


def test_zero_delay_preserves_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield Timeout(0)
        order.append(tag)

    for tag in range(3):
        sim.spawn(proc(tag))
    sim.run()
    assert order == [0, 1, 2]

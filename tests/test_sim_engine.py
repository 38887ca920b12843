"""Unit tests for the event calendar and events."""

import pytest

from repro.sim import AllOf, Simulator
from repro.sim.engine import SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0
    assert sim.peek() is None


def test_call_after_orders_by_time():
    sim = Simulator()
    log = []
    sim.call_after(10, lambda: log.append("b"))
    sim.call_after(5, lambda: log.append("a"))
    sim.call_after(20, lambda: log.append("c"))
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 20


def test_same_cycle_fifo_order():
    sim = Simulator()
    log = []
    for tag in "abcde":
        sim.call_after(7, lambda t=tag: log.append(t))
    sim.run()
    assert log == list("abcde")


def test_run_until_stops_clock():
    sim = Simulator()
    log = []
    sim.call_after(5, lambda: log.append("early"))
    sim.call_after(50, lambda: log.append("late"))
    sim.run(until=10)
    assert log == ["early"]
    assert sim.now == 10
    sim.run()
    assert log == ["early", "late"]


def test_cannot_schedule_into_past():
    sim = Simulator()
    sim.call_after(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5, lambda: None)


def test_event_succeed_and_callbacks():
    sim = Simulator()
    ev = sim.event("e")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed(42)
    assert ev.triggered
    assert got == [42]
    # Late callback fires immediately.
    ev.add_callback(lambda e: got.append(e.value + 1))
    assert got == [42, 43]


def test_event_double_succeed_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_schedule_fires_later():
    sim = Simulator()
    ev = sim.event("e").schedule(15, "done")
    assert not ev.triggered
    sim.run()
    assert ev.triggered
    assert ev.value == "done"
    assert sim.now == 15


def test_all_of_waits_for_every_child():
    sim = Simulator()
    children = [sim.event().schedule(t, t) for t in (3, 9, 6)]
    combined = AllOf(sim, children)
    sim.run()
    assert combined.triggered
    assert combined.value == [3, 9, 6]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    combined = AllOf(sim, [])
    sim.run()
    assert combined.triggered
    assert combined.value == []


def test_run_until_event_returns_value():
    sim = Simulator()
    ev = sim.event("e").schedule(12, "payload")
    sim.call_after(100, lambda: None)  # later noise
    assert sim.run_until_event(ev) == "payload"
    assert sim.now == 12


def test_run_until_event_detects_deadlock():
    sim = Simulator()
    ev = sim.event("never")
    with pytest.raises(SimulationError, match="never fired"):
        sim.run_until_event(ev)


def test_run_until_event_respects_limit():
    sim = Simulator()
    ev = sim.event("slow")
    ev.schedule(1000)
    with pytest.raises(SimulationError, match="cycle limit"):
        sim.run_until_event(ev, limit=100)


def test_dispatched_counts_callbacks():
    sim = Simulator()
    for _ in range(5):
        sim.call_after(1, lambda: None)
    sim.run()
    assert sim.dispatched == 5


def test_timer_cancel_drops_callback_reference():
    """Regression: a cancelled Timer kept its callback closure alive for
    as long as the stale heap entry, pinning whatever the watchdog
    closed over.  cancel() must drop the reference immediately."""
    import gc
    import weakref

    class Payload:
        pass

    sim = Simulator()

    def arm():
        # Closure cell owned only by the timer callback once we return.
        payload = Payload()
        return sim.timer(10_000, lambda: payload), weakref.ref(payload)

    timer, ref = arm()
    gc.collect()
    assert ref() is not None  # armed: closure legitimately held
    timer.cancel()
    gc.collect()
    assert ref() is None, "cancelled timer retained its callback closure"
    # The stale calendar entry is still a harmless no-op dispatch.
    sim.run()
    assert sim.now == 10_000


def test_timer_cancel_is_idempotent_and_fire_still_works():
    sim = Simulator()
    fired = []
    t1 = sim.timer(5, lambda: fired.append("t1"))
    t2 = sim.timer(5, lambda: fired.append("t2"))
    t2.cancel()
    t2.cancel()  # idempotent
    sim.run()
    assert fired == ["t1"]
    assert t1.fired and not t1.active
    assert t2.cancelled and not t2.fired

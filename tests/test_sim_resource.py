"""Unit tests for facilities."""

from repro.sim import Facility, Simulator, Timeout


def test_resource_fifo_queue():
    sim = Simulator()
    fac = Facility(sim, "dc")
    finish = []

    def client(tag):
        yield from fac.use(1)
        finish.append((tag, sim.now))

    for tag in range(5):
        sim.spawn(client(tag))
    sim.run()
    assert finish == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]


def test_facility_use_serializes():
    sim = Simulator()
    fac = Facility(sim, "memory")
    finish = []

    def client(tag):
        yield from fac.use(16)
        finish.append((tag, sim.now))

    for tag in range(3):
        sim.spawn(client(tag))
    sim.run()
    assert finish == [(0, 16), (1, 32), (2, 48)]


def test_facility_idle_server_grants_at_once():
    """A request that finds the server released and idle starts at its
    own arrival cycle, not behind a stale holder."""
    sim = Simulator()
    fac = Facility(sim, "proc")
    finish = []

    def client(tag, arrive, hold):
        yield Timeout(arrive)
        yield from fac.use(hold)
        finish.append((tag, sim.now))

    sim.spawn(client("a", 0, 10))
    sim.spawn(client("b", 30, 5))
    sim.run()
    assert finish == [("a", 10), ("b", 35)]


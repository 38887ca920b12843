"""DSM coherence protocol tests."""

import pytest

from repro.config import SystemParameters
from repro.coherence import Barrier, Cache, CacheState, DSMSystem
from repro.coherence.directory import DirectoryState
from repro.coherence.processor import Processor, run_program
from repro.core.grouping import SCHEMES
from repro.sim import Simulator, Timeout


def make_system(scheme="ui-ua", cache_capacity=None, **overrides):
    params = SystemParameters(**overrides)
    sim = Simulator()
    return sim, DSMSystem(sim, params, scheme, cache_capacity=cache_capacity)


def run_accesses(sim, system, accesses, limit=2_000_000):
    """Run a list of (node, op, block) sequentially on one driver."""
    log = []

    def driver():
        for node, op, block in accesses:
            t0 = sim.now
            yield from system.access(node, op, block)
            log.append((node, op, block, sim.now - t0))

    proc = sim.spawn(driver(), name="driver")
    sim.run_until_event(proc.done, limit=limit)
    return log


# ----------------------------------------------------------------------
# Basic protocol transitions
# ----------------------------------------------------------------------
def test_read_miss_then_hit():
    sim, system = make_system()
    block = 9  # homed at node 9
    log = run_accesses(sim, system, [(0, "R", 9), (0, "R", 9)])
    assert system.caches[0].state(9) is CacheState.SHARED
    assert system.caches[0].misses == 1
    assert system.caches[0].hits == 1
    # The hit is handled without touching the network again.
    assert log[1][3] < log[0][3]
    entry = system.dirs[system.home_of(block)].entry(block)
    assert entry.state is DirectoryState.SHARED
    assert entry.presence == {0}


def test_write_miss_uncached_gets_exclusive():
    sim, system = make_system()
    run_accesses(sim, system, [(3, "W", 20)])
    assert system.caches[3].state(20) is CacheState.MODIFIED
    entry = system.dirs[system.home_of(20)].entry(20)
    assert entry.state is DirectoryState.EXCLUSIVE
    assert entry.owner == 3


def test_read_after_remote_write_downgrades_owner():
    sim, system = make_system()
    run_accesses(sim, system, [(3, "W", 20), (5, "R", 20)])
    assert system.caches[3].state(20) is CacheState.SHARED
    assert system.caches[5].state(20) is CacheState.SHARED
    entry = system.dirs[system.home_of(20)].entry(20)
    assert entry.state is DirectoryState.SHARED
    assert entry.presence == {3, 5}


def test_write_invalidates_all_sharers():
    sim, system = make_system()
    readers = [0, 1, 2, 10, 17]
    accesses = [(r, "R", 33) for r in readers] + [(40, "W", 33)]
    run_accesses(sim, system, accesses)
    for r in readers:
        assert system.caches[r].state(33) is None
    assert system.caches[40].state(33) is CacheState.MODIFIED
    entry = system.dirs[system.home_of(33)].entry(33)
    assert entry.state is DirectoryState.EXCLUSIVE and entry.owner == 40
    assert system.invalidation_count == len(readers)
    system.assert_quiescent()


def test_upgrade_keeps_data_local():
    sim, system = make_system()
    run_accesses(sim, system, [(4, "R", 12), (4, "W", 12)])
    assert system.caches[4].state(12) is CacheState.MODIFIED
    assert system.caches[4].upgrades == 1
    assert system.upgrade_latency.n == 1


def test_write_to_exclusive_block_recalls_owner():
    sim, system = make_system()
    run_accesses(sim, system, [(3, "W", 20), (6, "W", 20)])
    assert system.caches[3].state(20) is None
    assert system.caches[6].state(20) is CacheState.MODIFIED
    entry = system.dirs[system.home_of(20)].entry(20)
    assert entry.owner == 6


def test_home_local_accesses_bypass_network():
    sim, system = make_system()
    home = system.home_of(5)
    run_accesses(sim, system, [(home, "R", 5), (home, "W", 5)])
    assert system.net.injected == 0
    assert system.caches[home].state(5) is CacheState.MODIFIED


def test_home_as_sharer_invalidated_locally():
    sim, system = make_system()
    home = system.home_of(7)
    run_accesses(sim, system, [(home, "R", 7), (20, "R", 7), (30, "W", 7)])
    assert system.caches[home].state(7) is None
    assert system.caches[20].state(7) is None
    assert system.caches[30].state(7) is CacheState.MODIFIED
    system.assert_quiescent()


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_invalidation_schemes_drive_full_protocol(scheme):
    sim, system = make_system(scheme)
    readers = [1, 2, 9, 10, 11, 18, 25, 33]
    accesses = [(r, "R", 40) for r in readers] + [(50, "W", 40)]
    run_accesses(sim, system, accesses)
    for r in readers:
        assert system.caches[r].state(40) is None
    assert system.caches[50].state(40) is CacheState.MODIFIED
    system.assert_quiescent()
    assert len(system.engine.records) == 1
    assert system.engine.records[0].sharers == len(readers)


def test_concurrent_writers_serialize():
    sim, system = make_system()
    results = []

    def writer(node):
        yield from system.access(node, "W", 44)
        results.append((node, sim.now))

    procs = [sim.spawn(writer(n), name=f"w{n}") for n in (2, 9, 30)]
    for p in procs:
        sim.run_until_event(p.done, limit=2_000_000)
    # Exactly one final owner; every writer completed.
    entry = system.dirs[system.home_of(44)].entry(44)
    owners = [n for n in (2, 9, 30)
              if system.caches[n].state(44) is CacheState.MODIFIED]
    assert owners == [entry.owner]
    assert len(results) == 3
    system.assert_quiescent()


def test_readers_queued_behind_invalidation_get_fresh_copy():
    sim, system = make_system()
    done = []

    def reader_then_writer():
        yield from system.access(1, "R", 44)
        yield from system.access(2, "R", 44)
        # Writer and a racing reader.
        w = sim.spawn(w_proc(), name="w")
        r = sim.spawn(r_proc(), name="r")
        yield w.done
        yield r.done

    def w_proc():
        yield from system.access(9, "W", 44)
        done.append(("w", sim.now))

    def r_proc():
        yield Timeout(5)
        yield from system.access(30, "R", 44)
        done.append(("r", sim.now))

    p = sim.spawn(reader_then_writer(), name="top")
    sim.run_until_event(p.done, limit=2_000_000)
    assert len(done) == 2
    system.assert_quiescent()
    # The late reader sees the block shared with the (downgraded) writer.
    entry = system.dirs[system.home_of(44)].entry(44)
    assert entry.state in (DirectoryState.SHARED, DirectoryState.EXCLUSIVE)


# ----------------------------------------------------------------------
# Finite cache / evictions
# ----------------------------------------------------------------------
def test_lru_eviction_writes_back_modified_lines():
    sim, system = make_system(cache_capacity=2)
    # Three distinct blocks homed away from node 0.
    run_accesses(sim, system, [(0, "W", 9), (0, "W", 10), (0, "W", 11)])
    sim.run()  # let the eviction writeback drain
    assert len(system.caches[0]) == 2
    assert system.caches[0].evictions == 1
    entry = system.dirs[system.home_of(9)].entry(9)
    assert entry.state is DirectoryState.UNCACHED


def test_shared_eviction_is_silent_and_tolerated():
    sim, system = make_system(cache_capacity=2)
    run_accesses(sim, system, [(0, "R", 9), (0, "R", 10), (0, "R", 11)])
    # Block 9 evicted silently; directory still lists node 0.
    entry = system.dirs[system.home_of(9)].entry(9)
    assert 0 in entry.presence
    # A later write invalidates the stale presence without deadlock.
    run_accesses(sim, system, [(5, "W", 9)])
    system.assert_quiescent()


# ----------------------------------------------------------------------
# Cache unit behaviour
# ----------------------------------------------------------------------
def test_cache_lookup_classification():
    c = Cache(0)
    assert c.lookup(1, write=False) == "miss"
    c.install(1, CacheState.SHARED)
    assert c.lookup(1, write=False) == "hit"
    assert c.lookup(1, write=True) == "upgrade"
    c.install(1, CacheState.MODIFIED)
    assert c.lookup(1, write=True) == "hit"


def test_cache_lru_order():
    c = Cache(0, capacity=2)
    c.install(1, CacheState.SHARED)
    c.install(2, CacheState.SHARED)
    c.lookup(1, write=False)          # 1 becomes MRU
    victim = c.install(3, CacheState.SHARED)
    assert victim == (2, CacheState.SHARED)


def test_cache_invalidate_and_downgrade():
    c = Cache(0)
    c.install(5, CacheState.MODIFIED)
    c.downgrade(5)
    assert c.state(5) is CacheState.SHARED
    assert c.invalidate(5)
    assert not c.invalidate(5)
    with pytest.raises(RuntimeError):
        c.downgrade(5)


# ----------------------------------------------------------------------
# Processors and barriers
# ----------------------------------------------------------------------
def test_barrier_releases_all_parties_together():
    sim = Simulator()
    barrier = Barrier(sim, 3)
    times = []

    def party(delay):
        yield Timeout(delay)
        yield barrier.arrive()
        times.append(sim.now)

    for d in (5, 20, 60):
        sim.spawn(party(d))
    sim.run()
    assert times == [60, 60, 60]
    assert barrier.episodes == 1


def test_barrier_reusable_across_episodes():
    sim = Simulator()
    barrier = Barrier(sim, 2)
    log = []

    def party(tag, delays):
        for d in delays:
            yield Timeout(d)
            yield barrier.arrive()
            log.append((tag, sim.now))

    sim.spawn(party("a", [10, 10]))
    sim.spawn(party("b", [30, 5]))
    sim.run()
    assert [t for _, t in log] == [30, 30, 40, 40]
    assert barrier.episodes == 2


def test_run_program_with_sharing():
    sim, system = make_system("mi-ma-ec")
    block = 17
    traces = {
        0: [("R", block), ("barrier", 0), ("think", 10), ("barrier", 1)],
        1: [("R", block), ("barrier", 0), ("W", block), ("barrier", 1)],
        2: [("R", block), ("barrier", 0), ("think", 5), ("barrier", 1)],
    }
    stats = run_program(system, traces)
    assert stats["references"] == 4  # three reads + one write
    assert stats["misses"] >= 3
    assert stats["invalidations"] >= 1
    assert stats["barrier_episodes"] == 2
    assert stats["execution_cycles"] > 0


def test_processor_rejects_unknown_trace_entry():
    sim, system = make_system()
    Processor(system, 0, [("X", 1)])
    with pytest.raises(ValueError, match="unknown trace entry"):
        sim.run()


def test_trace_barrier_without_manager_raises():
    sim, system = make_system()
    Processor(system, 0, [("barrier", 0)])
    with pytest.raises(RuntimeError, match="no barrier"):
        sim.run()

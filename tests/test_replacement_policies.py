"""The replacement-policy registry: contracts every implementation obeys.

Three layers of guarantees:

* **Registry contract** -- every policy respects locks (``victim()`` never
  names a locked way, an all-locked set yields ``None``), survives
  capture/restore round-trips, and validates way indices.  The lock
  property is checked under *randomised* access/lock interleavings shared
  across all six implementations, OPT included (driven by a deterministic
  fake oracle).
* **Cache integration** -- the policy is part of cache identity: it flows
  into the job content address, the request coalescing key, and the CLI
  campaign; ``lines_locked`` counts first-lock transitions only.
* **Lazy sets** -- a cache creates a set's tags and replacement state on
  first touch, copying it out of a restored snapshot; that behaves exactly
  like a cache whose every set was created up front, never writes the
  shared snapshot, and keeps the warm-up fall-back exact.
* **MRC profiler** -- Belady's OPT lower-bounds every policy on every
  workload family, and the LRU/OPT curves are non-increasing in capacity.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from _helpers import TEST_SEED
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, MemoryHierarchyConfig
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import StatsRegistry
from repro.exp.request import JobRequest
from repro.exp.runner import SimJob, job_key
from repro.isa.trace import RegionFootprint
from repro.memory.cache import SetAssociativeCache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.replacement import (
    POLICY_NAMES,
    TIMING_POLICY_NAMES,
    LruPolicy,
    create_policy,
    validate_policy_name,
)
from repro.sim.configs import fmc_hash
from repro.sim.engine import fast
from repro.workloads.suite import generate_member_trace, quick_fp_suite, quick_int_suite

ASSOCIATIVITY = 4


def _oracle(line: int) -> float:
    """OPT's fake future: reuse distance proportional to the line number, so
    line 0 is reused soonest and high lines latest -- deterministic and
    discriminating."""
    return float(line)


def _make_policy(name: str, associativity: int = ASSOCIATIVITY):
    """Instantiate any registry policy with its set 0 created (the contract
    tests drive that one set); OPT gets a deterministic fake oracle."""
    policy = create_policy(name, associativity, next_use=_oracle)
    policy.reset(0)
    return policy


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------


def test_registry_names_and_validation() -> None:
    assert set(TIMING_POLICY_NAMES) < set(POLICY_NAMES)
    assert "opt" in POLICY_NAMES and "opt" not in TIMING_POLICY_NAMES
    for name in POLICY_NAMES:
        assert validate_policy_name(name) == name
    with pytest.raises(ConfigurationError):
        validate_policy_name("mru")
    with pytest.raises(ConfigurationError):
        validate_policy_name("opt", timing_only=True)
    with pytest.raises(ConfigurationError):
        create_policy("opt", ASSOCIATIVITY)  # no oracle -> offline only


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_victim_never_locked_under_random_interleavings(name: str) -> None:
    """Shared lock-safety property, same harness for every implementation."""
    rng = random.Random(hash(name) & 0xFFFF)
    policy = _make_policy(name)
    locked = set()
    for step in range(600):
        action = rng.random()
        way = rng.randrange(ASSOCIATIVITY)
        if action < 0.4:
            policy.touch(0, way)
        elif action < 0.6:
            policy.insert(0, way, line=rng.randrange(64))
        elif action < 0.8:
            policy.lock(0, way)
            locked.add(way)
        elif locked:
            unlock = rng.choice(sorted(locked))
            policy.unlock(0, unlock)
            locked.discard(unlock)
        victim = policy.victim(0)
        if len(locked) == ASSOCIATIVITY:
            assert victim is None
        else:
            assert victim is not None
            assert victim not in locked, f"{name} evicted locked way at step {step}"


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_all_locked_set_yields_no_victim(name: str) -> None:
    policy = _make_policy(name)
    for way in range(ASSOCIATIVITY):
        policy.lock(0, way)
    assert policy.victim(0) is None
    policy.unlock(0, 2)
    assert policy.victim(0) == 2


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_capture_restore_round_trip(name: str) -> None:
    """Restoring a snapshot reproduces the victim sequence exactly."""
    rng = random.Random(99)
    policy = _make_policy(name)
    for _ in range(200):
        if rng.random() < 0.5:
            policy.touch(0, rng.randrange(ASSOCIATIVITY))
        else:
            policy.insert(0, rng.randrange(ASSOCIATIVITY), line=rng.randrange(64))
    snapshot = policy.capture(0)
    before = policy.victim(0)
    # Perturb, then restore: the victim decision must come back.
    for way in range(ASSOCIATIVITY):
        policy.insert(0, way, line=way)
    restored = _make_policy(name)
    restored.restore(0, snapshot)
    assert restored.victim(0) == before


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_way_validation(name: str) -> None:
    policy = _make_policy(name)
    with pytest.raises(SimulationError):
        policy.touch(0, ASSOCIATIVITY)
    with pytest.raises(SimulationError):
        policy.lock(0, -1)


# ----------------------------------------------------------------------
# Cache integration
# ----------------------------------------------------------------------


def _tiny_cache(policy: str = "lru"):
    config = CacheConfig(
        size_bytes=2 * 32 * 4,
        associativity=2,
        line_size=32,
        latency=1,
        name="l1",
        replacement_policy=policy,
    )
    stats = StatsRegistry()
    return SetAssociativeCache(config, stats), stats


def test_lines_locked_counts_first_lock_transitions_only() -> None:
    """Regression: a second owner on a resident line must not double-count.

    Pre-fix, ``lock_line`` bumped ``lines_locked`` once per *owner*, so a
    line shared by two epochs inflated the occupancy statistic even though
    only one line was pinned.
    """
    cache, stats = _tiny_cache()
    cache.access(0)
    cache.lock_line(0, owner=1)
    cache.lock_line(0, owner=2)  # same line, second owner: no new lock
    assert stats.value("l1.lines_locked") == 1
    cache.access(4096)
    cache.lock_line(4096, owner=1)
    assert stats.value("l1.lines_locked") == 2


def test_unknown_policy_rejected_at_config_time() -> None:
    with pytest.raises(ConfigurationError):
        CacheConfig(
            size_bytes=1024,
            associativity=2,
            line_size=32,
            latency=1,
            name="l1",
            replacement_policy="random",
        )


@pytest.mark.parametrize("policy", TIMING_POLICY_NAMES)
def test_cache_runs_under_every_timing_policy(policy: str) -> None:
    cache, stats = _tiny_cache(policy)
    for address in (0, 64, 128, 0, 192, 256, 64):
        cache.access(address)
    assert stats.value("l1.hits") + stats.value("l1.misses") == 7
    assert stats.value("l1.misses") >= 5  # five distinct lines were touched


def test_policy_changes_the_job_content_address() -> None:
    member = quick_fp_suite().members[0]
    base = SimJob(fmc_hash(), member, 1_000, 1)
    arc = SimJob(fmc_hash().with_policy("arc"), member, 1_000, 1)
    assert job_key(base) != job_key(arc)
    # with_policy is identity-preserving for the default.
    assert job_key(SimJob(fmc_hash().with_policy("lru"), member, 1_000, 1)) == job_key(base)


def test_policy_changes_the_request_coalescing_key() -> None:
    base = JobRequest(figure="fig7")
    assert JobRequest(figure="fig7", policy="arc").key() != base.key()
    # None means the LRU default: both spellings coalesce.
    assert JobRequest(figure="fig7", policy="lru").key() == base.key()
    with pytest.raises(ConfigurationError):
        JobRequest(figure="fig7", policy="opt").normalized()  # offline only
    with pytest.raises(ConfigurationError):
        member = quick_fp_suite().members[0]
        JobRequest(cases=(SimJob(fmc_hash(), member, 1_000, 1),), policy="arc")


def test_request_policy_survives_the_wire() -> None:
    request = JobRequest(figure="fig7", policy="2q")
    assert JobRequest.from_dict(request.to_dict()) == request
    assert JobRequest.from_dict({"figure": "fig7"}).policy is None  # old payloads


# ----------------------------------------------------------------------
# Lazy sets
# ----------------------------------------------------------------------

#: 8 sets x 2 ways: small enough that random streams fill, evict and fully
#: lock sets.
_LAZY_CONFIG = CacheConfig(size_bytes=8 * 2 * 32, associativity=2, line_size=32, latency=1)

_lines = st.integers(min_value=0, max_value=47)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("access"), _lines),
        st.tuples(st.just("lock"), _lines, st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("unlock"), st.integers(min_value=0, max_value=3)),
    ),
    max_size=120,
)


def _lazy_cache(policy: str) -> SetAssociativeCache:
    return SetAssociativeCache(
        replace(_LAZY_CONFIG, replacement_policy=policy), next_use=_oracle
    )


@pytest.mark.parametrize("policy", POLICY_NAMES)
@given(warm=st.lists(_lines, max_size=40), restored=st.booleans(), operations=_operations)
@settings(max_examples=40, deadline=None)
def test_lazy_sets_behave_like_eagerly_created_sets(policy, warm, restored, operations):
    """A cache whose sets appear on first touch answers every access and lock
    exactly like one whose sets were all created up front, and never evicts a
    locked line."""
    source = _lazy_cache(policy)
    for line in warm:
        source.access(line * 32)
    state = source.capture()
    lazy, eager = _lazy_cache(policy), _lazy_cache(policy)
    if restored:
        lazy.restore(state)
        eager.restore(state)
        assert eager.capture() == state  # every set created now, from the snapshot
    else:
        eager.capture()  # every set created now, fresh
    owners = {}  # line -> owners holding a lock on it
    for operation in operations:
        if operation[0] == "access":
            address = operation[1] * 32
            result = lazy.access(address)
            assert result == eager.access(address)
            assert result.evicted_line not in owners
        elif operation[0] == "lock":
            _, line, owner = operation
            result = lazy.lock_line(line * 32, owner)
            assert result == eager.lock_line(line * 32, owner)
            if result.locked:
                owners.setdefault(line, set()).add(owner)
        else:
            owner = operation[1]
            assert lazy.unlock_owner(owner) == eager.unlock_owner(owner)
            for line in list(owners):
                owners[line].discard(owner)
                if not owners[line]:
                    del owners[line]
    for line in owners:
        assert lazy.is_locked(line * 32) and lazy.is_resident(line * 32)
    assert lazy.capture() == eager.capture()


def test_restored_hierarchies_copy_on_write() -> None:
    """Driving one hierarchy restored from a memo entry changes neither the
    entry nor a second hierarchy restored from it."""
    trace = generate_member_trace(list(quick_int_suite())[0], 400, seed=TEST_SEED)
    fast.clear_warm_memo()
    try:
        driven, idle = MemoryHierarchy(), MemoryHierarchy()
        fast.warm_hierarchy(driven, trace.regions)
        fast.warm_hierarchy(idle, trace.regions)
        (entry,) = fast._WARM_MEMO.values()
        before = tuple(tuple(level) for level in entry)
        # Hits, fills and evictions in warm sets, plus a lock.
        for region in trace.regions:
            for offset in range(0, 64 * 1024, 32):
                driven.access(region.base_address + offset)
        driven.lock_l1_line(trace.regions[0].base_address, owner=1)
        assert (driven.l1.capture(), driven.l2.capture()) != before
        assert (idle.l1.capture(), idle.l2.capture()) == before
        assert tuple(tuple(level) for level in entry) == before
    finally:
        fast.clear_warm_memo()


@pytest.mark.parametrize("policy", TIMING_POLICY_NAMES)
def test_overlapping_footprints_fall_back_to_the_reference_replay(policy: str) -> None:
    """Overlapping footprints defeat the closed form; the fall-back replays
    the reference warm-up and the restored state equals it set for set."""
    default = MemoryHierarchyConfig()
    config = MemoryHierarchyConfig(
        l1=replace(default.l1, replacement_policy=policy),
        l2=replace(default.l2, size_bytes=64 * 1024, replacement_policy=policy),
    )
    regions = (
        RegionFootprint("low", 4096, 48 * 1024, 1.0, "stream"),
        RegionFootprint("high", 4096 + 16 * 1024, 48 * 1024, 3.0, "random"),
    )
    footprints = sorted(regions, key=lambda region: region.access_density)
    assert fast._warm_cache_state(footprints, config.l1) is None
    fast.clear_warm_memo()
    try:
        reference = MemoryHierarchy(config)
        reference.warm_up_regions(regions)
        warmed = MemoryHierarchy(config)
        fast.warm_hierarchy(warmed, regions)
        assert warmed.l1.capture() == reference.l1.capture()
        assert warmed.l2.capture() == reference.l2.capture()
    finally:
        fast.clear_warm_memo()


def test_sets_are_created_only_when_touched(monkeypatch) -> None:
    """Building and warming the default hierarchy creates no set; N accesses
    create at most N sets per level."""
    created = []  # (policy object, set index) per created set
    for method in ("reset", "restore"):
        original = getattr(LruPolicy, method)

        def counting(self, set_index, *args, _original=original):
            created.append((self, set_index))
            return _original(self, set_index, *args)

        monkeypatch.setattr(LruPolicy, method, counting)

    def created_in(cache):
        return {index for policy, index in created if policy is cache.policy}

    trace = generate_member_trace(list(quick_int_suite())[0], 400, seed=TEST_SEED)
    fast.clear_warm_memo()
    try:
        hierarchy = MemoryHierarchy()
        fast.warm_hierarchy(hierarchy, trace.regions)
        assert not created_in(hierarchy.l1) and not created_in(hierarchy.l2)
        addresses = [region.base_address + 4096 * step for region in trace.regions
                     for step in range(5)]
        for address in addresses:
            hierarchy.access(address)
        for cache in (hierarchy.l1, hierarchy.l2):
            assert 0 < len(created_in(cache)) <= len(addresses)
    finally:
        fast.clear_warm_memo()

"""Tests for the LSQ policies: conventional, idealised central, and the ELSQ."""

from __future__ import annotations

import pytest

from repro.common.config import (
    DisambiguationModel,
    ELSQConfig,
    ERTConfig,
    ERTKind,
    LoadQueueScheme,
    SVWConfig,
)
from repro.common.stats import StatsRegistry
from repro.core import conventional as conventional_module
from repro.core import elsq as elsq_module
from repro.core.conventional import ConventionalLSQ, IdealCentralLSQ
from repro.core.elsq import EpochBasedLSQ
from repro.core.queues import StoreBuffer
from repro.core.records import Locality, LoadRecord, StoreRecord
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.configs import (
    fmc_central,
    fmc_hash,
    fmc_hash_rsac,
    fmc_hash_svw,
    fmc_line,
    ooo_64,
    ooo_64_svw,
)
from repro.sim.engine import engine_by_name
from repro.workloads.families import FAMILY_NAMES, family_suite
from repro.workloads.suite import generate_member_trace


def make_store(
    seq,
    address,
    *,
    decode=0,
    addr_ready=5,
    data_ready=6,
    commit=1000,
    locality=Locality.HIGH,
    epoch=None,
    migration=None,
):
    return StoreRecord(
        seq=seq,
        address=address,
        size=8,
        decode_cycle=decode,
        addr_ready_cycle=addr_ready,
        data_ready_cycle=data_ready,
        commit_cycle=commit,
        locality=locality,
        epoch_id=epoch,
        migration_cycle=migration,
    )


def make_load(seq, address, issue, *, locality=Locality.HIGH, epoch=None, migration=None):
    return LoadRecord(
        seq=seq,
        address=address,
        size=8,
        decode_cycle=0,
        issue_cycle=issue,
        locality=locality,
        epoch_id=epoch,
        migration_cycle=migration,
    )


@pytest.fixture
def env():
    stats = StatsRegistry()
    hierarchy = MemoryHierarchy(stats=stats)
    return stats, hierarchy


class TestConventionalLSQ:
    def test_forwarding_beats_cache(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(stats, hierarchy)
        policy.store_issued(make_store(1, 0x100))
        outcome = policy.load_issued(make_load(2, 0x100, issue=20))
        assert outcome.forwarded
        assert outcome.latency <= 2
        assert stats.value("lsq.forwarded_loads") == 1

    def test_cache_access_when_no_store_matches(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(stats, hierarchy)
        outcome = policy.load_issued(make_load(2, 0x2000, issue=20))
        assert not outcome.forwarded
        assert outcome.latency >= hierarchy.config.l1.latency
        assert stats.value("cache.accesses") == 1

    def test_forwarding_waits_for_store_data(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(stats, hierarchy)
        policy.store_issued(make_store(1, 0x100, data_ready=60))
        outcome = policy.load_issued(make_load(2, 0x100, issue=20))
        assert outcome.forwarded
        assert outcome.latency >= 40

    def test_violation_detected_for_unresolved_matching_store(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(stats, hierarchy)
        policy.store_issued(make_store(1, 0x100, addr_ready=90, data_ready=90))
        outcome = policy.load_issued(make_load(2, 0x100, issue=20))
        assert outcome.violation
        assert stats.value("lsq.violations") == 1

    def test_store_search_counters(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(stats, hierarchy)
        policy.store_issued(make_store(1, 0x100))
        policy.load_issued(make_load(2, 0x100, issue=20))
        assert stats.value("hl_sq.searches") == 1
        assert stats.value("hl_lq.searches") == 1

    def test_store_commit_writes_cache(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(stats, hierarchy)
        policy.store_committed(make_store(1, 0x100))
        assert stats.value("cache.store_writebacks") == 1

    def test_svw_variant_removes_load_queue_and_reexecutes(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(
            stats,
            hierarchy,
            load_queue_scheme=LoadQueueScheme.SVW_REEXECUTION,
            svw_config=SVWConfig(ssbf_index_bits=12),
        )
        # The store's address resolves only at cycle 90, after the load issued
        # at cycle 10: the load reads a stale cache value and must re-execute.
        store = make_store(1, 0x100, addr_ready=90, data_ready=90, commit=95)
        policy.store_issued(store)
        assert stats.value("hl_lq.searches") == 0
        load = make_load(2, 0x100, issue=10)
        outcome = policy.load_issued(load)
        assert not outcome.violation  # SVW repairs at commit instead of squashing
        policy.store_committed(store)
        load.commit_cycle = 100
        commit = policy.load_committed(load)
        assert commit.reexecuted
        assert commit.extra_latency >= 1
        assert stats.value("svw.reexecutions") == 1

    def test_wrong_path_accounting(self, env):
        stats, hierarchy = env
        policy = ConventionalLSQ(stats, hierarchy)
        policy.record_wrong_path_activity(wrong_path_loads=10, wrong_path_stores=4)
        assert stats.value("hl_sq.searches") == 10
        assert stats.value("hl_lq.searches") == 4


class TestIdealCentralLSQ:
    def test_low_locality_load_pays_round_trip(self, env):
        stats, hierarchy = env
        policy = IdealCentralLSQ(stats, hierarchy, round_trip_latency=8)
        hierarchy.warm_up([0x3000])  # make both accesses L1 hits
        near = policy.load_issued(make_load(2, 0x3000, issue=20))
        far = policy.load_issued(make_load(3, 0x3000, issue=30, locality=Locality.LOW, epoch=0))
        assert far.latency == near.latency + 8
        assert stats.value("network.round_trips") == 1

    def test_forwarding_from_any_store(self, env):
        stats, hierarchy = env
        policy = IdealCentralLSQ(stats, hierarchy)
        policy.store_issued(make_store(1, 0x100, locality=Locality.LOW, epoch=0, migration=10))
        outcome = policy.load_issued(make_load(2, 0x100, issue=20))
        assert outcome.forwarded


def elsq_policy(stats, hierarchy, **overrides) -> EpochBasedLSQ:
    config = ELSQConfig(**overrides) if overrides else ELSQConfig()
    return EpochBasedLSQ(config, stats, hierarchy)


class TestEpochBasedLSQ:
    def test_hl_load_forwards_locally_from_hl_store(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        policy.store_issued(make_store(1, 0x100))
        outcome = policy.load_issued(make_load(2, 0x100, issue=20))
        assert outcome.forwarded
        assert stats.value("hl_sq.searches") == 1
        assert stats.value("ert.lookups") == 0, "no live epochs, the ERT stays idle"

    def test_hl_load_finds_ll_store_through_ert_and_sqm(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        policy.epoch_opened(0, cycle=5)
        policy.store_issued(
            make_store(1, 0x100, locality=Locality.LOW, epoch=0, migration=10, addr_ready=12)
        )
        before = stats.value("ert.lookups")
        outcome = policy.load_issued(make_load(2, 0x100, issue=30))
        assert outcome.forwarded
        assert stats.value("ert.lookups") == before + 1
        assert stats.value("ll_sq.searches") == 1
        assert stats.value("sqm.accesses") >= 1
        assert stats.value("network.round_trips") == 0, "the SQM avoids the round trip"

    def test_without_sqm_the_global_forward_costs_a_round_trip(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy, store_queue_mirror=False)
        policy.epoch_opened(0, cycle=5)
        policy.store_issued(
            make_store(1, 0x100, locality=Locality.LOW, epoch=0, migration=10, addr_ready=12)
        )
        outcome = policy.load_issued(make_load(2, 0x100, issue=30))
        assert outcome.forwarded
        assert stats.value("network.round_trips") == 1
        assert outcome.latency >= 8

    def test_sqm_forward_is_faster_than_round_trip(self, env):
        stats, hierarchy = env
        with_sqm = elsq_policy(StatsRegistry(), hierarchy)
        without_sqm = elsq_policy(StatsRegistry(), hierarchy, store_queue_mirror=False)
        for policy in (with_sqm, without_sqm):
            policy.epoch_opened(0, cycle=5)
            policy.store_issued(
                make_store(1, 0x100, locality=Locality.LOW, epoch=0, migration=10, addr_ready=12)
            )
        fast = with_sqm.load_issued(make_load(2, 0x100, issue=30))
        slow = without_sqm.load_issued(make_load(2, 0x100, issue=30))
        assert fast.latency < slow.latency

    def test_ll_load_local_epoch_forwarding_is_cheap(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        policy.epoch_opened(3, cycle=5)
        policy.store_issued(
            make_store(1, 0x100, locality=Locality.LOW, epoch=3, migration=10, addr_ready=12)
        )
        outcome = policy.load_issued(
            make_load(2, 0x100, issue=40, locality=Locality.LOW, epoch=3, migration=15)
        )
        assert outcome.forwarded
        assert outcome.latency <= 4
        assert stats.value("elsq.local_ll_forwards") == 1

    def test_ll_load_cache_access_pays_round_trip(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        policy.epoch_opened(3, cycle=5)
        outcome = policy.load_issued(
            make_load(2, 0x8000, issue=40, locality=Locality.LOW, epoch=3, migration=15)
        )
        assert not outcome.forwarded
        assert outcome.latency >= hierarchy.config.l1.latency + 8
        assert stats.value("network.round_trips") == 1

    def test_false_positive_counted_for_aliased_hash(self, env):
        stats, hierarchy = env
        policy = EpochBasedLSQ(
            ELSQConfig(ert=ERTConfig(kind=ERTKind.HASH, hash_bits=4)), stats, hierarchy
        )
        policy.epoch_opened(0, cycle=5)
        policy.store_issued(
            make_store(1, 0x100, locality=Locality.LOW, epoch=0, migration=10, addr_ready=12)
        )
        aliased_address = 0x100 + (16 << 3)
        outcome = policy.load_issued(make_load(2, aliased_address, issue=30))
        assert not outcome.forwarded
        assert stats.value("ert.false_positives") == 1

    def test_committed_epoch_no_longer_searched(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        policy.epoch_opened(0, cycle=5)
        policy.store_issued(
            make_store(1, 0x100, locality=Locality.LOW, epoch=0, migration=10, addr_ready=12, commit=50)
        )
        policy.epoch_committed(0, cycle=50)
        outcome = policy.load_issued(make_load(2, 0x100, issue=100))
        assert not outcome.forwarded

    def test_rsac_removes_load_ert_and_global_store_searches(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy, disambiguation=DisambiguationModel.RESTRICTED_SAC)
        assert not policy._needs_load_ert
        policy.epoch_opened(0, cycle=5)
        policy.store_issued(
            make_store(1, 0x900, locality=Locality.LOW, epoch=0, migration=10, addr_ready=8)
        )
        # The store searched only its local epoch LQ, never the Load-ERT.
        assert stats.value("ll_lq.searches") == 1
        assert stats.value("ert.lookups") == 0

    def test_full_model_store_does_global_load_search(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        policy.epoch_opened(0, cycle=5)
        policy.store_issued(
            make_store(1, 0x900, locality=Locality.LOW, epoch=0, migration=10, addr_ready=40)
        )
        assert stats.value("ert.lookups") == 1
        assert stats.value("hl_lq.searches") == 1

    def test_hl_store_only_searches_hl_lq(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        policy.store_issued(make_store(1, 0x900))
        assert stats.value("hl_lq.searches") == 1
        assert stats.value("ll_lq.searches") == 0

    def test_svw_scheme_counts_reexecutions_instead_of_violations(self, env):
        stats, hierarchy = env
        policy = elsq_policy(
            stats, hierarchy, load_queue_scheme=LoadQueueScheme.SVW_REEXECUTION,
            svw=SVWConfig(ssbf_index_bits=12),
        )
        store = make_store(1, 0x100, addr_ready=90, data_ready=90, commit=95)
        policy.store_issued(store)
        load = make_load(2, 0x100, issue=20)
        outcome = policy.load_issued(load)
        assert not outcome.violation
        policy.store_committed(store)
        load.commit_cycle = 120
        commit = policy.load_committed(load)
        assert commit.reexecuted
        assert stats.value("hl_lq.searches") == 0

    def test_line_based_lock_squash_for_ll_resolved_store(self, env):
        stats, hierarchy = env
        policy = EpochBasedLSQ(
            ELSQConfig(ert=ERTConfig(kind=ERTKind.LINE)), stats, hierarchy
        )
        policy.epoch_opened(0, cycle=0)
        l1 = hierarchy.config.l1
        set_stride = l1.num_sets * l1.line_size
        # Fill one L1 set with locked lines from address-known insertions.
        for way in range(l1.associativity):
            policy.store_issued(
                make_store(
                    way + 1,
                    way * set_stride,
                    locality=Locality.LOW,
                    epoch=0,
                    migration=10,
                    addr_ready=5,
                )
            )
        # A store resolving its address inside the LL-LSQ now conflicts.
        outcome = policy.store_issued(
            make_store(
                99,
                l1.associativity * set_stride,
                locality=Locality.LOW,
                epoch=0,
                migration=10,
                addr_ready=50,
            )
        )
        assert outcome.squash_penalty > 0
        assert stats.value("elsq.lock_squashes") == 1

    def test_line_based_lock_stall_for_hl_inserted_store(self, env):
        stats, hierarchy = env
        policy = EpochBasedLSQ(
            ELSQConfig(ert=ERTConfig(kind=ERTKind.LINE)), stats, hierarchy
        )
        policy.epoch_opened(0, cycle=0)
        l1 = hierarchy.config.l1
        set_stride = l1.num_sets * l1.line_size
        for way in range(l1.associativity):
            policy.store_issued(
                make_store(way + 1, way * set_stride, locality=Locality.LOW, epoch=0,
                           migration=10, addr_ready=5)
            )
        outcome = policy.store_issued(
            make_store(99, l1.associativity * set_stride, locality=Locality.LOW, epoch=0,
                       migration=20, addr_ready=5)
        )
        assert outcome.insertion_stall > 0
        assert stats.value("elsq.lock_stalls") == 1

    def test_introspection_properties(self, env):
        stats, hierarchy = env
        policy = elsq_policy(stats, hierarchy)
        assert policy.uses_store_queue_mirror
        assert not policy.uses_line_locking
        assert policy.disambiguation is DisambiguationModel.FULL
        assert policy.ert is not None


# ----------------------------------------------------------------------
# The unresolved-store index against an exhaustive scan, in real machines
# ----------------------------------------------------------------------

class _BruteForceCheckedStoreBuffer(StoreBuffer):
    """A store buffer that checks every unresolved-store answer by full scan."""

    queries = 0
    unresolved = 0

    def __init__(self) -> None:
        super().__init__()
        self._every_store = []

    def add(self, store):
        super().add(store)
        self._every_store.append(store)

    def any_unresolved_older_store(self, before_seq, after_seq, cycle):
        answer = super().any_unresolved_older_store(before_seq, after_seq, cycle)
        expected = any(
            after_seq < store.seq < before_seq
            and store.in_flight_at(cycle)
            and not store.address_known_at(cycle)
            for store in self._every_store
        )
        assert answer == expected, (before_seq, after_seq, cycle)
        type(self).queries += 1
        type(self).unresolved += answer
        return answer


_PAPER_MACHINES = (ooo_64, ooo_64_svw, fmc_central, fmc_line, fmc_hash, fmc_hash_svw, fmc_hash_rsac)


@pytest.mark.parametrize("machine_factory", _PAPER_MACHINES, ids=lambda factory: factory.__name__)
def test_unresolved_store_index_matches_brute_force_in_every_machine(monkeypatch, machine_factory):
    """Every family x 3 seeds: each answer the LSQ receives equals a full scan."""
    monkeypatch.setattr(elsq_module, "StoreBuffer", _BruteForceCheckedStoreBuffer)
    monkeypatch.setattr(conventional_module, "StoreBuffer", _BruteForceCheckedStoreBuffer)
    monkeypatch.setattr(_BruteForceCheckedStoreBuffer, "queries", 0)
    monkeypatch.setattr(_BruteForceCheckedStoreBuffer, "unresolved", 0)
    machine = machine_factory()
    engine = engine_by_name("fast")
    for family_index, family in enumerate(FAMILY_NAMES):
        members = list(family_suite(family))
        for seed_index, seed in enumerate((2008, 7, 123)):
            member = members[(family_index + seed_index) % len(members)]
            engine.run(machine, generate_member_trace(member, 1_500, seed=seed))
    assert _BruteForceCheckedStoreBuffer.queries > 0
    assert _BruteForceCheckedStoreBuffer.unresolved > 0

"""Conventional and idealised central load/store queues.

These are the two baselines the paper compares ELSQ against:

* :class:`ConventionalLSQ` -- the associative load/store queue of the OoO-64
  baseline processor (and of the OoO-64-SVW variant, where the load queue is
  replaced by Store-Vulnerability-Window re-execution).
* :class:`IdealCentralLSQ` -- the "single-cycle, unlimited-size centralized
  Load Store Queue" of Figure 7, located in the Cache Processor of the large
  window machine: high-locality operations see it in one cycle, but loads that
  execute in the Memory Processor pay the CP↔MP round trip for every search
  and cache access.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import LoadQueueScheme, SVWConfig
from repro.common.stats import StatsRegistry
from repro.core.policy import CommitOutcome, LoadOutcome, LSQPolicy, StoreOutcome
from repro.core.queues import StoreBuffer
from repro.core.records import Locality, LoadRecord, StoreRecord
from repro.core.svw import StoreVulnerabilityWindow
from repro.memory.hierarchy import MemoryHierarchy

#: Store→load forwarding latency inside a single associative queue.
_FORWARD_LATENCY = 1


class ConventionalLSQ(LSQPolicy):
    """The age-indexed associative LSQ of a conventional out-of-order core.

    Loads search the store queue at issue; stores search the load queue for
    ordering violations at issue (unless the load queue has been removed in
    favour of SVW re-execution); stores write the data cache at commit.
    """

    def __init__(
        self,
        stats: StatsRegistry,
        hierarchy: MemoryHierarchy,
        load_queue_scheme: LoadQueueScheme = LoadQueueScheme.ASSOCIATIVE,
        svw_config: Optional[SVWConfig] = None,
    ) -> None:
        super().__init__(stats)
        self.hierarchy = hierarchy
        self.load_queue_scheme = load_queue_scheme
        self._stores = StoreBuffer()
        self._svw: Optional[StoreVulnerabilityWindow] = None
        if load_queue_scheme is LoadQueueScheme.SVW_REEXECUTION:
            self._svw = StoreVulnerabilityWindow(
                svw_config if svw_config is not None else SVWConfig(), stats
            )
            self.wrong_path_searches_load_queue = False

    # -- issue-time events ------------------------------------------------

    def load_issued(self, load: LoadRecord) -> LoadOutcome:
        self.stats.bump("hl_sq.searches")
        self._stores.advance(load.decode_cycle)
        forwarding = self._stores.find_any_forwarding(
            load.address, load.size, load.seq, load.issue_cycle
        )
        forwarding_seq = forwarding.seq if forwarding is not None else -1
        load.unresolved_older_store_at_issue = self._stores.any_unresolved_older_store(
            load.seq, forwarding_seq, load.issue_cycle
        )
        violating = self._stores.find_violating_store(
            load.address, load.size, load.seq, forwarding_seq, load.issue_cycle
        )
        violation = violating is not None and self._svw is None
        if violation:
            self.stats.bump("lsq.violations")

        if forwarding is not None:
            load.forwarded_from = forwarding.seq
            self.stats.bump("lsq.forwarded_loads")
            data_wait = max(0, forwarding.data_ready_cycle - load.issue_cycle)
            return LoadOutcome(
                latency=_FORWARD_LATENCY + data_wait,
                forwarded=True,
                forwarding_store_seq=forwarding.seq,
                violation=violation,
            )

        self.stats.bump("cache.accesses")
        access = self.hierarchy.access(load.address)
        return LoadOutcome(latency=access.latency, violation=violation)

    def store_issued(self, store: StoreRecord) -> StoreOutcome:
        self._stores.add(store)
        if self._svw is None:
            self.stats.bump("hl_lq.searches")
        return StoreOutcome()

    # -- commit-time events -----------------------------------------------

    def load_committed(self, load: LoadRecord) -> CommitOutcome:
        if self._svw is None:
            return CommitOutcome()
        decision = self._svw.check_load(load)
        if not decision.reexecute:
            return CommitOutcome()
        self.stats.bump("cache.accesses")
        self.stats.bump("cache.reexecution_accesses")
        access = self.hierarchy.access(load.address)
        return CommitOutcome(extra_latency=access.latency, reexecuted=True)

    def store_committed(self, store: StoreRecord) -> CommitOutcome:
        outcome = super().store_committed(store)
        if self._svw is not None:
            self._svw.store_committed(store)
        return outcome


class IdealCentralLSQ(LSQPolicy):
    """Unlimited, single-cycle centralized LSQ located in the Cache Processor.

    Used as the "Central LSQ" reference point of Figure 7.  High-locality
    memory operations see a one-cycle associative search over the whole
    window; operations executing in the Memory Processor pay the interconnect
    round trip for both queue searches and cache accesses because the queue
    and the L1 live on the Cache Processor side.
    """

    def __init__(
        self,
        stats: StatsRegistry,
        hierarchy: MemoryHierarchy,
        round_trip_latency: int = 8,
    ) -> None:
        super().__init__(stats)
        self.hierarchy = hierarchy
        self.round_trip_latency = round_trip_latency
        self._stores = StoreBuffer()

    def load_issued(self, load: LoadRecord) -> LoadOutcome:
        self.stats.bump("central_lsq.searches")
        self._stores.advance(load.decode_cycle)
        remote = load.locality is Locality.LOW
        remote_penalty = self.round_trip_latency if remote else 0
        if remote:
            self.stats.bump("network.round_trips")

        forwarding = self._stores.find_any_forwarding(
            load.address, load.size, load.seq, load.issue_cycle
        )
        forwarding_seq = forwarding.seq if forwarding is not None else -1
        load.unresolved_older_store_at_issue = self._stores.any_unresolved_older_store(
            load.seq, forwarding_seq, load.issue_cycle
        )
        violating = self._stores.find_violating_store(
            load.address, load.size, load.seq, forwarding_seq, load.issue_cycle
        )
        violation = violating is not None
        if violation:
            self.stats.bump("lsq.violations")

        if forwarding is not None:
            load.forwarded_from = forwarding.seq
            self.stats.bump("lsq.forwarded_loads")
            data_wait = max(0, forwarding.data_ready_cycle - load.issue_cycle)
            return LoadOutcome(
                latency=_FORWARD_LATENCY + data_wait + remote_penalty,
                forwarded=True,
                forwarding_store_seq=forwarding.seq,
                violation=violation,
            )

        self.stats.bump("cache.accesses")
        access = self.hierarchy.access(load.address)
        return LoadOutcome(latency=access.latency + remote_penalty, violation=violation)

    def store_issued(self, store: StoreRecord) -> StoreOutcome:
        self._stores.add(store)
        self.stats.bump("central_lsq.searches")
        if store.locality is Locality.LOW:
            self.stats.bump("network.round_trips")
        return StoreOutcome()

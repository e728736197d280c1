"""Content-search structures over in-flight stores.

The one-pass timing models process instructions in program order, so by the
time a load issues every older store's timing (address-ready, data-ready,
commit, migration) is already known.  :class:`StoreBuffer` exploits this: it
records every store and answers the three questions every LSQ organisation
asks, *as of a given cycle*:

* "Which is the youngest older store to the same bytes that was still
  buffered in queue X when the load issued?" (store→load forwarding, per
  residency class: HL-SQ, a particular LL epoch, or anywhere),
* "Was there an older store whose address was still unknown when the load
  issued?" (ordering violations and the no-unresolved-store filter), and
* "Does an older in-flight store to the same bytes exist whose address was
  unknown at load issue?" (the actual violation that forces a squash or a
  re-execution).

The forwarding and violation searches are indexed by 8-byte word (the
workloads issue word-aligned 4- or 8-byte accesses) so each query touches
only the handful of stores that ever wrote that word.

The address-independent second question is answered from an index of the
stores that may still be unresolved, pruned against a *frontier*.  Loads
reach the LSQ in program order, so their decode cycles never decrease; the
caller advances the frontier to each load's decode cycle (:meth:`advance`)
before asking about that load, and asks at its issue cycle, which is never
below it.  A store whose address is known at the frontier (and therefore at
every later query cycle) can never answer "unresolved" again and is dropped;
its commit cycle is no earlier than its address-ready cycle, so stores that
have left the queue by the frontier go with it.  The pruning is exact, so the
query still considers every older in-flight store, and it scans only the few
stores whose addresses are genuinely late.  A frontier that moves backwards
or a query below it would void that argument, so both raise
:class:`~repro.common.errors.SimulationError`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.common.errors import SimulationError
from repro.core.records import StoreRecord

#: Number of low address bits ignored by the word index.
_WORD_SHIFT = 3

#: Per-word history depth.  Forwarding and violation checks only ever need
#: the youngest few stores to a word; older ones are dead for disambiguation.
_PER_WORD_HISTORY = 32


class StoreBuffer:
    """Timing-aware record of every store processed so far."""

    def __init__(self) -> None:
        self._by_word: Dict[int, Deque[StoreRecord]] = {}
        #: Stores whose address is still unknown at the frontier.
        self._unresolved: List[StoreRecord] = []
        self._frontier = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Insertion and the frontier
    # ------------------------------------------------------------------

    def add(self, store: StoreRecord) -> None:
        """Record a processed store."""
        word = store.address >> _WORD_SHIFT
        bucket = self._by_word.get(word)
        if bucket is None:
            bucket = deque(maxlen=_PER_WORD_HISTORY)
            self._by_word[word] = bucket
        bucket.append(store)
        if store.addr_ready_cycle > self._frontier:
            self._unresolved.append(store)
        self._count += 1

    def advance(self, cycle: int) -> None:
        """Move the frontier to ``cycle``: no later query asks about an earlier cycle.

        Drops every indexed store whose address is known by ``cycle``.
        """
        if cycle < self._frontier:
            raise SimulationError(
                f"store-buffer frontier moved backwards from {self._frontier} to {cycle}"
            )
        self._frontier = cycle
        unresolved = self._unresolved
        if unresolved:
            self._unresolved = [store for store in unresolved if store.addr_ready_cycle > cycle]

    # ------------------------------------------------------------------
    # Forwarding searches
    # ------------------------------------------------------------------

    def find_hl_forwarding(
        self, address: int, size: int, before_seq: int, cycle: int
    ) -> Optional[StoreRecord]:
        """Youngest older store to the same bytes resident in the HL-SQ at ``cycle``."""
        return self._find(
            address,
            size,
            before_seq,
            cycle,
            residency=lambda store: store.hl_resident_at(cycle),
        )

    def find_epoch_forwarding(
        self,
        epoch_id: int,
        address: int,
        size: int,
        before_seq: int,
        cycle: int,
        epoch_commit_cycle: Optional[int] = None,
    ) -> Optional[StoreRecord]:
        """Youngest older matching store resident in epoch ``epoch_id`` at ``cycle``."""
        return self._find(
            address,
            size,
            before_seq,
            cycle,
            residency=lambda store: store.epoch_id == epoch_id
            and store.ll_resident_at(cycle, epoch_commit_cycle),
        )

    def find_any_forwarding(
        self, address: int, size: int, before_seq: int, cycle: int
    ) -> Optional[StoreRecord]:
        """Youngest older matching store still in flight anywhere at ``cycle``.

        Used by the conventional and idealised central LSQs, which keep a
        single store queue.
        """
        return self._find(
            address,
            size,
            before_seq,
            cycle,
            residency=lambda store: store.in_flight_at(cycle),
        )

    def _find(self, address, size, before_seq, cycle, residency) -> Optional[StoreRecord]:
        bucket = self._by_word.get(address >> _WORD_SHIFT)
        if not bucket:
            return None
        for store in reversed(bucket):
            if store.seq >= before_seq:
                continue
            if not store.overlaps(address, size):
                continue
            if not store.address_known_at(cycle):
                # The matching store's address was still unknown when the load
                # issued; the load cannot forward from it (this is the
                # violation case, reported separately).
                continue
            # The youngest matching store forwards only if it is resident in
            # the searched structure; an older matching store must not forward
            # (it holds a stale value), so stop at the first address match.
            return store if residency(store) else None
        return None

    # ------------------------------------------------------------------
    # Violation and unresolved-store checks
    # ------------------------------------------------------------------

    def find_violating_store(
        self, address: int, size: int, before_seq: int, after_seq: int, cycle: int
    ) -> Optional[StoreRecord]:
        """Return an older overlapping store whose address was unknown at ``cycle``.

        Only stores with ``after_seq < seq < before_seq`` are considered: a
        store older than the one the load forwarded from cannot supersede the
        forwarded value.  A non-``None`` result means the load obtained stale
        data and the window must be repaired (squash or re-execution).
        """
        bucket = self._by_word.get(address >> _WORD_SHIFT)
        if not bucket:
            return None
        for store in reversed(bucket):
            if store.seq >= before_seq or store.seq <= after_seq:
                continue
            if not store.overlaps(address, size):
                continue
            if store.in_flight_at(cycle) and not store.address_known_at(cycle):
                return store
        return None

    def any_unresolved_older_store(self, before_seq: int, after_seq: int, cycle: int) -> bool:
        """Whether any store with ``after_seq < seq < before_seq`` had an unknown address at ``cycle``.

        This is the predicate of the no-unresolved-store filter
        ("CheckStores"): it is address independent, so it must consider every
        in-flight older store, not just those writing the load's word.  Only
        the stores still unresolved at the frontier can qualify, and
        ``cycle`` must not lie below the frontier.
        """
        if cycle < self._frontier:
            raise SimulationError(
                f"unresolved-store query at cycle {cycle} below the frontier {self._frontier}"
            )
        for store in self._unresolved:
            if (
                after_seq < store.seq < before_seq
                and store.decode_cycle <= cycle < store.commit_cycle
                and store.addr_ready_cycle > cycle
            ):
                return True
        return False

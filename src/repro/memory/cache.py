"""A set-associative cache with line locking.

:class:`SetAssociativeCache` models tag state (which lines are resident), a
pluggable lock-aware replacement policy (``CacheConfig.replacement_policy``,
resolved through :func:`repro.memory.replacement.create_policy`) and the
per-line *lock* bookkeeping required by the line-based Epoch Resolution
Table.  It does not model data contents -- the simulator is trace driven --
only residency, which is all the timing and filtering models need.

Sets are lazy.  A cache holds one replacement-policy object for all of its
sets, and a set's tag row and replacement state are created the first time
an access, probe or lock touches the set: fresh, or copied from the snapshot
the cache was last :meth:`~SetAssociativeCache.restore`-d from.  Building a
2 MB L2 therefore costs nothing per set, a restore only records the snapshot
(which is shared, never written), and a short simulation pays for the few
hundred sets it touches rather than for all of them.
:meth:`~SetAssociativeCache.capture` reports every set, creating those not
yet touched.

Locking semantics (Section 3.4 of the paper):

* A line may be locked by one or more *owners* (epochs).  A locked line is
  never chosen as a replacement victim.
* Locking a non-resident line first allocates it ("the data need not be
  available").  If every way of the target set is already locked the
  allocation fails and the caller must stall or squash -- the cache reports
  this as a :class:`LockResult` with ``conflict=True``.
* When an epoch commits, :meth:`SetAssociativeCache.unlock_owner` clears all
  of its locks in one sweep, mirroring how clearing the epoch's ERT column
  implicitly unlocks its lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.config import CacheConfig
from repro.common.errors import SimulationError
from repro.common.stats import StatsRegistry
from repro.memory.replacement import create_policy


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a cache access."""

    hit: bool
    evicted_line: Optional[int]
    #: True when the access wanted to allocate but every way was locked.
    allocation_blocked: bool = False


@dataclass(frozen=True)
class LockResult:
    """Outcome of a lock request from the line-based ERT."""

    locked: bool
    conflict: bool
    allocated: bool


#: Shared outcome singletons for the two result shapes that carry no
#: per-access payload; the access path is hot enough that allocating a fresh
#: frozen dataclass per hit shows up in profiles.
_HIT_RESULT = AccessResult(hit=True, evicted_line=None)
_MISS_RESULT = AccessResult(hit=False, evicted_line=None)

#: A whole-cache snapshot: element ``i`` is set ``i``'s ``(tags, policy
#: snapshot)``, the tags a tuple of the resident line number (or ``None``)
#: per way.  :meth:`SetAssociativeCache.capture` returns a tuple; any
#: sequence with this indexing restores, including one that computes its
#: elements on first request.
CacheState = Sequence[Tuple[Tuple[Optional[int], ...], Any]]


class SetAssociativeCache:
    """Tag-state model of one cache level.

    Parameters
    ----------
    config:
        Geometry and latency of the cache.
    stats:
        Optional statistics registry; access counters are recorded under
        ``{name}.hits``, ``{name}.misses``, ``{name}.evictions`` and
        ``{name}.lock_conflicts``.
    next_use:
        Future-reuse oracle required by the ``opt`` replacement policy
        (see :class:`repro.memory.replacement.OptPolicy`); ignored by every
        online policy.  Constructing an ``opt`` cache without it raises
        :class:`~repro.common.errors.ConfigurationError`.
    """

    def __init__(
        self,
        config: CacheConfig,
        stats: Optional[StatsRegistry] = None,
        *,
        next_use: Optional[Callable[[int], float]] = None,
    ) -> None:
        self.config = config
        self._stats = stats if stats is not None else StatsRegistry()
        #: When False, accesses update tag/replacement state but record no
        #: statistics (used by the functional cache warm-up pass).
        self.stats_enabled = True
        self._num_sets = config.num_sets
        self._line_shift = config.line_size.bit_length() - 1
        # Counter names are fixed per cache; formatting them on every access
        # would dominate the (very hot) tag-probe path.
        self._hits_name = f"{config.name}.hits"
        self._misses_name = f"{config.name}.misses"
        self._evictions_name = f"{config.name}.evictions"
        self._lock_conflicts_name = f"{config.name}.lock_conflicts"
        self._lines_locked_name = f"{config.name}.lines_locked"
        #: The replacement state of every set (one object for the cache).
        self.policy = create_policy(
            config.replacement_policy, config.associativity, next_use=next_use
        )
        #: per-set mapping from way index to resident line number (tag+index);
        #: ``None`` until the set is first touched (see :meth:`_create_set`).
        self._tags: List[Optional[List[Optional[int]]]] = [None] * self._num_sets
        #: The snapshot untouched sets start from (``None``: never filled).
        self._base: Optional[CacheState] = None
        #: line number -> set of lock owners.
        self._lock_owners: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # Address arithmetic
    # ------------------------------------------------------------------

    def _bump(self, name: str, amount: int = 1) -> None:
        if self.stats_enabled:
            self._stats.bump(name, amount)

    def line_number(self, address: int) -> int:
        """Return the global line number containing ``address``."""
        return address >> self._line_shift

    def set_index(self, address: int) -> int:
        """Return the set index for ``address``."""
        return self.line_number(address) % self._num_sets

    # ------------------------------------------------------------------
    # Residency queries and accesses
    # ------------------------------------------------------------------

    def is_resident(self, address: int) -> bool:
        """Whether the line containing ``address`` is currently resident."""
        return self._find_way(address) is not None

    def access(self, address: int, allocate_on_miss: bool = True) -> AccessResult:
        """Access ``address``: record a hit with the policy, allocate on a miss.

        When ``allocate_on_miss`` is false the access only probes the tags
        (used for residency checks that must not disturb state).
        """
        line = address >> self._line_shift
        set_index = line % self._num_sets
        row = self._tags[set_index]
        if row is None:
            row = self._create_set(set_index)
        try:
            way = row.index(line)
        except ValueError:
            way = -1
        if way >= 0:
            self.policy.touch(set_index, way)
            if self.stats_enabled:
                self._stats.bump(self._hits_name)
            return _HIT_RESULT
        if self.stats_enabled:
            self._stats.bump(self._misses_name)
        if not allocate_on_miss:
            return _MISS_RESULT
        evicted, blocked = self._allocate(line, set_index)
        return AccessResult(hit=False, evicted_line=evicted, allocation_blocked=blocked)

    def probe(self, address: int) -> bool:
        """Probe the tags without updating replacement state or allocating."""
        return self._find_way(address) is not None

    # ------------------------------------------------------------------
    # Whole-cache snapshots
    # ------------------------------------------------------------------

    def capture(self) -> Tuple[Tuple[Tuple[Optional[int], ...], Any], ...]:
        """Snapshot every set's tags and replacement state (a :data:`CacheState`).

        Creates every set not yet touched.  Locks are not captured: the
        snapshot describes residency and replacement order only.
        """
        tags = self._tags
        policy = self.policy
        snapshot = []
        for set_index in range(self._num_sets):
            row = tags[set_index]
            if row is None:
                row = self._create_set(set_index)
            snapshot.append((tuple(row), policy.capture(set_index)))
        return tuple(snapshot)

    def restore(self, state: CacheState) -> None:
        """Reset the cache to ``state``, dropping every lock.

        Nothing is copied here: the cache keeps a reference to ``state`` and
        copies one set out of it when the set is first touched, so ``state``
        must not change afterwards and is never written by the cache.
        """
        if len(state) != self._num_sets:
            raise SimulationError(
                f"a {len(state)}-set snapshot cannot restore the "
                f"{self._num_sets}-set cache {self.config.name!r}"
            )
        self._base = state
        self._tags = [None] * self._num_sets
        self.policy.clear()
        self._lock_owners.clear()

    # ------------------------------------------------------------------
    # Line locking (line-based ERT support)
    # ------------------------------------------------------------------

    def lock_line(self, address: int, owner: int) -> LockResult:
        """Lock the line containing ``address`` on behalf of ``owner``.

        Allocates the line if it is not resident.  Returns ``conflict=True``
        without changing any state when allocation is required but every way
        of the set is locked.
        """
        line = self.line_number(address)
        set_index = self.set_index(address)
        way = self._find_way(address)
        allocated = False
        if way is None:
            if self.policy.all_locked(set_index):
                self._bump(self._lock_conflicts_name)
                return LockResult(locked=False, conflict=True, allocated=False)
            evicted, blocked = self._allocate(line, set_index)
            if blocked:
                self._bump(self._lock_conflicts_name)
                return LockResult(locked=False, conflict=True, allocated=False)
            way = self._find_way(address)
            allocated = True
            if way is None:
                raise SimulationError("allocation succeeded but the line is not resident")
        # The counter tracks *distinct* lines locked (the locked_line_count
        # semantics): bump only on the unlocked -> locked transition, not
        # when a resident locked line merely gains another owner.
        first_lock = line not in self._lock_owners
        owners = self._lock_owners.setdefault(line, set())
        owners.add(owner)
        self.policy.lock(set_index, way)
        if first_lock:
            self._bump(self._lines_locked_name)
        return LockResult(locked=True, conflict=False, allocated=allocated)

    def unlock_owner(self, owner: int) -> int:
        """Release every lock held by ``owner``; return the number released."""
        released = 0
        for line, owners in list(self._lock_owners.items()):
            if owner in owners:
                owners.discard(owner)
                released += 1
                if not owners:
                    del self._lock_owners[line]
                    self._unlock_way_for_line(line)
        return released

    def is_locked(self, address: int) -> bool:
        """Whether the line containing ``address`` is locked by any owner."""
        return bool(self._lock_owners.get(self.line_number(address)))

    def locked_line_count(self) -> int:
        """Number of distinct lines currently locked."""
        return len(self._lock_owners)

    def set_fully_locked(self, address: int) -> bool:
        """Whether every way of the set containing ``address`` is locked."""
        return self.policy.all_locked(self.set_index(address))

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _create_set(self, set_index: int) -> List[Optional[int]]:
        """Create ``set_index``'s tag row and replacement state; return the row."""
        base = self._base
        if base is None:
            row: List[Optional[int]] = [None] * self.config.associativity
            self.policy.reset(set_index)
        else:
            tags, snapshot = base[set_index]
            row = list(tags)
            self.policy.restore(set_index, snapshot)
        self._tags[set_index] = row
        return row

    def _find_way(self, address: int) -> Optional[int]:
        line = address >> self._line_shift
        set_index = line % self._num_sets
        row = self._tags[set_index]
        if row is None:
            row = self._create_set(set_index)
        try:
            return row.index(line)
        except ValueError:
            return None

    def _allocate(self, line: int, set_index: int) -> Tuple[Optional[int], bool]:
        """Allocate ``line`` in its (already created) set; return (evicted_line, blocked)."""
        policy = self.policy
        victim_way = policy.victim(set_index)
        if victim_way is None:
            return None, True
        set_tags = self._tags[set_index]
        evicted = set_tags[victim_way]
        if evicted is not None and self.stats_enabled:
            self._stats.bump(self._evictions_name)
            # A victim is never locked, so no lock bookkeeping to clean up.
        set_tags[victim_way] = line
        policy.insert(set_index, victim_way, line)
        return evicted, False

    def _unlock_way_for_line(self, line: int) -> None:
        set_index = line % self._num_sets
        set_tags = self._tags[set_index]
        if set_tags is not None:
            for way, resident in enumerate(set_tags):
                if resident == line:
                    self.policy.unlock(set_index, way)
                    return
        # The line may have been evicted only if it was never resident while
        # locked; reaching here indicates an accounting bug.
        raise SimulationError(f"locked line {line} is not resident in set {set_index}")

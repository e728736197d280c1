"""Lock-aware replacement policies for set-associative caches.

The line-based Epoch Resolution Table (Section 3.4 of the paper) requires
that every line referenced by an address-known low-locality memory
instruction stay resident in the L1 until its epoch commits.  The paper
implements this by letting the replacement algorithm skip locked lines:

    "Locking cache lines does not involve any additional structures as the
    replacement algorithm can take care of everything.  It will only replace
    lines for which there are no active bits in the ERT."

The paper evaluates LRU only, but the locking contract is a property of the
*replacement interface*, not of any one algorithm: any policy that never
returns a locked way from :meth:`ReplacementPolicy.victim` satisfies it.
This module therefore defines the abstract lock-aware contract, a registry
of implementations (:data:`POLICY_NAMES`, :func:`create_policy`) and six
policies:

* ``lru`` -- :class:`LruPolicy`, the paper's policy (bit-identical to the
  original single-policy implementation);
* ``fifo`` -- :class:`FifoPolicy`, eviction in insertion order;
* ``lfu`` -- :class:`LfuPolicy`, least frequently used with deterministic
  lowest-way tie-breaking;
* ``2q`` -- :class:`TwoQPolicy`, a probationary FIFO (A1) feeding a
  protected LRU list (Am) on reuse;
* ``arc`` -- :class:`ArcPolicy`, adaptive replacement with per-set ghost
  lists of recently evicted line numbers;
* ``opt`` -- :class:`OptPolicy`, Belady's offline optimum.  It needs a
  future-reuse oracle, so it is only constructible where one exists (the
  miss-ratio-curve profiler's two-pass sweep, :mod:`repro.memory.mrc`);
  :func:`create_policy` without an oracle rejects it.

One policy object serves every set of a cache: each method takes the set
index.  A set has no decision state until :meth:`ReplacementPolicy.reset`
(fresh) or :meth:`ReplacementPolicy.restore` (from a snapshot) creates it,
which the cache does the first time it touches the set, so a cache pays
only for the sets a simulation uses.  Every policy shares one locking
substrate: ``lock``/``unlock`` record per-set locked ways and every
``victim`` implementation skips them symmetrically, returning ``None`` when
the whole set is locked (the caller falls back to the paper's stall /
squash handling).  ``capture``/``restore`` snapshot one set's decision
state so the fast engine's warm-up memo can replay it exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Type

from repro.common.errors import ConfigurationError, SimulationError

#: Every registered policy name, in registry order.
POLICY_NAMES: Tuple[str, ...] = ("lru", "fifo", "lfu", "2q", "arc", "opt")

#: The policies a *timing* cache can run online.  ``opt`` needs future
#: knowledge of the reference stream, which only the two-pass miss-ratio
#: profiler has; an online simulation asking for it is a configuration
#: error, not a silent approximation.
TIMING_POLICY_NAMES: Tuple[str, ...] = ("lru", "fifo", "lfu", "2q", "arc")

#: The locked ways of a set with no lock.
_NO_LOCKS: frozenset = frozenset()


class ReplacementPolicy:
    """Lock-aware replacement state of every set of one cache.

    Way indices run from 0 to ``associativity - 1``.  Subclasses implement
    the per-set decision state (:meth:`reset`, :meth:`touch`,
    :meth:`insert`, :meth:`victim`, and :meth:`capture`/:meth:`restore`
    unless one flat list per set holds it) kept in ``_sets``; the locking
    substrate is shared so the "never evict a locked way" contract cannot
    drift per policy.  The decision methods
    require the set to exist (see :meth:`reset`); the locking methods do
    not.
    """

    __slots__ = ("associativity", "_sets", "_locked")

    #: Registry name of the policy (set per subclass).
    name = "abstract"

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ConfigurationError(f"associativity must be positive, got {associativity}")
        #: Number of ways per set.
        self.associativity = associativity
        #: set index -> that set's decision state, absent until created.
        self._sets: Dict[int, Any] = {}
        #: set index -> the set's locked ways, absent while none is locked.
        self._locked: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # Decision state (per policy)
    # ------------------------------------------------------------------

    def reset(self, set_index: int) -> None:
        """Create (or re-create) ``set_index`` in its never-filled state."""
        raise NotImplementedError

    def touch(self, set_index: int, way: int) -> None:
        """Record a hit on ``way`` (a reuse event)."""
        raise NotImplementedError

    def insert(self, set_index: int, way: int, line: Optional[int] = None) -> None:
        """Record a fill of ``way`` with ``line`` (a miss-allocation event).

        ``line`` is the global line number being installed; policies that
        key history by line identity (ARC's ghost lists, OPT's oracle
        lookups) need it, the others ignore it.
        """
        raise NotImplementedError

    def victim(self, set_index: int) -> Optional[int]:
        """Return the way to evict, never a locked one.

        Returns ``None`` when every way is locked, which callers must treat
        as a replacement conflict (the paper stalls insertion or squashes).
        """
        raise NotImplementedError

    def capture(self, set_index: int) -> Any:
        """Snapshot one set's decision state (lock bits are warm-up-free).

        This default and :meth:`restore`'s suit a set state that is one
        flat list; policies with richer state override both.
        """
        return tuple(self._sets[set_index])

    def restore(self, set_index: int, state: Any) -> None:
        """Create ``set_index`` from a snapshot produced by :meth:`capture`."""
        self._sets[set_index] = list(state)

    def clear(self) -> None:
        """Drop every set's decision state and every lock."""
        self._sets.clear()
        self._locked.clear()

    # ------------------------------------------------------------------
    # Locking substrate (shared)
    # ------------------------------------------------------------------

    def lock(self, set_index: int, way: int) -> None:
        """Protect ``way`` of ``set_index`` against replacement."""
        self._validate_way(way)
        self._locked.setdefault(set_index, set()).add(way)

    def unlock(self, set_index: int, way: int) -> None:
        """Allow ``way`` of ``set_index`` to be replaced again."""
        self._validate_way(way)
        locked = self._locked.get(set_index)
        if locked is not None:
            locked.discard(way)
            if not locked:
                del self._locked[set_index]

    def is_locked(self, set_index: int, way: int) -> bool:
        """Whether ``way`` of ``set_index`` is currently locked."""
        self._validate_way(way)
        return way in self._locked.get(set_index, _NO_LOCKS)

    def all_locked(self, set_index: int) -> bool:
        """Whether every way of ``set_index`` is locked (no victim available)."""
        return len(self._locked.get(set_index, _NO_LOCKS)) == self.associativity

    def _validate_way(self, way: int) -> None:
        if not 0 <= way < self.associativity:
            raise SimulationError(
                f"way {way} out of range for a {self.associativity}-way set"
            )


class LruPolicy(ReplacementPolicy):
    """Recency ordering of the ways of each set (the paper's policy).

    A set's state is its recency stack, a list of way indices with the most
    recently used first; the victim is the least recently used unlocked
    way.
    """

    __slots__ = ()

    name = "lru"

    def reset(self, set_index: int) -> None:
        self._sets[set_index] = list(range(self.associativity))

    def touch(self, set_index: int, way: int) -> None:
        """Mark ``way`` as the most recently used.

        This is the hottest method of the cache model, so the bounds check
        rides on the list search itself (a zero-cost ``try`` in the common
        case) instead of a separate validation pass per access.
        """
        order = self._sets[set_index]
        try:
            order.remove(way)
        except ValueError:
            self._validate_way(way)
            raise
        order.insert(0, way)

    def insert(self, set_index: int, way: int, line: Optional[int] = None) -> None:
        """A fill is a recency event: identical to :meth:`touch` for LRU."""
        self.touch(set_index, way)

    def victim(self, set_index: int) -> Optional[int]:
        locked = self._locked.get(set_index, _NO_LOCKS)
        for way in reversed(self._sets[set_index]):
            if way not in locked:
                return way
        return None


class FifoPolicy(ReplacementPolicy):
    """First-in first-out: evict in fill order, hits never reorder.

    A set's state is its fill queue, oldest (next victim) way first.
    """

    __slots__ = ()

    name = "fifo"

    def reset(self, set_index: int) -> None:
        self._sets[set_index] = list(range(self.associativity))

    def touch(self, set_index: int, way: int) -> None:
        self._validate_way(way)  # hits do not reorder a FIFO

    def insert(self, set_index: int, way: int, line: Optional[int] = None) -> None:
        queue = self._sets[set_index]
        try:
            queue.remove(way)
        except ValueError:
            self._validate_way(way)
            raise
        queue.append(way)

    def victim(self, set_index: int) -> Optional[int]:
        locked = self._locked.get(set_index, _NO_LOCKS)
        for way in self._sets[set_index]:
            if way not in locked:
                return way
        return None


class LfuPolicy(ReplacementPolicy):
    """Least frequently used, lowest-way tie-break.

    A set's state is one reference count per way.  Counts reset on fill (a
    new line does not inherit its way's history).  Ties pick the lowest way
    index so the policy is a pure function of the access sequence.
    """

    __slots__ = ()

    name = "lfu"

    def reset(self, set_index: int) -> None:
        self._sets[set_index] = [0] * self.associativity

    def touch(self, set_index: int, way: int) -> None:
        self._validate_way(way)
        self._sets[set_index][way] += 1

    def insert(self, set_index: int, way: int, line: Optional[int] = None) -> None:
        self._validate_way(way)
        self._sets[set_index][way] = 1

    def victim(self, set_index: int) -> Optional[int]:
        locked = self._locked.get(set_index, _NO_LOCKS)
        best: Optional[int] = None
        best_count = 0
        for way, count in enumerate(self._sets[set_index]):
            if way in locked:
                continue
            if best is None or count < best_count:
                best = way
                best_count = count
        return best


class TwoQPolicy(ReplacementPolicy):
    """Simplified 2Q: a probationary FIFO (A1) and a protected LRU list (Am).

    A set's state is the pair ``(a1, am)``: ``a1`` oldest way first, ``am``
    most recently used way first.  Fills enter A1; a hit promotes the way
    into Am (or refreshes its Am recency).  Victims drain A1 in FIFO order
    first -- lines touched only once never displace the protected working
    set -- then fall back to the LRU end of Am.
    """

    __slots__ = ()

    name = "2q"

    def reset(self, set_index: int) -> None:
        self._sets[set_index] = (list(range(self.associativity)), [])

    def touch(self, set_index: int, way: int) -> None:
        self._validate_way(way)
        a1, am = self._sets[set_index]
        if way in a1:
            a1.remove(way)
        else:
            am.remove(way)
        am.insert(0, way)

    def insert(self, set_index: int, way: int, line: Optional[int] = None) -> None:
        self._validate_way(way)
        a1, am = self._sets[set_index]
        if way in a1:
            a1.remove(way)
        else:
            am.remove(way)
        a1.append(way)

    def victim(self, set_index: int) -> Optional[int]:
        locked = self._locked.get(set_index, _NO_LOCKS)
        a1, am = self._sets[set_index]
        for way in a1:
            if way not in locked:
                return way
        for way in reversed(am):
            if way not in locked:
                return way
        return None

    def capture(self, set_index: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        a1, am = self._sets[set_index]
        return (tuple(a1), tuple(am))

    def restore(self, set_index: int, state: Tuple[Tuple[int, ...], Tuple[int, ...]]) -> None:
        a1, am = state
        self._sets[set_index] = (list(a1), list(am))


class _ArcSet:
    """One set's ARC state (see :class:`ArcPolicy`)."""

    __slots__ = ("t1", "t2", "b1", "b2", "p", "lines")

    def __init__(self, t1, t2, b1, b2, p, lines) -> None:
        #: live lists: index 0 is the LRU end, the last element the MRU end.
        self.t1: List[int] = list(t1)
        self.t2: List[int] = list(t2)
        #: ghost lists of evicted line numbers, oldest first, <= assoc long.
        self.b1: List[int] = list(b1)
        self.b2: List[int] = list(b2)
        #: target length of T1 (integer for exact reproducibility).
        self.p: int = p
        #: line currently installed in each way (None = never filled).
        self.lines: List[Optional[int]] = list(lines)


class ArcPolicy(ReplacementPolicy):
    """Adaptive replacement (ARC) over each set, with per-set ghost lists.

    T1 holds ways whose line was referenced once since fill, T2 ways whose
    line was reused; B1/B2 are bounded ghost lists of *line numbers*
    recently evicted from T1/T2.  A miss whose line is remembered by a
    ghost list grows the corresponding live list's target size (the
    integer ``p`` = T1's target length), so the set adapts between
    recency-favouring and frequency-favouring behaviour.
    """

    __slots__ = ()

    name = "arc"

    def reset(self, set_index: int) -> None:
        assoc = self.associativity
        self._sets[set_index] = _ArcSet(range(assoc), (), (), (), 0, [None] * assoc)

    def touch(self, set_index: int, way: int) -> None:
        self._validate_way(way)
        state = self._sets[set_index]
        if way in state.t1:
            state.t1.remove(way)
        else:
            state.t2.remove(way)
        state.t2.append(way)

    def insert(self, set_index: int, way: int, line: Optional[int] = None) -> None:
        self._validate_way(way)
        state = self._sets[set_index]
        evicted = state.lines[way]
        if way in state.t1:
            state.t1.remove(way)
            ghost = state.b1
        else:
            state.t2.remove(way)
            ghost = state.b2
        if evicted is not None:
            ghost.append(evicted)
            if len(ghost) > self.associativity:
                ghost.pop(0)
        if line is not None and line in state.b1:
            state.p = min(
                self.associativity, state.p + max(1, len(state.b2) // max(1, len(state.b1)))
            )
            state.b1.remove(line)
            state.t2.append(way)
        elif line is not None and line in state.b2:
            state.p = max(0, state.p - max(1, len(state.b1) // max(1, len(state.b2))))
            state.b2.remove(line)
            state.t2.append(way)
        else:
            state.t1.append(way)
        state.lines[way] = line

    def victim(self, set_index: int) -> Optional[int]:
        locked = self._locked.get(set_index, _NO_LOCKS)
        state = self._sets[set_index]
        prefer_t1 = len(state.t1) > state.p or not state.t2
        lists = (state.t1, state.t2) if prefer_t1 else (state.t2, state.t1)
        for ways in lists:
            for way in ways:
                if way not in locked:
                    return way
        return None

    def capture(self, set_index: int) -> Tuple[Any, ...]:
        state = self._sets[set_index]
        return (
            tuple(state.t1),
            tuple(state.t2),
            tuple(state.b1),
            tuple(state.b2),
            state.p,
            tuple(state.lines),
        )

    def restore(self, set_index: int, state: Tuple[Any, ...]) -> None:
        self._sets[set_index] = _ArcSet(*state)


class OptPolicy(ReplacementPolicy):
    """Belady's optimum: evict the line whose next reference is farthest.

    A set's state is the line installed in each way.  Needs a *future-reuse
    oracle* ``next_use(line) -> position`` returning the stream position of
    the line's next reference (``float("inf")`` when the line is never
    referenced again).  The miss-ratio-curve profiler builds the oracle in
    a first pass over the recorded columnar trace; an online timing
    simulation has no such pass, so :func:`create_policy` refuses ``"opt"``
    without an oracle.
    """

    __slots__ = ("_next_use",)

    name = "opt"

    def __init__(self, associativity: int, next_use: Callable[[int], float]) -> None:
        super().__init__(associativity)
        self._next_use = next_use

    def reset(self, set_index: int) -> None:
        self._sets[set_index] = [None] * self.associativity

    def touch(self, set_index: int, way: int) -> None:
        self._validate_way(way)  # the oracle already knows the future

    def insert(self, set_index: int, way: int, line: Optional[int] = None) -> None:
        self._validate_way(way)
        self._sets[set_index][way] = line

    def victim(self, set_index: int) -> Optional[int]:
        locked = self._locked.get(set_index, _NO_LOCKS)
        best: Optional[int] = None
        best_distance = -1.0
        for way, line in enumerate(self._sets[set_index]):
            if way in locked:
                continue
            distance = float("inf") if line is None else self._next_use(line)
            if distance > best_distance:
                best = way
                best_distance = distance
        return best


_POLICY_CLASSES: Dict[str, Type[ReplacementPolicy]] = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "lfu": LfuPolicy,
    "2q": TwoQPolicy,
    "arc": ArcPolicy,
    "opt": OptPolicy,
}


def validate_policy_name(name: str, *, timing_only: bool = False) -> str:
    """Validate a policy name against the registry and return it.

    ``timing_only`` additionally rejects ``"opt"``, which cannot run in an
    online timing simulation (no future-reuse oracle exists there).
    """
    allowed = TIMING_POLICY_NAMES if timing_only else POLICY_NAMES
    if name not in allowed:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; expected one of {', '.join(allowed)}"
        )
    return name


def create_policy(
    name: str,
    associativity: int,
    *,
    next_use: Optional[Callable[[int], float]] = None,
) -> ReplacementPolicy:
    """Build the named policy's replacement state for one cache.

    ``next_use`` is the future-reuse oracle ``opt`` requires; passing it
    for any other policy is harmless (they ignore the future).
    """
    validate_policy_name(name)
    if name == "opt":
        if next_use is None:
            raise ConfigurationError(
                "replacement policy 'opt' needs a future-reuse oracle; it is "
                "only available offline (the miss-ratio-curve profiler), not "
                "in online timing simulations"
            )
        return OptPolicy(associativity, next_use)
    return _POLICY_CLASSES[name](associativity)

"""Miss-ratio-curve (MRC) profiler: miss rate versus cache size per policy.

A miss-ratio curve answers the first-order question of any cache study:
how fast does the miss rate fall as capacity grows, and how much of that
fall does the *replacement policy* capture?  The profiler replays the
load/store line stream of a recorded trace -- straight off the columnar
form, no timing model -- through :class:`~repro.memory.cache.SetAssociativeCache`
instances of increasing capacity, once per registered replacement policy,
and reports one curve per (workload, policy) pair.

Belady's OPT rides the same machinery: a first pass over the columnar
address stream computes each access's next-use position, the forward pass
maintains a ``line -> next use`` map, and :class:`~repro.memory.replacement.OptPolicy`
consumes it as its oracle.  Because every registered policy is a per-set
demand policy over the same set mapping, per-set Belady is the lower bound:
OPT's miss ratio is <= every other policy's on the same trace at every size
-- an invariant :func:`policy_sweep` checks on every curve it emits.

The profiler is an experiment like any figure: ``policy-sweep`` in
:data:`repro.sim.experiments.EXPERIMENTS`, so the CLI
(``python -m repro policy-sweep``), the service (``repro submit
policy-sweep``) and the load harness all address it by name.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.config import CacheConfig
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.stats import StatsRegistry
from repro.isa.trace import Trace
from repro.memory.cache import SetAssociativeCache
from repro.memory.replacement import POLICY_NAMES, validate_policy_name

#: Artifact schema version of the MRC document (bump on breaking changes).
MRC_SCHEMA_VERSION = 1

#: Cache sizes the default sweep profiles, smallest first.
DEFAULT_SIZES_BYTES: Tuple[int, ...] = tuple(kb * 1024 for kb in (1, 2, 4, 8, 16, 32))

#: Geometry shared by every profiled size (the paper's L1 line/assoc).
DEFAULT_ASSOCIATIVITY = 4
DEFAULT_LINE_SIZE = 32


def line_stream(trace: Trace, line_size: int = DEFAULT_LINE_SIZE) -> List[int]:
    """The global line number of every load/store, in program order.

    Read straight from the columnar form -- no instruction objects are
    materialised, which is what makes the two OPT passes cheap.
    """
    from repro.isa.columns import CODE_LOAD, CODE_STORE

    columns = trace.columns()
    iclass = columns.iclass
    address = columns.address
    shift = line_size.bit_length() - 1
    return [
        address[seq] >> shift
        for seq in range(len(iclass))
        if iclass[seq] == CODE_LOAD or iclass[seq] == CODE_STORE
    ]


def next_use_positions(lines: Sequence[int]) -> List[float]:
    """For each access, the position of the line's next reference.

    The backward pass of the OPT oracle: ``result[i]`` is the smallest
    ``j > i`` with ``lines[j] == lines[i]``, or ``float("inf")`` when the
    line is never referenced again.
    """
    result: List[float] = [float("inf")] * len(lines)
    last_seen: Dict[int, int] = {}
    for position in range(len(lines) - 1, -1, -1):
        line = lines[position]
        next_position = last_seen.get(line)
        if next_position is not None:
            result[position] = next_position
        last_seen[line] = position
    return result


def simulate_miss_ratio(
    lines: Sequence[int],
    policy: str,
    size_bytes: int,
    *,
    associativity: int = DEFAULT_ASSOCIATIVITY,
    line_size: int = DEFAULT_LINE_SIZE,
) -> float:
    """Replay ``lines`` through one single-level cache; return its miss ratio.

    Uses the timing model's own :class:`SetAssociativeCache` (not a private
    reimplementation), so the curve reflects exactly the replacement
    behaviour the simulated machines exhibit.  For ``policy="opt"`` the
    two-pass future-reuse oracle is built here -- the one place in the tree
    where the future is knowable.
    """
    validate_policy_name(policy)
    config = CacheConfig(
        size_bytes=size_bytes,
        associativity=associativity,
        line_size=line_size,
        latency=0,
        name="mrc",
        replacement_policy=policy,
    )
    next_use = None
    if policy == "opt":
        next_of = next_use_positions(lines)
        upcoming: Dict[int, float] = {}
        for position in range(len(lines) - 1, -1, -1):
            upcoming[lines[position]] = position

        def next_use(line: int, _upcoming=upcoming) -> float:
            return _upcoming.get(line, float("inf"))

    stats = StatsRegistry()
    cache = SetAssociativeCache(config, stats, next_use=next_use)
    if not lines:
        return 0.0
    if policy == "opt":
        for position, line in enumerate(lines):
            # Advance the oracle *before* the access: every cached line's
            # entry then points at its next reference strictly after now,
            # which is exactly the future Belady compares victims on.
            upcoming[line] = next_of[position]
            cache.access(line * line_size)
    else:
        for line in lines:
            cache.access(line * line_size)
    misses = stats.value("mrc.misses")
    return misses / len(lines)


def miss_ratio_curve(
    lines: Sequence[int],
    policy: str,
    sizes_bytes: Sequence[int] = DEFAULT_SIZES_BYTES,
    *,
    associativity: int = DEFAULT_ASSOCIATIVITY,
    line_size: int = DEFAULT_LINE_SIZE,
) -> List[float]:
    """The policy's miss ratio at each profiled size, smallest first."""
    if not sizes_bytes:
        raise ConfigurationError("the MRC sweep needs at least one cache size")
    return [
        simulate_miss_ratio(
            lines, policy, size, associativity=associativity, line_size=line_size
        )
        for size in sizes_bytes
    ]


def profile_trace(
    trace: Trace,
    policies: Sequence[str] = POLICY_NAMES,
    sizes_bytes: Sequence[int] = DEFAULT_SIZES_BYTES,
    *,
    associativity: int = DEFAULT_ASSOCIATIVITY,
    line_size: int = DEFAULT_LINE_SIZE,
) -> Dict[str, object]:
    """One trace's MRC document: per-policy curves plus stream statistics."""
    lines = line_stream(trace, line_size)
    curves = {
        policy: miss_ratio_curve(
            lines, policy, sizes_bytes, associativity=associativity, line_size=line_size
        )
        for policy in policies
    }
    return {
        "trace": trace.name,
        "accesses": len(lines),
        "unique_lines": len(set(lines)),
        "miss_ratios": curves,
    }


def check_opt_lower_bound(document: Dict[str, object]) -> None:
    """Assert OPT's curve lower-bounds every policy's (per profiled trace).

    Per-set Belady with the true future is optimal among the per-set demand
    policies the registry contains; a violation means the oracle or a
    policy's bookkeeping is wrong, so it fails loudly rather than shipping
    a bogus artifact.
    """
    curves = document["miss_ratios"]
    opt = curves.get("opt")
    if opt is None:
        return
    for policy, curve in curves.items():
        for opt_ratio, ratio in zip(opt, curve):
            if opt_ratio > ratio + 1e-12:
                raise SimulationError(
                    f"OPT miss ratio {opt_ratio:.6f} exceeds {policy}'s "
                    f"{ratio:.6f} on trace {document['trace']!r}"
                )


def policy_sweep(context) -> Dict[str, object]:
    """The ``policy-sweep`` experiment: one MRC artifact per workload family.

    Profiles every member of every workload family at the campaign's trace
    length and seed, under every registered policy (including OPT -- this
    offline replay is where the future-reuse oracle exists).  The per-family
    ``curves`` block averages the members' miss ratios, giving the
    family-level miss-rate-versus-size picture the scenario matrix sweeps.
    """
    from repro.workloads.families import FAMILY_NAMES, family_suite
    from repro.workloads.suite import generate_member_trace

    sizes = list(DEFAULT_SIZES_BYTES)
    families: Dict[str, Dict[str, object]] = {}
    for family in FAMILY_NAMES:
        members = {}
        for member in family_suite(family).members:
            trace = generate_member_trace(
                member, context.instructions_per_workload, seed=context.seed
            )
            document = profile_trace(trace)
            check_opt_lower_bound(document)
            members[member.name] = document
        curves = {
            policy: [
                sum(member["miss_ratios"][policy][index] for member in members.values())
                / len(members)
                for index in range(len(sizes))
            ]
            for policy in POLICY_NAMES
        }
        families[family] = {"members": members, "curves": curves}
    return {
        "artifact": "repro-mrc",
        "schema_version": MRC_SCHEMA_VERSION,
        "instructions": context.instructions_per_workload,
        "seed": context.seed,
        "line_size": DEFAULT_LINE_SIZE,
        "associativity": DEFAULT_ASSOCIATIVITY,
        "sizes_bytes": sizes,
        "policies": list(POLICY_NAMES),
        "families": families,
    }

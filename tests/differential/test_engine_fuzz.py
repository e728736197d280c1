"""Property/fuzz tests for the engine pair.

Deterministic pseudo-random draws (no external fuzzing dependency) sample
machine configurations and workload descriptions inside their validation
envelopes and push each draw through both engines, asserting

* bit-identical results (the differential property, on configurations no
  hand-written matrix would think of),
* structural invariants that must hold for *any* valid machine: IPC bounded
  by the commit width, every counter non-negative, cycle counts positive,
  and
* monotonicity: simulating a longer prefix of the same instruction stream
  can never finish earlier than a shorter prefix.

Every drawn machine also gets a random core geometry (ROB, widths and
load/store queues; for the FMC, HL-LSQ sizes that differ from its cache
processor's own queues), drawn from a separate generator so the workload and
machine draws stay as they were.  The ``fast`` engine drives both machine
kinds with one loop, so the geometry draws are what show a conventional
machine and an FMC reading their own queue sizes and wrong-path cap.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.common.config import CoreConfig, DisambiguationModel, ERTKind, LoadQueueScheme
from repro.isa.trace import Trace
from repro.sim.configs import (
    MachineConfig,
    MachineKind,
    fmc_central,
    fmc_elsq,
    ooo_64,
    ooo_64_svw,
)
from repro.sim.engine import engine_by_name
from repro.workloads.base import MemoryRegion, SyntheticWorkload, WorkloadParameters

#: Number of fuzz draws; each runs reference + fast once.
DRAWS = 10

INSTRUCTIONS = 900


def _draw_workload(rng: random.Random, index: int) -> WorkloadParameters:
    """A random workload description bounded by the validation rules."""
    load_fraction = rng.uniform(0.05, 0.4)
    store_fraction = rng.uniform(0.02, min(0.3, 0.95 - load_fraction))
    branch_fraction = rng.uniform(0.02, min(0.25, 0.98 - load_fraction - store_fraction))
    regions = [
        MemoryRegion(
            name="hot",
            size_bytes=rng.choice((8, 16, 32)) * 1024,
            weight=rng.uniform(0.3, 0.8),
            pattern=rng.choice(("stream", "random")),
        ),
        MemoryRegion(
            name="far",
            size_bytes=rng.choice((4, 8, 16)) * 1024 * 1024,
            weight=rng.uniform(0.01, 0.2),
            pattern=rng.choice(("stream", "random")),
            is_far=True,
        ),
    ]
    if rng.random() < 0.5:
        regions.append(
            MemoryRegion(
                name="warm",
                size_bytes=rng.choice((128, 256, 512)) * 1024,
                weight=rng.uniform(0.05, 0.4),
                pattern="random",
            )
        )
    return WorkloadParameters(
        name=f"fuzz_{index}",
        load_fraction=load_fraction,
        store_fraction=store_fraction,
        branch_fraction=branch_fraction,
        fp_fraction=rng.uniform(0.0, 0.3),
        regions=tuple(regions),
        chased_load_fraction=rng.uniform(0.0, 0.15),
        chased_store_fraction=rng.uniform(0.0, 0.05),
        forwarding_fraction=rng.uniform(0.0, 0.2),
        forwarding_distance_mean=rng.uniform(2.0, 24.0),
        miss_consumer_fraction=rng.uniform(0.0, 0.15),
        dependence_distance_mean=rng.uniform(2.0, 12.0),
        branch_mispredict_rate=rng.uniform(0.0, 0.08),
        mispredict_depends_on_miss_fraction=rng.uniform(0.0, 0.4),
        phase_length=rng.choice((0, 0, 500, 1500)),
        memory_phase_fraction=rng.uniform(0.2, 0.8),
        seed=rng.randrange(1_000),
    )


#: Queue sizes the geometry draws pick from (HL-LSQ and core queues alike).
_QUEUE_SIZES = (4, 6, 8, 12, 16, 24, 32, 48)


def _draw_core(geometry: random.Random) -> CoreConfig:
    """A random core geometry: ROB, load/store queues and widths."""
    return CoreConfig(
        fetch_width=geometry.choice((2, 3, 4, 6, 8)),
        issue_width=geometry.choice((2, 3, 4, 6, 8)),
        commit_width=geometry.choice((2, 3, 4, 6, 8)),
        rob_size=geometry.choice((16, 24, 32, 48, 64, 96, 128)),
        load_queue_entries=geometry.choice(_QUEUE_SIZES),
        store_queue_entries=geometry.choice(_QUEUE_SIZES),
    )


def _draw_machine(rng: random.Random, geometry: random.Random) -> MachineConfig:
    """A random valid machine with a random core geometry.

    ``rng`` picks the machine kind and LSQ organisation, ``geometry`` the
    core and queue sizes.  An FMC's cache processor gets load/store queue
    sizes unlike its HL-LSQ sizes, so a loop reading the wrong pair shows.
    """
    machine = _draw_organisation(rng)
    core = _draw_core(geometry)
    if machine.kind is MachineKind.CONVENTIONAL:
        return replace(machine, core=core)
    hl_load = geometry.choice(_QUEUE_SIZES)
    hl_store = geometry.choice(_QUEUE_SIZES)
    core = replace(
        core,
        load_queue_entries=geometry.choice([n for n in _QUEUE_SIZES if n != hl_load]),
        store_queue_entries=geometry.choice([n for n in _QUEUE_SIZES if n != hl_store]),
    )
    return replace(
        machine,
        fmc=replace(machine.fmc, cache_processor=core),
        elsq=replace(machine.elsq, hl_load_entries=hl_load, hl_store_entries=hl_store),
    )


def _draw_organisation(rng: random.Random) -> MachineConfig:
    """A random valid machine: conventional, SVW, central or an ELSQ variant."""
    choice = rng.random()
    if choice < 0.15:
        return ooo_64()
    if choice < 0.3:
        return ooo_64_svw(ssbf_index_bits=rng.choice((6, 8, 10, 12)))
    if choice < 0.4:
        return fmc_central()
    load_queue_scheme = rng.choice(
        (LoadQueueScheme.ASSOCIATIVE, LoadQueueScheme.SVW_REEXECUTION)
    )
    if load_queue_scheme is LoadQueueScheme.SVW_REEXECUTION:
        # SVW removes the load queue; restricted LAC would remove it twice.
        disambiguation = rng.choice(
            (DisambiguationModel.FULL, DisambiguationModel.RESTRICTED_SAC)
        )
    else:
        disambiguation = rng.choice(list(DisambiguationModel))
    return fmc_elsq(
        ert_kind=rng.choice((ERTKind.HASH, ERTKind.LINE)),
        hash_bits=rng.choice((6, 8, 10, 12)),
        store_queue_mirror=rng.random() < 0.5,
        disambiguation=disambiguation,
        load_queue_scheme=load_queue_scheme,
        ssbf_index_bits=rng.choice((8, 10)),
        epoch_load_entries=rng.choice((32, 64, 128)),
        epoch_store_entries=rng.choice((16, 32, 64)),
        num_epochs=rng.choice((2, 4, 8, 16, 32)),
        locality_threshold_cycles=rng.choice((5, 15, 30, 60, 90)),
    )


def _commit_width(machine: MachineConfig) -> int:
    if machine.kind is MachineKind.CONVENTIONAL:
        return machine.core.commit_width
    return machine.fmc.cache_processor.commit_width


@pytest.mark.parametrize("draw", range(DRAWS))
def test_fuzzed_configurations_are_identical_and_sane(draw: int) -> None:
    rng = random.Random(0xE15C0 + draw)
    workload = _draw_workload(rng, draw)
    machine = _draw_machine(rng, random.Random(0x6E0 + draw))
    trace = SyntheticWorkload(workload, seed=rng.randrange(10_000)).generate(INSTRUCTIONS)

    reference = engine_by_name("reference").run(machine, trace)
    fast = engine_by_name("fast").run(machine, trace)

    # Differential property: bit-identical results.
    assert fast.to_dict() == reference.to_dict(), (workload.name, machine.name)

    # Invariants that must hold for any valid machine/workload pair.
    assert fast.cycles >= 1
    assert fast.committed_instructions == INSTRUCTIONS
    assert fast.ipc <= _commit_width(machine)
    for name, value in fast.stats.counters.items():
        assert value >= 0, name
    if fast.high_locality_fraction is not None:
        assert 0.0 <= fast.high_locality_fraction <= 1.0
    if fast.mean_allocated_epochs is not None:
        assert fast.mean_allocated_epochs >= 0.0


@pytest.mark.parametrize("draw", range(3))
def test_cycles_are_monotone_in_trace_length(draw: int) -> None:
    """A longer prefix of the same stream never commits earlier."""
    rng = random.Random(0xCAFE + draw)
    workload = _draw_workload(rng, 100 + draw)
    machine = _draw_machine(rng, random.Random(0x6E0 + 100 + draw))
    full = SyntheticWorkload(workload, seed=13).generate(INSTRUCTIONS)
    fast = engine_by_name("fast")
    previous_cycles = 0
    for length in (INSTRUCTIONS // 3, 2 * INSTRUCTIONS // 3, INSTRUCTIONS):
        # Keep the region footprints: Trace.prefix drops them, and the cache
        # warm-up must see the same steady state for the comparison to mean
        # anything.
        prefix = Trace(full.instructions()[:length], name=full.name, regions=full.regions)
        result = fast.run(machine, prefix)
        assert result.cycles >= previous_cycles
        previous_cycles = result.cycles

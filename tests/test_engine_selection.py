"""Engine selection plumbing: registry, machine knob, keys, campaign flow.

The differential suite proves the engines *agree*; these tests pin how an
engine is chosen and how the choice propagates -- through
:class:`MachineConfig`, the simulator, job/request content addresses and the
campaign context -- so a selected engine can never be silently dropped on
the way to a simulation.
"""

from __future__ import annotations

import pytest
from _helpers import TEST_SEED

from repro.common.errors import ConfigurationError
from repro.exp.request import JobRequest
from repro.exp.runner import SimJob, job_key
from repro.sim.configs import fmc_hash, ooo_64
from repro.sim.engine import DEFAULT_ENGINE, engine_by_name, engine_names
from repro.sim.engine.fast import clear_warm_memo, warm_hierarchy
from repro.sim.experiments import campaign_context, fig7_sweep
from repro.sim.simulator import Simulator
from repro.workloads.suite import generate_member_trace, quick_int_suite


def test_registry_exposes_both_engines() -> None:
    assert engine_names() == ["fast", "reference"]
    assert engine_by_name("fast").name == "fast"
    assert engine_by_name("reference").name == "reference"
    assert DEFAULT_ENGINE == "fast"


def test_unknown_engine_raises_helpfully() -> None:
    with pytest.raises(ConfigurationError, match="unknown simulation engine"):
        engine_by_name("warp")


def test_machines_default_to_the_fast_engine() -> None:
    assert fmc_hash().engine == "fast"
    assert ooo_64().with_engine("reference").engine == "reference"


def test_simulator_routes_through_the_selected_engine() -> None:
    member = list(quick_int_suite())[0]
    trace = generate_member_trace(member, 600, seed=TEST_SEED)
    fast = Simulator(fmc_hash()).run_trace(trace)
    reference = Simulator(fmc_hash().with_engine("reference")).run_trace(trace)
    assert fast == reference
    with pytest.raises(ConfigurationError, match="unknown simulation engine"):
        Simulator(fmc_hash().with_engine("warp")).run_trace(trace)


def test_engine_is_part_of_the_job_content_address() -> None:
    member = list(quick_int_suite())[0]
    fast_key = job_key(SimJob(fmc_hash(), member, 1_000, 1))
    reference_key = job_key(SimJob(fmc_hash().with_engine("reference"), member, 1_000, 1))
    assert fast_key != reference_key


def test_engine_is_part_of_the_request_key() -> None:
    implicit = JobRequest(figure="fig7")
    explicit_default = JobRequest(figure="fig7", engine=DEFAULT_ENGINE)
    reference = JobRequest(figure="fig7", engine="reference")
    # Implicit and explicit defaults coalesce; a different engine does not.
    assert implicit.key() == explicit_default.key()
    assert implicit.key() != reference.key()
    # The knob round-trips over the wire.
    assert JobRequest.from_dict(reference.to_dict()) == reference


def test_case_batches_reject_the_engine_knob() -> None:
    member = list(quick_int_suite())[0]
    job = SimJob(fmc_hash(), member, 1_000, 1)
    with pytest.raises(ConfigurationError, match="engine"):
        JobRequest(cases=(job,), engine="fast")


def test_unknown_engine_fails_at_request_normalization() -> None:
    with pytest.raises(ConfigurationError, match="unknown simulation engine"):
        JobRequest(figure="fig7", engine="warp").normalized()


def test_campaign_context_applies_the_engine_to_every_sweep_case() -> None:
    context = campaign_context(instructions=600, seed=TEST_SEED, engine="reference")
    for case in fig7_sweep(context):
        assert case.machine.engine == "fast"  # the sweep declares defaults ...
    results = context.run_sweep(fig7_sweep(context))
    assert results  # ... but the context rebinds them before running.
    reference_results = campaign_context(
        instructions=600, seed=TEST_SEED, engine="fast"
    ).run_sweep(fig7_sweep(context))
    for case_id, suite_result in results.items():
        assert suite_result.results == reference_results[case_id].results


def test_campaign_context_rejects_unknown_engines_eagerly() -> None:
    with pytest.raises(ConfigurationError, match="unknown simulation engine"):
        campaign_context(engine="warp")


def test_analytic_warm_state_matches_reference_across_geometries() -> None:
    """The closed-form warm-up equals the reference replay for every paper
    machine geometry, swept cache shapes, and overlapping footprints (which
    must take the reference-replay fallback)."""
    from dataclasses import replace

    from repro.common.config import MemoryHierarchyConfig
    from repro.isa.trace import RegionFootprint
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.sim.configs import PAPER_CONFIGS, machine_by_name
    from repro.workloads.families import family_suites

    region_sets = [
        generate_member_trace(member, 50, seed=TEST_SEED).regions
        for suite in (quick_int_suite(), family_suites()["streaming"])
        for member in suite
    ]
    # Overlapping / duplicate-line footprints: the closed form declines and
    # the fallback must still capture the reference state.
    region_sets.append(
        (
            RegionFootprint("low", 4096, 64 * 1024, 1.0, "stream"),
            RegionFootprint("high", 4096 + 16 * 1024, 64 * 1024, 3.0, "random"),
        )
    )
    default = MemoryHierarchyConfig()
    geometries = {(config.l1, config.l2): config for config in (
        [machine_by_name(name).hierarchy for name in PAPER_CONFIGS]
        + [
            default,
            replace(default, l1=replace(default.l1, size_bytes=8 * 1024)),
            replace(default, l2=replace(default.l2, associativity=4)),
            replace(default, l1=replace(default.l1, associativity=1)),
        ]
    )}
    clear_warm_memo()
    try:
        for config in geometries.values():
            for regions in region_sets:
                reference = MemoryHierarchy(config)
                reference.warm_up_regions(regions)
                warmed = MemoryHierarchy(config)
                warm_hierarchy(warmed, regions)
                # capture() reports every set's tags and LRU order.
                assert warmed.l1.capture() == reference.l1.capture()
                assert warmed.l2.capture() == reference.l2.capture()
    finally:
        clear_warm_memo()


def test_warm_memo_restores_identical_cache_state() -> None:
    """Memo-restored hierarchies match a freshly warmed one exactly."""
    from repro.memory.hierarchy import MemoryHierarchy

    member = list(quick_int_suite())[0]
    trace = generate_member_trace(member, 400, seed=TEST_SEED)
    clear_warm_memo()
    try:
        reference = MemoryHierarchy()
        reference.warm_up_regions(trace.regions)

        first = MemoryHierarchy()
        warm_hierarchy(first, trace.regions)  # memo miss: computes + captures
        restored = MemoryHierarchy()
        warm_hierarchy(restored, trace.regions)  # memo hit: restores lazily

        for warmed in (first, restored):
            assert warmed.l1.capture() == reference.l1.capture()
            assert warmed.l2.capture() == reference.l2.capture()
    finally:
        clear_warm_memo()

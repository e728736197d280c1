"""Workload definitions shared by the harness, the sim worker and the oracle.

The benchmark's ``--seed`` chooses the inputs; the program only ever sees the
generated campaign (a sweep at a fixed trace length and workload seed) or the
generated stream of job submissions.  See README.md for why each workload
exists.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, List, Tuple

#: Simulation workloads: sweep builder and trace length.  Latency limits are
#: per simulation (host ms) and feed ``goodput_jps``; they sit far above the
#: slowest simulation at HEAD so only a gross stall misses them.
SIM_WORKLOADS = {
    "sim-long": {"sweep": "fig7", "instructions": 30_000, "limit_ms": 5_000.0},
    "sim-short": {"sweep": "family", "instructions": 1_200, "limit_ms": 1_000.0},
}

#: The serving workload: one figure request shape, an open loop at a fixed
#: offered rate, about a quarter of the submissions repeating a completed seed.
SERVE = {
    "figure": "sec52",
    "instructions": 1_500,
    # Offered rate (requests/s): about half the highest rate HEAD sustained on
    # a 2-CPU host without a growing backlog (see README.md, "Serving rate").
    "rate": 0.7,
    # A request meets the limit when its result is observed within this many
    # ms of its scheduled send time (goodput_jps counts those).
    "limit_ms": 2_000.0,
    # Every fourth request repeats an earlier miss's seed (once one is old
    # enough), so hits stay well below half and the median is a miss.
    "hit_every": 4,
    # A hit repeats a miss scheduled at least this many seconds earlier, so
    # the miss has completed and the repeat is served from the result cache.
    "hit_lag_s": 6.0,
    "poll_interval_s": 0.02,
    "workers": 2,
}

SERVE_WORKLOAD = "serve-mixed"
WORKLOADS = tuple(SIM_WORKLOADS) + (SERVE_WORKLOAD,)


def digest(document: Any) -> str:
    """A short canonical digest of a JSON-able document."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def sim_campaign(name: str, seed: int):
    """The sweep's simulations as ``[(label, SimJob)]``, deduplicated in
    sweep order exactly as :meth:`ExperimentRunner.run_cases` would run them."""
    from repro.exp.runner import SimJob
    from repro.sim.experiments import (
        campaign_context,
        family_sweep_cases,
        family_sweep_suites,
        fig7_sweep,
    )

    spec = SIM_WORKLOADS[name]
    context = campaign_context(instructions=spec["instructions"], seed=seed)
    if spec["sweep"] == "fig7":
        suites = context.suites()
        cases = fig7_sweep(context)
    else:
        suites = family_sweep_suites()
        cases = family_sweep_cases(tuple(suites))
    jobs: List[Tuple[str, Any]] = []
    seen = set()
    for case in cases:
        for member in suites[case.suite_label]:
            job = SimJob(case.machine, member, spec["instructions"], seed)
            if job.key() not in seen:
                seen.add(job.key())
                jobs.append((f"{case.case_id}|{member.name}", job))
    return jobs


@dataclass(frozen=True)
class Submission:
    """One scheduled request of the serving workload."""

    index: int
    #: Seconds after the start of the traffic at which it is due.
    due: float
    #: The campaign seed the request carries.
    request_seed: int
    #: Whether it repeats the seed of an earlier miss.
    hit: bool


def serve_schedule(seed: int, seconds: float, rate: float = SERVE["rate"]) -> List[Submission]:
    """The open-loop schedule: evenly spaced sends, every ``hit_every``-th one a
    repeat of a seeded choice among the misses at least ``hit_lag_s`` older."""
    rng = random.Random(f"serve-mixed:{seed}")
    count = max(1, int(seconds * rate))
    schedule: List[Submission] = []
    misses: List[Submission] = []
    for index in range(count):
        due = index / rate
        eligible = [m for m in misses if m.due <= due - SERVE["hit_lag_s"]]
        if eligible and index % SERVE["hit_every"] == SERVE["hit_every"] - 1:
            repeated = rng.choice(eligible)
            schedule.append(Submission(index, due, repeated.request_seed, True))
            continue
        submission = Submission(index, due, miss_seed(seed, len(misses)), False)
        misses.append(submission)
        schedule.append(submission)
    return schedule


def miss_seed(seed: int, ordinal: int) -> int:
    """The fresh campaign seed of the ``ordinal``-th miss of a run."""
    return (seed % 100_000) * 10_000 + ordinal

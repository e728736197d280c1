"""The simulation worker: runs one sim workload's campaigns in this process.

Started by ``run.py``, never by hand.  It prints ``ready`` once the program
is imported and the campaign declared (the end of set-up), then one JSON line
with what it measured, and exits.  Every campaign runs serially through
``ExperimentRunner(jobs=1, cache=None)`` with the trace and warm-state memos
cleared first, one simulation per ``run_batch`` call so each simulation's
host time is its latency.

Modes: ``setup`` stops after ``ready``; ``run`` repeats the campaign until the
next one would overrun ``--seconds``; ``trace`` runs one untraced campaign,
installs the layer wrappers and runs one traced campaign.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, layer_delta  # noqa: E402
from workloads import SIM_WORKLOADS, digest, sim_campaign  # noqa: E402

_CACHE_COUNTERS = ("L1.hits", "L1.misses", "L2.hits", "L2.misses")


def inject_build_slowdown(fraction: float) -> None:
    """Make every ``MachineConfig.build`` take ``1 + fraction`` times as long
    (busy-waiting, so CPU time grows too).  Used by the benchmark's own
    slowdown check only."""
    from repro.sim.configs import MachineConfig

    original = MachineConfig.build

    def slowed_build(self, *args, **kwargs):
        started = time.perf_counter()
        result = original(self, *args, **kwargs)
        until = time.perf_counter() + (time.perf_counter() - started) * fraction
        while time.perf_counter() < until:
            pass
        return result

    MachineConfig.build = slowed_build


def run_campaign(jobs, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """Run every simulation of one campaign; digests are taken after timing."""
    from repro.exp.runner import ExperimentRunner, clear_trace_memo
    from repro.sim.engine.fast import clear_warm_memo

    clear_trace_memo()
    clear_warm_memo()
    runner = ExperimentRunner(jobs=1, cache=None)
    latencies: List[float] = []
    results = []
    span_args: Dict[int, Dict[str, Any]] = {}
    perf = time.perf_counter
    started = perf()
    for label, job in jobs:
        begun = perf()
        if tracer is None:
            result = runner.run_batch([job])[job.key()]
        else:
            index, before = len(tracer.spans), tracer.layer_totals()
            with tracer.span("sim.job", sid=label):
                result = runner.run_batch([job])[job.key()]
            span_args[index] = {
                layer: {"self_s": round(seconds, 6), "calls": calls}
                for layer, (seconds, calls) in layer_delta(tracer.layer_totals(), before).items()
                if calls
            }
        latencies.append(perf() - begun)
        results.append((label, result))
    wall = perf() - started
    counters = dict.fromkeys(_CACHE_COUNTERS, 0)
    for _, result in results:
        values = result.to_dict()["counters"]
        for name in _CACHE_COUNTERS:
            counters[name] += values.get(name, 0)
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "committed": sum(result.committed_instructions for _, result in results),
        "digests": {label: digest(result.to_dict()) for label, result in results},
        "counters": counters,
        "span_args": span_args,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIM_WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--trace-out", help="trace mode: where to write the span events")
    parser.add_argument("--inject-build-slowdown", type=float, default=0.0)
    args = parser.parse_args()

    import repro.sim.engine  # noqa: F401 -- the program, imported as part of set-up

    jobs = sim_campaign(args.workload, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.inject_build_slowdown:
        inject_build_slowdown(args.inject_build_slowdown)

    report: Dict[str, Any] = {"simulations": len(jobs)}
    if args.mode == "run":
        campaigns = []
        started = time.perf_counter()
        while True:
            campaigns.append(run_campaign(jobs))
            elapsed = time.perf_counter() - started
            if elapsed + campaigns[-1]["wall_s"] > args.seconds:
                break
        report["campaigns"] = campaigns
    else:
        untraced = run_campaign(jobs)
        tracer = Tracer()
        tracer.install_sim()
        with tracer.span("sim.campaign", sid=args.workload):
            traced = run_campaign(jobs, tracer)
        events = tracer.chrome_events(
            pid=os.getpid(), process_name=f"sim worker ({args.workload})",
            span_args=traced.pop("span_args"),
        )
        Path(args.trace_out).write_text(json.dumps({"traceEvents": events}))
        untraced.pop("span_args")
        report.update(
            campaigns=[untraced],
            traced=traced,
            layers=tracer.layer_totals(),
            counts=tracer.counts(),
            missing=tracer.missing,
        )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

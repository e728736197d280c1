"""Correctness oracle: recorded result digests and the golden re-check.

Every simulation the sim workloads run, and every figure payload the serving
workload receives, is reduced to a canonical digest (all counters,
histograms, cycles and derived floats) and compared with the digests
recorded here for the same inputs.  A seed without recorded digests is
reported as unverified; its runs are still checked for self-consistency.

The model is unvalidated against hardware, so the oracle checks bit-identity
with the revision that recorded it -- never error against the paper.  To
prove that revision was golden-correct, every benchmark invocation also
re-runs the 2,000-instruction fig7 campaign and compares it, read-only, with
``tests/golden/fig7_quick.json``; recording refuses to start unless that
check passes.

Re-record after an intentional numerics change (it takes a few minutes)::

    PYTHONPATH=src python3 perfbench/oracle.py --seeds 0-10
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    SERVE,
    SERVE_WORKLOAD,
    SIM_WORKLOADS,
    digest,
    miss_seed,
    sim_campaign,
)

ORACLE_PATH = HERE / "oracle.json"
GOLDEN_RELATIVE = "tests/golden/fig7_quick.json"
#: Misses recorded per benchmark seed (covers a 60-second run at the rate).
SERVE_MISSES_RECORDED = 48


def load_oracle(path: Path = ORACLE_PATH) -> Dict[str, Any]:
    return json.loads(path.read_text())


def sim_expected(oracle: Dict[str, Any], workload: str, seed: int) -> Optional[Dict[str, str]]:
    """``{label: digest}`` for a recorded seed, else ``None`` (unverified)."""
    return oracle.get(workload, {}).get(str(seed))


def serve_expected(oracle: Dict[str, Any], request_seed: int) -> Optional[str]:
    return oracle.get(SERVE_WORKLOAD, {}).get(str(request_seed))


def check_golden(root: Path) -> bool:
    """Re-run the golden fig7 campaign and compare it with the snapshot."""
    from repro.common.serialize import to_jsonable
    from repro.sim.experiments import campaign_context, fig7_speedups

    expected = json.loads((root / GOLDEN_RELATIVE).read_text())
    campaign = expected["campaign"]
    context = campaign_context(
        instructions=campaign["instructions_per_workload"], seed=campaign["seed"]
    )
    rows, baseline_ipc = fig7_speedups(context)
    results = {"rows": to_jsonable(rows), "baseline_ipc": to_jsonable(baseline_ipc)}
    return json.loads(json.dumps(results, sort_keys=True)) == expected["results"]


def serve_payload(request_seed: int) -> Any:
    """The figure payload the service must return for one miss, computed
    in-process (the service builds its context through the same call)."""
    from repro.common.serialize import to_jsonable
    from repro.sim.experiments import campaign_context, experiment_by_name

    context = campaign_context(instructions=SERVE["instructions"], seed=request_seed)
    return to_jsonable(experiment_by_name(SERVE["figure"]).run(context))


def record(seeds: List[int], root: Path) -> Dict[str, Any]:
    from repro.exp.runner import ExperimentRunner, clear_trace_memo

    if not check_golden(root):
        raise SystemExit(f"refusing to record: results differ from {GOLDEN_RELATIVE}")
    document: Dict[str, Any] = {
        "serve_request": {"figure": SERVE["figure"], "instructions": SERVE["instructions"]},
    }
    for workload in SIM_WORKLOADS:
        document[workload] = {}
        for seed in seeds:
            clear_trace_memo()
            runner = ExperimentRunner(jobs=1, cache=None)
            document[workload][str(seed)] = {
                label: digest(runner.run_batch([job])[job.key()].to_dict())
                for label, job in sim_campaign(workload, seed)
            }
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    document[SERVE_WORKLOAD] = {}
    for seed in seeds:
        for ordinal in range(SERVE_MISSES_RECORDED):
            request_seed = miss_seed(seed, ordinal)
            document[SERVE_WORKLOAD][str(request_seed)] = digest(serve_payload(request_seed))
        print(f"recorded {SERVE_WORKLOAD} seed {seed}", file=sys.stderr)
    return document


def _seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-10"),
                        help="benchmark seeds to record, e.g. 0-10")
    args = parser.parse_args()
    root = HERE.parent
    document = record(args.seeds, root)
    ORACLE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

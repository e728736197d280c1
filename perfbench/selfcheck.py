"""The benchmark's own checks (long; kept out of the pytest suite).

Run from the root of a checkout:

``python3 perfbench/selfcheck.py slowdown``
    Alternates sim-short runs of the program as it is and with every
    ``MachineConfig.build`` made 20% slower.  Passes when the slowdown shows
    up in the traced ``sim.configs.build_s`` and worsens the median
    ``sim_kips`` by more than its bound in BENCHMARK.json.

``python3 perfbench/selfcheck.py ab --workload sim-short``
    HEAD against HEAD: alternates runs of two identical sides over fresh
    seeds.  Passes when, for every end-to-end metric, the second side's
    median is no worse than the first's by more than the bound, and every
    spread but ``setup_s``'s (quartile distance over median, all runs) stays
    within it.

Both print a table and exit 0 on pass, 1 on fail.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
SLOWDOWN = 0.20


def bench(workload: str, seed: int, seconds: float, trace: int = 0,
          slowdown: float = 0.0) -> Dict[str, float]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if slowdown:
        command += ["--inject-build-slowdown", str(slowdown)]
    output = subprocess.run(command, check=True, capture_output=True, text=True).stdout
    result = json.loads(output.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output ({result['failed']} failed)")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def worsening(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    return (other - base) / base if better == "lower" else (base - other) / base


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def check_slowdown(spec: dict, pairs: int, seconds: float, first_seed: int) -> bool:
    kips = next(m for m in spec["end_to_end"] if m["name"] == "sim_kips")
    base, slow = [], []
    for index in range(pairs):
        seed = first_seed + index
        order = [(base, 0.0), (slow, SLOWDOWN)]
        for side, fraction in order if index % 2 == 0 else reversed(order):
            side.append(bench("sim-short", seed, seconds, slowdown=fraction)["sim_kips"])
    traced_base = bench("sim-short", first_seed, seconds, trace=1)["sim.configs.build_s"]
    traced_slow = bench("sim-short", first_seed, seconds, trace=1,
                        slowdown=SLOWDOWN)["sim.configs.build_s"]
    loss = worsening(statistics.median(base), statistics.median(slow), "higher")
    growth = traced_slow / traced_base - 1.0
    print(f"sim_kips median: base {statistics.median(base):.3f}, slowed "
          f"{statistics.median(slow):.3f}; worse by {loss:.1%} (bound {kips['bound']:.0%})")
    print(f"sim.configs.build_s traced: base {traced_base:.3f} s, slowed {traced_slow:.3f} s "
          f"(+{growth:.1%})")
    return loss > kips["bound"] and growth > SLOWDOWN / 2


def check_ab(spec: dict, workload: str, runs: int, seconds: float, first_seed: int) -> bool:
    sides: List[List[Dict[str, float]]] = [[], []]
    for index in range(runs):
        for side in (0, 1) if index % 2 == 0 else (1, 0):
            sides[side].append(bench(workload, first_seed + 2 * index + side, seconds))
    passed = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        first = [run[name] for run in sides[0]]
        second = [run[name] for run in sides[1]]
        shift = worsening(statistics.median(first), statistics.median(second), metric["better"])
        width = spread(first + second)
        ok = shift <= bound and (name == "setup_s" or width <= bound)
        passed &= ok
        print(f"{workload:12s} {name:16s} median {statistics.median(first):12.4f} vs "
              f"{statistics.median(second):12.4f}  worse by {shift:+7.1%}  spread "
              f"{width:6.1%}  bound {bound:.0%}  {'ok' if ok else 'FAIL'}")
    return passed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=("slowdown", "ab"))
    parser.add_argument("--workload", default="sim-short")
    parser.add_argument("--runs", type=int, default=5, help="runs (or pairs) per side")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    if args.check == "slowdown":
        passed = check_slowdown(spec, args.runs, seconds, args.first_seed)
    else:
        passed = check_ab(spec, args.workload, args.runs, seconds, args.first_seed)
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

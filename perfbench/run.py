"""The repository benchmark: one workload per invocation, one JSON line out.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-long --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload untraced and then traced, and reports the per-layer
metrics, the tracing overhead and a Chrome trace (Perfetto-loadable) under
``perfbench/out/``.  Every output is checked against the recorded digests
(``oracle.json``) and the run re-checks the fig7 golden snapshot.  The last
line of standard output is the result object; the lines before it are a
readable table and a ``details`` document with the host fingerprint.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from procs import reap  # noqa: E402
from workloads import SERVE, SERVE_WORKLOAD, SIM_WORKLOADS, WORKLOADS, serve_schedule  # noqa: E402

#: How many times set-up is measured per run (``setup_s`` is their median).
SETUP_REPEATS = 9
#: A sim worker gets this long beyond ``--seconds`` to finish (trace runs
#: need about three campaigns' time).
WORKER_GRACE_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "sim_kips": "kinstr/s",
    "peak_rss_mb": "MiB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "goodput_jps": "jobs/s",
}

PER_LAYER = {
    "workloads.generate_s": "s",
    "workloads.traces": "count",
    "sim.configs.build_s": "s",
    "sim.configs.builds": "count",
    "sim.engine.warmup_s": "s",
    "memory.warm_fallback_ratio": "ratio",
    "sim.engine.drive_self_s": "s",
    "core.lsq_s": "s",
    "core.lsq_calls": "count",
    "core.store_buffer_s": "s",
    "core.store_buffer_calls": "count",
    "core.ert_s": "s",
    "core.svw_s": "s",
    "memory.access_s": "s",
    "memory.access_calls": "count",
    "memory.l1_miss_ratio": "ratio",
    "memory.l2_miss_ratio": "ratio",
    "common.stats.bump_s": "s",
    "common.stats.bumps": "count",
    "service.http.read_s": "s",
    "service.http.requests": "count",
    "service.jobs.admit_s": "s",
    "service.jobs.rejected": "count",
    "service.jobs.coalesced": "count",
    "service.jobs.queue_wait_p50_ms": "ms",
    "service.jobs.queue_wait_tail_ms": "ms",
    "service.jobs.execute_miss_p50_ms": "ms",
    "service.jobs.execute_hit_p50_ms": "ms",
    "exp.cache.get_s": "s",
    "exp.cache.put_s": "s",
    "exp.cache.hit_ratio": "ratio",
    "service.journal.append_s": "s",
    "service.journal.appends": "count",
    "client.polls_per_job": "count",
    "client.post_ms": "ms",
    "load.lateness_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer metric -> (traced layer, "s" for its self time or "calls").
LAYER_SOURCES = {
    "workloads.generate_s": ("workloads.generate", "s"),
    "workloads.traces": ("workloads.generate", "calls"),
    "sim.configs.build_s": ("sim.configs.build", "s"),
    "sim.configs.builds": ("sim.configs.build", "calls"),
    "sim.engine.warmup_s": ("sim.engine.warmup", "s"),
    "sim.engine.drive_self_s": ("sim.engine.drive", "s"),
    "core.lsq_s": ("core.lsq", "s"),
    "core.lsq_calls": ("core.lsq", "calls"),
    "core.store_buffer_s": ("core.store_buffer", "s"),
    "core.store_buffer_calls": ("core.store_buffer", "calls"),
    "core.ert_s": ("core.ert", "s"),
    "core.svw_s": ("core.svw", "s"),
    "memory.access_s": ("memory.access", "s"),
    "memory.access_calls": ("memory.access", "calls"),
    "common.stats.bump_s": ("common.stats.bump", "s"),
    "common.stats.bumps": ("common.stats.bump", "calls"),
    "service.http.read_s": ("service.http.read", "s"),
    "service.http.requests": ("service.http.read", "calls"),
    "service.jobs.admit_s": ("service.jobs.admit", "s"),
    "exp.cache.get_s": ("exp.cache.get", "s"),
    "exp.cache.put_s": ("exp.cache.put", "s"),
    "service.journal.append_s": ("service.journal.append", "s"),
    "service.journal.appends": ("service.journal.append", "calls"),
}

#: Build/warm-up side and drive side of a simulation, for the share check.
SETUP_SIDE = ("workloads.generate", "sim.configs.build", "sim.engine.warmup")
DRIVE_SIDE = ("sim.engine.drive", "core.lsq", "core.store_buffer", "core.ert", "core.svw",
              "memory.access", "common.stats.bump")


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, failed process)."""


# -- statistics ------------------------------------------------------------


def tail(values: List[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` at the highest percentile that
    has at least ten samples beyond it (the maximum when there are too few)."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, 0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- host fingerprint ------------------------------------------------------


def fingerprint(root: Path) -> Dict[str, Any]:
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    revision = None
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    if len(lines) == 2 and Path(lines[0]).resolve() == root.resolve():
        revision = lines[1]  # only a repository rooted here names this checkout
    return {
        "cpu_model": cpu_model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": revision,
        "source_sha256": _source_digest(root / "src"),
    }


def _source_digest(src: Path) -> str:
    """Content hash of the program's sources (identifies a revision without git)."""
    hasher = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


# -- simulation workloads --------------------------------------------------


def _spawn_worker(root: Path, env: Dict[str, str], args: argparse.Namespace, mode: str,
                  trace_out: Optional[Path] = None) -> Tuple[subprocess.Popen, float]:
    command = [sys.executable, str(HERE / "simload.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    if args.inject_build_slowdown:
        command += ["--inject-build-slowdown", str(args.inject_build_slowdown)]
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    return proc, started


def _worker_line(proc: subprocess.Popen) -> str:
    line = proc.stdout.readline()
    if not line:
        code, _ = reap(proc, 10.0)
        raise BenchmarkError(f"sim worker exited with {code} before reporting")
    return line.strip()


def _measure_setups(root: Path, env: Dict[str, str], args: argparse.Namespace,
                    count: int) -> List[float]:
    setups: List[float] = []
    for _ in range(count):
        proc, started = _spawn_worker(root, env, args, "setup")
        try:
            if _worker_line(proc) != "ready":
                raise BenchmarkError("sim worker did not report ready")
            setups.append(time.perf_counter() - started)
        finally:
            reap(proc, 10.0)
    return setups


def run_sim(root: Path, env: Dict[str, str], args: argparse.Namespace,
            out_dir: Path) -> Dict[str, Any]:
    # Set-up is measured before and after the measured worker, so that the
    # median spans the run rather than one moment of the host's speed.
    before = (SETUP_REPEATS - 1) // 2 if not args.trace else 0
    after = SETUP_REPEATS - 1 - before if not args.trace else 0
    setups = _measure_setups(root, env, args, before)
    trace_out = out_dir / f"trace-{args.workload}-s{args.seed}.json" if args.trace else None
    proc, started = _spawn_worker(root, env, args, "trace" if args.trace else "run", trace_out)
    try:
        if _worker_line(proc) != "ready":
            raise BenchmarkError("sim worker did not report ready")
        setups.append(time.perf_counter() - started)
        report = json.loads(_worker_line(proc))
    finally:
        code, peak_mb = reap(proc, args.seconds + WORKER_GRACE_S)
    if code != 0:
        raise BenchmarkError(f"sim worker exited with {code}")
    setups += _measure_setups(root, env, args, after)
    report.update(setups_s=setups, peak_rss_mb=peak_mb, trace_file=trace_out)
    return report


def check_sim(report: Dict[str, Any], expected: Optional[Dict[str, str]]) -> Dict[str, Any]:
    """Compare every simulation's digest with the oracle (or, for an
    unrecorded seed, with the first campaign of this run).  Marks each
    campaign's mismatching labels in ``campaign["wrong"]``."""
    campaigns = list(report["campaigns"])
    if "traced" in report:
        campaigns.append(report["traced"])
    reference = expected if expected is not None else campaigns[0]["digests"]
    attempted = failed = 0
    for campaign in campaigns:
        digests = campaign["digests"]
        wrong = {label for label, value in digests.items() if reference.get(label) != value}
        campaign["wrong"] = wrong
        attempted += len(digests)
        failed += len(wrong) + len(set(reference) - set(digests))
    return {"attempted": attempted, "failed": failed,
            "digests": "verified" if expected is not None else "unverified"}


def best_times(campaigns: List[Dict[str, Any]]) -> Dict[str, float]:
    """Each simulation's best host time (s) over the run's repetitions of it.

    The host's slow spells only ever add time, so the best repetition is
    the one a spell did not touch, and a spell over some repetitions does
    not move it.  A slow period longer than the run still does (see
    README.md, "Noise and bounds")."""
    best: Dict[str, float] = {}
    for campaign in campaigns:
        for label, seconds in zip(campaign["digests"], campaign["latencies_s"]):
            best[label] = min(seconds, best.get(label, seconds))
    return best


def sim_end_to_end(report: Dict[str, Any], limit_ms: float) -> Tuple[Dict[str, float], Dict]:
    campaigns = report["campaigns"]
    best = best_times(campaigns)
    latencies = [seconds * 1000.0 for seconds in best.values()]
    # A simulation counts once, on its best time, and only if no repetition
    # of it went wrong.
    wrong = set().union(*(c["wrong"] for c in campaigns))
    on_time = sum(1 for label, value in best.items()
                  if label not in wrong and value * 1000.0 <= limit_ms)
    campaign_s = sum(best.values())
    tail_value, percentile, beyond = tail(latencies or [0.0])
    metrics = {
        "setup_s": _median(report["setups_s"]),
        # Every campaign runs the same simulations, so any one's committed
        # count is the campaign's.
        "sim_kips": campaigns[0]["committed"] / 1000.0 / campaign_s if campaign_s else 0.0,
        "peak_rss_mb": report["peak_rss_mb"],
        "latency_p50_ms": _median(latencies),
        "latency_tail_ms": tail_value,
        "goodput_jps": on_time / campaign_s if campaign_s else 0.0,
    }
    notes = {"campaigns": len(campaigns), "simulations": len(latencies),
             "best_campaign_s": campaign_s,
             "median_campaign_kips": _median(
                 [c["committed"] / 1000.0 / c["wall_s"] for c in campaigns]),
             "latency_tail_percentile": percentile, "latency_tail_beyond": beyond,
             "latency_limit_ms": limit_ms}
    return metrics, notes


def sim_per_layer(report: Dict[str, Any]) -> Tuple[Dict[str, float], Dict]:
    layers = report["layers"]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name, (layer, kind) in LAYER_SOURCES.items():
        seconds, calls = layers.get(layer, (0.0, 0))
        metrics[name] = seconds if kind == "s" else float(calls)
    warm_requests = layers.get("sim.engine.warmup", (0.0, 0))[1]
    replays = report["counts"].get("memory.warm_replays", 0)
    metrics["memory.warm_fallback_ratio"] = replays / warm_requests if warm_requests else 0.0
    counters = report["traced"]["counters"]
    for level in ("l1", "l2"):
        hits, misses = counters[f"{level.upper()}.hits"], counters[f"{level.upper()}.misses"]
        metrics[f"memory.{level}_miss_ratio"] = misses / (hits + misses) if hits + misses else 0.0
    metrics["trace.overhead_ratio"] = report["traced"]["wall_s"] / report["campaigns"][0]["wall_s"]
    setup_side = sum(layers.get(layer, (0.0, 0))[0] for layer in SETUP_SIDE)
    drive_side = sum(layers.get(layer, (0.0, 0))[0] for layer in DRIVE_SIDE)
    notes = {
        "traced_wall_s": report["traced"]["wall_s"],
        "untraced_wall_s": report["campaigns"][0]["wall_s"],
        "build_warmup_share": (setup_side / report["traced"]["wall_s"]),
        "drive_side_share": (drive_side / report["traced"]["wall_s"]),
        "largest_share": "build+warmup" if setup_side > drive_side else "drive",
        "missing_targets": report["missing"],
    }
    return metrics, notes


# -- serving workload ------------------------------------------------------


def check_serve(requests, oracle: Dict[str, Any]) -> Dict[str, Any]:
    """Failed, rejected or wrong jobs; a hit must equal its miss's payload."""
    from oracle import serve_expected

    miss_digests = {r.submission.request_seed: r.digest for r in requests
                    if not r.submission.hit and r.digest is not None}
    failed = verified = 0
    for request in requests:
        if request.error is not None or request.digest is None:
            request.error = request.error or "no result"
            failed += 1
            continue
        expected = serve_expected(oracle, request.submission.request_seed)
        if expected is not None:
            verified += 1
        else:
            expected = miss_digests.get(request.submission.request_seed, request.digest)
        if request.digest != expected:
            request.error = "payload digest mismatch"
            failed += 1
    return {"attempted": len(requests), "failed": failed, "verified": verified}


def _request_stats(outcome: Dict[str, Any]) -> Dict[str, Any]:
    ok = [r for r in outcome["requests"] if r.error is None]
    start = outcome["start"]
    latencies = [(r.completed_at - (start + r.submission.due)) * 1000.0 for r in ok]
    views = [r.view for r in ok]
    waits = [(v["started_at"] - v["submitted_at"]) * 1000.0 for v in views]
    misses = [v for v in views if v["progress"]["executed_jobs"] > 0]
    hits = [v for v in views if v["progress"]["executed_jobs"] == 0]
    return {"ok": ok, "latencies": latencies, "waits": waits, "misses": misses, "hits": hits}


def _execute_ms(views) -> List[float]:
    return [(v["finished_at"] - v["started_at"]) * 1000.0 for v in views]


def serve_end_to_end(outcome: Dict[str, Any]) -> Tuple[Dict[str, float], Dict]:
    stats = _request_stats(outcome)
    latencies = stats["latencies"]
    tail_value, percentile, beyond = tail(latencies or [0.0])
    # Simulated instructions per second of server execution, for each miss;
    # the best miss is the one the host did not slow (see best_times).
    miss_kips = [v["progress"]["executed_jobs"] * SERVE["instructions"] / ms
                 for v, ms in zip(stats["misses"], _execute_ms(stats["misses"])) if ms > 0]
    on_time = sum(1 for value in latencies if value <= SERVE["limit_ms"])
    # Per second of the run: traffic start to the last observed completion.
    elapsed = max((r.completed_at for r in stats["ok"]), default=outcome["start"]) \
        - outcome["start"]
    metrics = {
        "setup_s": _median(outcome["setups_s"]),
        "sim_kips": max(miss_kips, default=0.0),
        "peak_rss_mb": outcome["peak_rss_mb"],
        "latency_p50_ms": _median(latencies),
        "latency_tail_ms": tail_value,
        "goodput_jps": on_time / elapsed if elapsed else 0.0,
    }
    notes = {"requests": len(outcome["requests"]), "completed": len(latencies),
             "hits": len(stats["hits"]), "misses": len(stats["misses"]),
             "median_miss_kips": _median(miss_kips),
             "offered_rate_per_s": SERVE["rate"], "latency_limit_ms": SERVE["limit_ms"],
             "latency_tail_percentile": percentile, "latency_tail_beyond": beyond}
    return metrics, notes


def serve_per_layer(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Tuple[Dict, Dict]:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    layers = traced["server_trace"]["layers"]
    for name, (layer, kind) in LAYER_SOURCES.items():
        if layer.startswith(("service.", "exp.")):
            seconds, calls = layers.get(layer, (0.0, 0))
            metrics[name] = seconds if kind == "s" else float(calls)
    stats = _request_stats(traced)
    counters = traced["counters"]
    lookups = counters["cache_hits"] + counters["cache_misses"]
    requests = traced["requests"]
    metrics.update({
        "service.jobs.rejected": counters["rejected"],
        "service.jobs.coalesced": counters["coalesced"],
        "service.jobs.queue_wait_p50_ms": _median(stats["waits"]),
        "service.jobs.queue_wait_tail_ms": tail(stats["waits"] or [0.0])[0],
        "service.jobs.execute_miss_p50_ms": _median(_execute_ms(stats["misses"])),
        "service.jobs.execute_hit_p50_ms": _median(_execute_ms(stats["hits"])),
        "exp.cache.hit_ratio": counters["cache_hits"] / lookups if lookups else 0.0,
        "client.polls_per_job": sum(r.polls for r in requests) / max(1, len(stats["ok"])),
        "client.post_ms": _median([r.post_s * 1000.0 for r in requests]),
        "load.lateness_ms": max(r.lateness_s for r in requests) * 1000.0,
    })
    base = _median(_request_stats(untraced)["latencies"])
    metrics["trace.overhead_ratio"] = _median(stats["latencies"]) / base if base else 0.0
    notes = {"missing_targets": traced["server_trace"]["missing"],
             "untraced_latency_p50_ms": base}
    return metrics, notes


def _serve_trace_events(outcome: Dict[str, Any]) -> List[dict]:
    tracer = outcome["tracer"]
    start = outcome["start"]
    for request in outcome["requests"]:
        if request.completed_at is not None:
            tracer.spans.append(("load.request", start + request.submission.due,
                                 request.completed_at, -1, request.trace_id, 0))
    events = tracer.chrome_events(pid=os.getpid(), process_name="load generator")
    return events + outcome["server_trace"]["events"]


def run_serve(root: Path, env: Dict[str, str], args: argparse.Namespace,
              out_dir: Path, oracle: Dict[str, Any]):
    import serveload

    workdir = serveload.make_workdir(out_dir)
    try:
        if not args.trace:
            schedule = serve_schedule(args.seed, args.seconds)
            outcome = serveload.run_pass(workdir / "run", env, schedule, f"s{args.seed}",
                                         SETUP_REPEATS, traced=False)
            check = check_serve(outcome["requests"], oracle)
            metrics, notes = serve_end_to_end(outcome)
            return metrics, notes, check
        # Traced: an untraced and a traced pass, each half the run.
        schedule = serve_schedule(args.seed, args.seconds / 2)
        untraced = serveload.run_pass(workdir / "untraced", env, schedule, f"s{args.seed}u",
                                      1, traced=False)
        traced = serveload.run_pass(workdir / "traced", env, schedule, f"s{args.seed}t",
                                    1, traced=True)
        check = check_serve(untraced["requests"] + traced["requests"], oracle)
        metrics, notes = serve_per_layer(untraced, traced)
        trace_file = out_dir / f"trace-{args.workload}-s{args.seed}.json"
        trace_file.write_text(json.dumps({"traceEvents": _serve_trace_events(traced)}))
        notes["trace_file"] = os.path.relpath(trace_file, root)
        return metrics, notes, check
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- entry point -----------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-build-slowdown", type=float, default=0.0,
                        help=argparse.SUPPRESS)  # the benchmark's own slowdown check
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program here ({root / 'src' / 'repro'} is missing); "
              f"run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_dir = HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    from oracle import check_golden, load_oracle, sim_expected

    oracle = load_oracle()
    host = fingerprint(root)
    host["loadavg_before"] = os.getloadavg()
    if args.workload == SERVE_WORKLOAD:
        metrics, notes, check = run_serve(root, env, args, out_dir, oracle)
    else:
        report = run_sim(root, env, args, out_dir)
        check = check_sim(report, sim_expected(oracle, args.workload, args.seed))
        limit_ms = SIM_WORKLOADS[args.workload]["limit_ms"]
        if args.trace:
            metrics, notes = sim_per_layer(report)
            notes["trace_file"] = os.path.relpath(report["trace_file"], root)
        else:
            metrics, notes = sim_end_to_end(report, limit_ms)
    host["loadavg_after"] = os.getloadavg()

    golden_ok = check_golden(root)
    attempted = check["attempted"] + 1
    failed = check["failed"] + (0 if golden_ok else 1)
    units = PER_LAYER if args.trace else END_TO_END
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "golden": "match" if golden_ok else "MISMATCH",
        "error_rate": failed / attempted, "check": check, "notes": notes,
        "metrics": metrics,
    }
    (out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(details, indent=1, default=str) + "\n")
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:14.6g} {unit}")
    print(f"{'error_rate':36s} {failed / attempted:14.6g} ratio")
    print(json.dumps({"details": details}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)

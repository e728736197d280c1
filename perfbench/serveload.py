"""The serving workload: a launched ``repro serve`` shard under open-loop load.

One generator (this process) uses two threads and so at most two
connections: the sender submits each request at its scheduled time whatever
the server's state, and the poller asks every outstanding job's status once
per fixed interval (not ``ServiceClient.wait``'s jittered backoff, whose
randomness would land in the latency).  A request's latency runs from its
scheduled send time to the poll that observes it completed, so a stall also
delays every request queued behind it.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from procs import free_port, reap
from tracing import Tracer
from workloads import SERVE, Submission, digest

HERE = Path(__file__).resolve().parent
#: Seconds a server gets to answer healthz, and to drain after SIGTERM.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: Seconds after the last scheduled send that outstanding jobs may still finish.
DRAIN_LIMIT_S = 30.0


class Server:
    """One launched shard (result cache and journal on, in its own directory)."""

    def __init__(self, workdir: Path, env: Dict[str, str], trace_out: Optional[Path] = None):
        self.workdir = workdir
        workdir.mkdir(parents=True)
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        command = [
            sys.executable, str(HERE / "launch_server.py"), "--port", str(self.port),
            "--cache-dir", str(workdir / "cache"), "--workers", str(SERVE["workers"]),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self._log = open(workdir / "server.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, env=env, stdin=subprocess.DEVNULL, stdout=self._log, stderr=self._log
        )

    def wait_ready(self) -> float:
        """Seconds from launch until ``healthz`` answered."""
        from repro.common.errors import ServiceError
        from repro.service.client import ServiceClient

        client = ServiceClient(self.url, timeout=2.0)
        while True:
            try:
                client.healthz()
                return time.perf_counter() - self.started
            except ServiceError:
                if self.proc.poll() is not None or \
                        time.perf_counter() - self.started > START_TIMEOUT_S:
                    raise RuntimeError(f"server did not start; see {self.workdir / 'server.log'}")
                time.sleep(0.005)

    def stop(self) -> float:
        """SIGTERM (graceful drain), reap; returns the server's peak RSS in MiB."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            code, peak_mb = reap(self.proc, STOP_TIMEOUT_S)
        else:
            code, peak_mb = self.proc.returncode, 0.0
        self._log.close()
        if code != 0:
            raise RuntimeError(f"server exited with {code}; see {self.workdir / 'server.log'}")
        return peak_mb


@dataclass
class Request:
    """What the generator saw of one scheduled submission."""

    submission: Submission
    trace_id: str
    lateness_s: float = 0.0
    post_s: float = 0.0
    job_id: Optional[str] = None
    coalesced: bool = False
    polls: int = 0
    completed_at: Optional[float] = None
    view: Dict[str, Any] = field(default_factory=dict)
    digest: Optional[str] = None
    error: Optional[str] = None


def drive(url: str, schedule: List[Submission], tracer: Tracer, run_id: str) -> Dict[str, Any]:
    """Offer ``schedule`` to the server; returns the requests and the timing base."""
    from repro.common.errors import ServiceError
    from repro.obs.tracing import reset_trace_id, set_trace_id
    from repro.service.client import ServiceClient

    requests = [Request(sub, f"{run_id}-{sub.index:05d}") for sub in schedule]
    outstanding: Dict[int, Request] = {}
    lock = threading.Lock()
    sender_done = threading.Event()
    failures: List[BaseException] = []
    start = time.perf_counter() + 0.05

    def send() -> None:
        client = ServiceClient(url, timeout=30.0)
        try:
            for request in requests:
                due = start + request.submission.due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                request.lateness_s = time.perf_counter() - due
                token = set_trace_id(request.trace_id)
                posted = time.perf_counter()
                try:
                    with tracer.span("client.submit", sid=request.trace_id):
                        receipt = client.submit(
                            figure=SERVE["figure"], instructions=SERVE["instructions"],
                            seed=request.submission.request_seed,
                        )
                except ServiceError as error:  # includes 429 rejections
                    request.error = f"submit: {error}"
                    continue
                finally:
                    request.post_s = time.perf_counter() - posted
                    reset_trace_id(token)
                request.job_id, request.coalesced = receipt.job_id, receipt.coalesced
                with lock:
                    outstanding[request.submission.index] = request
        except BaseException as error:  # noqa: BLE001 -- re-raised by the caller
            failures.append(error)
        finally:
            sender_done.set()

    sender = threading.Thread(target=send, name="perfbench-sender")
    sender.start()
    client = ServiceClient(url, timeout=30.0)
    give_up = start + schedule[-1].due + DRAIN_LIMIT_S
    try:
        while True:
            with lock:
                pending = list(outstanding.values())
            if not pending and sender_done.is_set():
                break
            if time.perf_counter() > give_up:
                for request in pending:
                    request.error = "not completed before the drain limit"
                break
            for request in pending:
                token = set_trace_id(request.trace_id)
                try:
                    with tracer.span("client.poll", sid=request.trace_id):
                        view = client.status(request.job_id)
                except ServiceError as error:
                    view = {"status": "failed", "error": f"status: {error}"}
                finally:
                    reset_trace_id(token)
                request.polls += 1
                if view["status"] not in ("completed", "failed"):
                    continue
                if view["status"] == "completed":
                    request.completed_at = time.perf_counter()
                    request.digest = digest(view.pop("result"))
                else:
                    request.error = f"job failed: {view.get('error')}"
                request.view = view
                with lock:
                    del outstanding[request.submission.index]
            time.sleep(SERVE["poll_interval_s"])
    finally:
        sender.join(timeout=DRAIN_LIMIT_S + 60.0)
    if failures:
        raise failures[0]
    return {"requests": requests, "start": start}


def server_counters(url: str) -> Dict[str, float]:
    """Admission and result-cache totals from ``/v1/stats`` and ``/v1/metrics``."""
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout=30.0)
    totals = client.stats()["totals"]
    cache = {"hit": 0.0, "miss": 0.0}
    for family in client.metrics().get("metrics", []):
        if family["name"] == "repro_cache_requests_total":
            for sample in family["samples"]:
                result = sample["labels"].get("result")
                if result in cache:
                    cache[result] += sample["value"]
    return {
        "rejected": float(sum(totals.get("rejections", {}).values())),
        "coalesced": float(totals.get("coalesced", 0)),
        "cache_hits": cache["hit"],
        "cache_misses": cache["miss"],
    }


def run_pass(workdir: Path, env: Dict[str, str], schedule: List[Submission], run_id: str,
             setup_repeats: int, traced: bool) -> Dict[str, Any]:
    """Start the server (``setup_repeats`` times, keeping the last), offer the
    schedule, stop it.  Every process started here has ended on return."""
    setups: List[float] = []
    for attempt in range(setup_repeats - 1):
        server = Server(workdir / f"setup-{attempt}", env)
        try:
            setups.append(server.wait_ready())
        finally:
            server.stop()
    trace_out = workdir / "server-trace.json" if traced else None
    server = Server(workdir / "measured", env, trace_out)
    tracer = Tracer()
    try:
        setups.append(server.wait_ready())
        outcome = drive(server.url, schedule, tracer, run_id)
        counters = server_counters(server.url)
    finally:
        peak_mb = server.stop()
    outcome.update(setups_s=setups, peak_rss_mb=peak_mb, counters=counters, tracer=tracer)
    if trace_out is not None:
        outcome["server_trace"] = json.loads(trace_out.read_text())
    return outcome


def make_workdir(root: Path) -> Path:
    workdir = root / f"serve-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir

"""Span-level profiling: nestable timed spans plus per-phase totals.

Two views of the same instrumentation coexist:

* **Phase totals** -- ``{phase name: seconds}``, always accumulated.  The
  hot paths report into them via :func:`add_phase` and ``repro bench``
  snapshots them per timed run (:func:`phase_totals`).  The phases are
  ``generation`` (synthesising workload traces), ``build`` (constructing
  processor models), ``warmup`` (bringing cache state to its steady-state
  snapshot), ``drive`` (the per-instruction loop) and ``dispatch``
  (parent-side parallel orchestration).  A report is an O(1) dict update
  per phase, a handful per simulation, never per instruction.  Worker
  processes return their per-task deltas to the parent, which merges them
  with :func:`merge_worker`, so parallel runs account worker time too.

* **The span log** -- individual timed events (name, wall-clock start,
  duration, pid/tid, category, args), recorded only while
  :func:`start_recording` is armed so a long-lived service pays nothing
  for instrumentation it is not exporting.  ``repro profile`` arms
  recording around one figure run and exports the log as Chrome
  trace-event JSON (:func:`to_chrome_trace`), loadable in Perfetto or
  ``chrome://tracing``.

Spans use ``time.time()`` (wall clock) for their start stamps deliberately:
``perf_counter`` epochs differ across processes, and worker spans must land
on the same timeline as the parent's.  Durations are measured with the same
clock over short intervals, where its resolution is ample next to the
simulation phases being measured.

All state is per-process (workers accumulate their own and ship deltas
back); within a process the GIL makes the append/accumulate operations safe
from the service's worker threads.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional

#: Hard cap on retained spans; beyond it new spans are counted as dropped
#: rather than recorded, bounding memory during runaway recordings.
SPAN_LIMIT = 100_000

_SPANS: List[Dict[str, Any]] = []
_PHASE_TOTALS: Dict[str, float] = {}
_RECORDING = False
_DROPPED = 0


def recording() -> bool:
    """Whether the span log is currently armed."""
    return _RECORDING


def set_recording(armed: bool) -> None:
    """Arm or disarm the span log (phase totals accumulate regardless)."""
    global _RECORDING
    _RECORDING = bool(armed)


def start_recording(clear: bool = True) -> None:
    """Arm the span log, optionally clearing previously recorded spans."""
    global _DROPPED
    if clear:
        _SPANS.clear()
        _DROPPED = 0
    set_recording(True)


def stop_recording() -> None:
    """Disarm the span log (recorded spans stay until :func:`reset`)."""
    set_recording(False)


def record(
    name: str,
    start: float,
    duration: float,
    *,
    category: str = "span",
    args: Optional[Mapping[str, Any]] = None,
) -> None:
    """Append one completed span to the log (no-op unless recording).

    ``start`` is a ``time.time()`` wall-clock stamp; ``duration`` is in
    seconds.  The recording process and thread are stamped automatically.
    """
    global _DROPPED
    if not _RECORDING:
        return
    if len(_SPANS) >= SPAN_LIMIT:
        _DROPPED += 1
        return
    _SPANS.append(
        {
            "name": name,
            "category": category,
            "start": start,
            "duration": duration,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": dict(args) if args else {},
        }
    )


@contextlib.contextmanager
def span(
    name: str, *, category: str = "span", args: Optional[Mapping[str, Any]] = None
) -> Iterator[None]:
    """Time a block as one span (recorded on exit, exceptions included)."""
    started = time.time()
    try:
        yield
    finally:
        record(name, started, time.time() - started, category=category, args=args)


def add_phase(name: str, seconds: float) -> None:
    """Accumulate ``seconds`` under phase ``name`` (and log a span when armed)."""
    _PHASE_TOTALS[name] = _PHASE_TOTALS.get(name, 0.0) + seconds
    if _RECORDING:
        record(name, time.time() - seconds, seconds, category="phase")


def phase_totals() -> Dict[str, float]:
    """The accumulated seconds per phase (a copy, sorted by phase name)."""
    return {name: _PHASE_TOTALS[name] for name in sorted(_PHASE_TOTALS)}


def reset_phases() -> None:
    """Zero every phase total (the bench harness, between timed runs)."""
    _PHASE_TOTALS.clear()


def snapshot() -> List[Dict[str, Any]]:
    """Copies of every recorded span, in recording order."""
    return [dict(entry) for entry in _SPANS]


def span_count() -> int:
    """How many spans the log currently holds."""
    return len(_SPANS)


def dropped() -> int:
    """How many spans were discarded after the log filled up."""
    return _DROPPED


def drain_after(mark: int) -> List[Dict[str, Any]]:
    """Remove and return every span recorded after position ``mark``.

    Pool workers bracket each task with ``span_count()`` / ``drain_after``
    so the task's spans ride back to the parent with its result instead of
    accumulating in the (possibly long-lived) worker process.
    """
    drained = [dict(entry) for entry in _SPANS[mark:]]
    del _SPANS[mark:]
    return drained


def merge_worker(observations: Optional[Mapping[str, Any]]) -> None:
    """Fold one worker task's observations into this process.

    ``observations`` is the dict a pool worker returns alongside its result:
    ``{"pid": ..., "phases": {name: seconds}, "spans": [...]}``.  Phase
    deltas are merged into the totals unconditionally (this is what makes
    parallel bench artifacts carry real worker phase breakdowns); the
    worker's spans -- already stamped with the worker's pid -- extend the
    span log only while recording is armed.
    """
    global _DROPPED
    if not observations:
        return
    for name, seconds in (observations.get("phases") or {}).items():
        _PHASE_TOTALS[name] = _PHASE_TOTALS.get(name, 0.0) + seconds
    if _RECORDING:
        for entry in observations.get("spans") or ():
            if len(_SPANS) >= SPAN_LIMIT:
                _DROPPED += 1
                continue
            _SPANS.append(dict(entry))


def reset() -> None:
    """Clear the span log, the phase totals and the dropped counter."""
    global _DROPPED
    _SPANS.clear()
    _PHASE_TOTALS.clear()
    _DROPPED = 0


def to_chrome_trace(
    spans: List[Mapping[str, Any]], metadata: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Render spans as a Chrome trace-event JSON document.

    Every span becomes one complete event (``"ph": "X"``) with microsecond
    ``ts`` / ``dur`` normalised to the earliest span's start, plus one
    process-name metadata event (``"ph": "M"``) per participating pid so
    Perfetto labels worker processes distinctly.  Load the written file in
    https://ui.perfetto.dev or ``chrome://tracing``.
    """
    base = min((entry["start"] for entry in spans), default=0.0)
    events: List[Dict[str, Any]] = []
    pids = sorted({int(entry["pid"]) for entry in spans})
    for pid in pids:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro pid {pid}"},
            }
        )
    for entry in spans:
        events.append(
            {
                "name": entry["name"],
                "cat": entry.get("category", "span"),
                "ph": "X",
                "ts": (entry["start"] - base) * 1e6,
                "dur": max(0.0, entry["duration"]) * 1e6,
                "pid": int(entry["pid"]),
                "tid": int(entry["tid"]),
                "args": dict(entry.get("args") or {}),
            }
        )
    document: Dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metadata:
        document["otherData"] = dict(metadata)
    return document

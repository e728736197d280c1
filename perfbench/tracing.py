"""In-memory span recording for the benchmark's traced runs.

A traced run replaces the public functions of each layer with timing
wrappers, installed at class or module level before any processor is built
(the fast drive loop binds its methods once per run, so a later patch would
be missed).  Every wrapped call pushes a frame on a per-thread stack; when it
returns, its duration minus the time of the wrapped calls it made (its
children) is added to the layer's *self time*, and the call is counted.

Coarse layers -- one call per simulation, job or request -- also keep every
span in memory: name, start, end, parent span and a shared id (one per
simulation or per request).  Fine layers (LSQ, store buffer, cache access,
stats) are called millions of times per run, so only their per-thread self
time and call count are kept; the benchmark attaches their per-simulation
totals to the simulation's span as arguments.  Nothing is written until
:meth:`Tracer.chrome_events` is called at the end of the run.

Timestamps come from :func:`time.perf_counter`, which on Linux reads the
system-wide monotonic clock, so spans from the server process and from the
load generator line up in one Chrome trace.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Public methods of these classes make up the simulator's fine layers.
SIM_FINE_LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    # (layer, "module:Class", method names; empty = every public function)
    ("core.lsq", "repro.core.policy:LSQPolicy",
     ("load_issued", "store_issued", "load_committed", "store_committed")),
    ("core.store_buffer", "repro.core.queues:StoreBuffer", ()),
    ("core.ert", "repro.core.ert:EpochResolutionTable",
     ("insert_store", "insert_load", "store_candidate_epochs", "load_candidate_epochs",
      "clear_epoch")),
    ("core.svw", "repro.core.svw:StoreVulnerabilityWindow", ()),
    ("memory.access", "repro.memory.hierarchy:MemoryHierarchy",
     ("access", "probe_level", "lock_l1_line")),
    ("common.stats.bump", "repro.common.stats:StatsRegistry", ("bump",)),
)

#: Coarse simulator layers: (layer, target).  ``module:Class.method`` patches
#: a class attribute; ``module:function`` rebinds the function in every
#: loaded ``repro`` module that imported it by name.
SIM_COARSE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("workloads.generate", "repro.workloads.suite:generate_member_trace"),
    ("sim.configs.build", "repro.sim.configs:MachineConfig.build"),
    ("sim.engine.warmup", "repro.sim.engine.fast:warm_hierarchy"),
    ("sim.engine.drive", "repro.sim.engine.fast:FastEngine.run"),
)

#: Calls counted without timing (no frame, so no self-time effect).
SIM_COUNTED: Tuple[Tuple[str, str], ...] = (
    ("memory.warm_replays", "repro.memory.hierarchy:MemoryHierarchy.warm_up_regions"),
)

#: Serving layers, all coarse (a few calls per request).
SERVE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("service.http.read", "repro.service.http:read_request"),
    ("service.jobs.admit", "repro.service.jobs:JobManager.submit"),
    ("service.jobs.execute", "repro.service.jobs:JobManager._execute"),
    ("exp.cache.get", "repro.exp.cache:ResultCache.get"),
    ("exp.cache.put", "repro.exp.cache:ResultCache.put"),
    ("service.journal.append", "repro.service.journal:JobJournal.append"),
)


def _request_sid(request: Any) -> Optional[str]:
    headers = getattr(request, "headers", None) or {}
    return headers.get("x-repro-trace-id")


def _submit_sid(args: tuple, kwargs: dict) -> Optional[str]:
    return args[2] if len(args) > 2 else kwargs.get("trace_id")


def _execute_sid(args: tuple, kwargs: dict) -> Optional[str]:
    return getattr(args[1], "trace_id", None) if len(args) > 1 else None


#: Layers whose span id comes from the call itself rather than its parent.
_SID_FROM_ARGS: Dict[str, Callable[[tuple, dict], Optional[str]]] = {
    "service.jobs.admit": _submit_sid,
    "service.jobs.execute": _execute_sid,
}


class _ThreadState:
    __slots__ = ("frames", "totals", "counts", "tid")

    def __init__(self) -> None:
        self.frames: List[list] = []
        self.totals: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self.tid = threading.get_ident() & 0xFFFF


class Tracer:
    """Records spans and per-layer self time for one process."""

    def __init__(self) -> None:
        #: (name, start, end, parent span index or -1, shared id, thread id)
        self.spans: List[Tuple[str, float, float, int, Any, int]] = []
        #: Targets named in the layer tables that this revision does not have.
        self.missing: List[str] = []
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    # -- recording -------------------------------------------------------

    def _enter(self, layer: str, keep: bool, sid: Any) -> Tuple[_ThreadState, list]:
        state = self._state()
        frames = state.frames
        parent = frames[-1] if frames else None
        if sid is None and parent is not None:
            sid = parent[2]
        parent_span = parent[1] if parent is not None else -1
        # [child seconds, span index (own if kept, else the parent's), id,
        #  whether the caller is the same layer (then the call is not counted),
        #  layer]
        frame = [0.0, parent_span, sid, parent is not None and parent[4] == layer, layer]
        if keep:
            with self._lock:  # the server records spans from several threads
                frame[1] = len(self.spans)
                self.spans.append((layer, 0.0, 0.0, parent_span, sid, state.tid))
        frames.append(frame)
        return state, frame

    def _exit(self, state: _ThreadState, frame: list, layer: str, keep: bool,
              start: float, end: float) -> None:
        frames = state.frames
        frames.pop()
        elapsed = end - start
        _add(state, layer, elapsed - frame[0], 0 if frame[3] else 1)
        if frames:
            frames[-1][0] += elapsed
        if keep:
            index = frame[1]
            parent_span, tid = self.spans[index][3], self.spans[index][5]
            self.spans[index] = (layer, start, end, parent_span, frame[2], tid)

    @contextmanager
    def span(self, layer: str, sid: Any = None) -> Iterator[None]:
        """Time a block as a kept span of ``layer`` (the benchmark's own roots)."""
        state, frame = self._enter(layer, True, sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(state, frame, layer, True, start, time.perf_counter())

    def timed(self, func: Callable, layer: str, keep: bool,
              sid_of: Optional[Callable[[tuple, dict], Any]] = None) -> Callable:
        """Wrap ``func`` so every call is timed as ``layer``."""
        perf = time.perf_counter
        enter, leave = self._enter, self._exit

        if inspect.iscoroutinefunction(func):
            # Other coroutines run on this thread while the call awaits, so
            # it must not sit on the frame stack: its span is a root and its
            # whole duration (waiting for bytes included) is self time.
            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                start = perf()
                result = None
                try:
                    result = await func(*args, **kwargs)
                    return result
                finally:
                    end = perf()
                    state = self._state()
                    if keep:
                        with self._lock:
                            self.spans.append(
                                (layer, start, end, -1, _request_sid(result), state.tid))
                    _add(state, layer, end - start, 0 if result is None else 1)

            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state, frame = enter(layer, keep, sid_of(args, kwargs) if sid_of else None)
            start = perf()
            try:
                return func(*args, **kwargs)
            finally:
                leave(state, frame, layer, keep, start, perf())

        return wrapper

    def counted(self, func: Callable, name: str) -> Callable:
        """Wrap ``func`` so its calls are counted, not timed."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts = self._state().counts
            counts[name] = counts.get(name, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        module_name, _, attribute = target.partition(":")
        try:
            module = __import__(module_name, fromlist=["_"])
        except ImportError:
            self.missing.append(target)
            return
        owner_name, _, method = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = owner.__dict__.get(method) if owner is not None else None
            if original is None:
                self.missing.append(target)
                return
            setattr(owner, method, make(original))
            return
        original = getattr(module, method, None)
        if original is None:
            self.missing.append(target)
            return
        wrapper = make(original)
        # Rebind in every module that imported the function by name.
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and \
                    getattr(loaded, method, None) is original:
                setattr(loaded, method, wrapper)

    def install_sim(self) -> None:
        """Wrap the simulator's layers (generation, build, warm-up, drive, core)."""
        import repro.core  # noqa: F401 -- defines every LSQ policy subclass
        import repro.exp.runner  # noqa: F401 -- imports generate_member_trace by name
        import repro.sim.engine  # noqa: F401 -- registers the engines

        for layer, target in SIM_COARSE_LAYERS:
            self._patch(target, lambda f, layer=layer: self.timed(f, layer, keep=True))
        for name, target in SIM_COUNTED:
            self._patch(target, lambda f, name=name: self.counted(f, name))
        for layer, class_path, methods in SIM_FINE_LAYERS:
            module_name, _, class_name = class_path.partition(":")
            module = __import__(module_name, fromlist=["_"])
            base = getattr(module, class_name, None)
            if base is None:
                self.missing.append(class_path)
                continue
            for cls in _with_subclasses(base):
                for name, value in list(vars(cls).items()):
                    wanted = name in methods if methods else not name.startswith("_")
                    if wanted and inspect.isfunction(value) and \
                            not getattr(value, "__isabstractmethod__", False):
                        setattr(cls, name, self.timed(value, layer, keep=False))

    def install_serve(self) -> None:
        """Wrap the serving layers (HTTP framing, admission, execution, I/O)."""
        import repro.service.server  # noqa: F401 -- imports read_request by name

        for layer, target in SERVE_LAYERS:
            sid_of = _SID_FROM_ARGS.get(layer)
            self._patch(
                target, lambda f, layer=layer, sid_of=sid_of: self.timed(
                    f, layer, keep=True, sid_of=sid_of)
            )

    # -- reporting -------------------------------------------------------

    def layer_totals(self) -> Dict[str, List[float]]:
        """``{layer: [self seconds, calls]}`` summed over every thread."""
        merged: Dict[str, List[float]] = {}
        for state in list(self._threads):
            for layer, (seconds, calls) in list(state.totals.items()):
                entry = merged.setdefault(layer, [0.0, 0])
                entry[0] += seconds
                entry[1] += calls
        return merged

    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for state in list(self._threads):
            for name, count in list(state.counts.items()):
                merged[name] = merged.get(name, 0) + count
        return merged

    def chrome_events(self, pid: int, process_name: str,
                      span_args: Optional[Dict[int, Dict[str, Any]]] = None) -> List[dict]:
        """The kept spans as Chrome trace events (``ph: X``, microseconds)."""
        span_args = span_args or {}
        events: List[dict] = [
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": process_name}}
        ]
        for index, (name, start, end, parent, sid, tid) in enumerate(self.spans):
            args = {"id": sid, "parent": parent, "span": index}
            args.update(span_args.get(index, {}))
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": round(start * 1e6, 3), "dur": round((end - start) * 1e6, 3),
                "pid": pid, "tid": tid, "args": args,
            })
        return events


def _add(state: _ThreadState, layer: str, seconds: float, calls: int) -> None:
    total = state.totals.get(layer)
    if total is None:
        total = state.totals[layer] = [0.0, 0]
    total[0] += seconds
    total[1] += calls


def _with_subclasses(base: type) -> List[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


def layer_delta(after: Dict[str, List[float]],
                before: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """Per-layer ``after - before`` (the totals of one simulation)."""
    return {
        layer: [seconds - before.get(layer, [0.0, 0])[0], calls - before.get(layer, [0.0, 0])[1]]
        for layer, (seconds, calls) in after.items()
    }

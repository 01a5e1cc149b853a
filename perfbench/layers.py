"""Per-layer attribution for the traced run.

Wrappers defined here time calls into each layer's public functions and
count what those calls did.  They are installed only in the traced run
(and, through :func:`install_in_shard`, in the shard processes that run
spawns), never in the run that measures the end-to-end metrics.  The
service's own span trees (``--trace-sample 1``) and its ``/v1/stats``
counters fill in what happens behind the scheduler and inside shards.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Dict
from typing import List
from typing import Optional

#: Environment variable that makes a spawned shard install the wrappers.
SHARD_ENV = "PERFBENCH_SHARD_LAYERS"

#: Key under which a shard adds its wrapper totals to a ``stats`` reply.
SHARD_STATS_KEY = "perfbench.layers"


class Layers:
    """Thread-safe call timers and counters, keyed by layer metric."""

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {"seconds": dict(self.seconds), "calls": dict(self.calls),
                    "counts": dict(self.counts)}

    def add(self, key: Optional[str] = None, seconds: float = 0.0, **counts) -> None:
        """Record one call of ``key`` taking ``seconds``, and/or counters."""
        with self._lock:
            if key is not None:
                self.seconds[key] += seconds
                self.calls[key] += 1
            for name, value in counts.items():
                self.counts[name] += value

    def mark(self, name: str) -> None:
        """Raise a flag on the calling thread (read back by :meth:`take`)."""
        marks = getattr(self._local, "marks", None)
        if marks is None:
            marks = self._local.marks = set()
        marks.add(name)

    def take(self, name: str) -> bool:
        """Whether the calling thread raised ``name`` since the last take."""
        marks = getattr(self._local, "marks", None)
        if not marks or name not in marks:
            return False
        marks.discard(name)
        return True

    def _enter(self, key: str) -> bool:
        depth = getattr(self._local, "depth", None)
        if depth is None:
            depth = self._local.depth = defaultdict(int)
        depth[key] += 1
        return depth[key] == 1

    def _exit(self, key: str) -> None:
        self._local.depth[key] -= 1

    def timed(self, key: str, function, after=None, before=None):
        """Wrap ``function``; only the outermost call of ``key`` is timed.

        ``before()`` runs as that call starts; ``after(result, args)`` may
        return extra counters for it.
        """
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    self.add(key, time.perf_counter() - start)
            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self._enter(key):
                try:
                    return function(*args, **kwargs)
                finally:
                    self._exit(key)
            if before is not None:
                before()
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                self._exit(key)
                extra = after(result, args) if after is not None else {}
                self.add(key, elapsed, **extra)
        return wrapper

    def counted(self, name: str, function, amount=None):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            self.add(**{name: amount(args) if amount else 1})
            return result
        return wrapper


def rebind(original, replacement) -> None:
    """Point every ``repro`` module-level name bound to ``original`` at ``replacement``.

    Modules import these functions by name, so patching the defining
    module alone would miss the copies bound at import time.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install(layers: Layers) -> None:
    """Install the library-level wrappers (compiler, spe, engine, plan, events)."""
    import repro.compiler
    import repro.events
    import repro.spe
    from repro.compiler.parser import SpplParser
    from repro.engine import SpplModel
    from repro.plan.planner import QueryPlanner
    from repro.spe.base import QueryCache
    from repro.spe.compiled import CompiledSPE

    def translated(result, args):
        return {"compiler.spe_nodes": result.size() if result is not None else 0}

    original = repro.compiler.compile_command
    rebind(original, layers.timed("compiler.translate", original, translated))
    original = repro.spe.compile_spe
    rebind(original, layers.timed("kernel.compile", original))
    SpplParser.parse_event = layers.timed("events.parse", SpplParser.parse_event)
    original = repro.events.event_digest
    rebind(original, layers.timed("events.digest", original))

    for method in ("condition", "constrain"):
        setattr(SpplModel, method, layers.timed("spe.condition", getattr(SpplModel, method)))
    for method in ("prob", "logprob", "logpdf"):
        setattr(SpplModel, method, layers.timed("engine.query", getattr(SpplModel, method)))

    # The route a batch took is read from what happened, not from the
    # engine's own test: a batch counts as compiled when a kernel sweep
    # answered during it (the kernel returns None when it declines, and
    # an explicit memo bypasses it).  The flag is cleared as a batch
    # starts: the planner's validation also sweeps kernels outside any
    # batch.
    def kernel_answered(result, args):
        if result is not None:
            layers.mark("kernel.answered")
        return {}

    def batch_route(result, args):
        compiled = layers.take("kernel.answered")
        return {"engine.events": len(args[1]),
                "engine.batches_compiled": 1 if compiled else 0,
                "engine.batches_interpreted": 0 if compiled else 1}

    def clear_route():
        layers.take("kernel.answered")

    for method in ("logprob_batch", "logpdf_batch"):
        setattr(SpplModel, method, layers.timed(
            "engine.batch", getattr(SpplModel, method), batch_route, clear_route))
        setattr(CompiledSPE, method, layers.timed(
            "kernel.sweep", getattr(CompiledSPE, method), kernel_answered))
    for method in ("plan_logprob", "plan_condition", "order_chain", "dedup_batch"):
        setattr(QueryPlanner, method, layers.timed("plan", getattr(QueryPlanner, method)))

    QueryCache.record_hit = layers.counted("spe.cache_hits", QueryCache.record_hit)
    QueryCache.record_miss = layers.counted("spe.cache_misses", QueryCache.record_miss)
    evict = QueryCache._evict_over_bound

    @functools.wraps(evict)
    def counted_evict(self, *args, **kwargs):
        before = self.evictions
        try:
            return evict(self, *args, **kwargs)
        finally:
            layers.add(**{"spe.cache_evictions": self.evictions - before})

    QueryCache._evict_over_bound = counted_evict


def install_serve(layers: Layers, spans: "SpanLog") -> None:
    """Wrap the front end: HTTP decode/encode, dispatch, sessions, recorder."""
    from repro.obs.recorder import FlightRecorder
    from repro.serve import http
    from repro.serve import wire
    from repro.serve.sessions import SessionStore

    for name in ("parse_request_line", "parse_request"):
        setattr(wire, name, layers.timed("http.decode", getattr(wire, name)))
    for name in ("encode_response", "encode_error_line", "encode_overloaded_line"):
        setattr(wire, name, layers.timed("http.encode", getattr(wire, name)))
    http._json_response = layers.timed("http.encode", http._json_response)
    service = http.InferenceService
    service._dispatch = layers.timed("http.dispatch", service._dispatch)
    service._handle_session_observe = layers.timed(
        "sessions.observe", service._handle_session_observe)
    SessionStore.commit_observe = layers.counted(
        "sessions.chain_steps", SessionStore.commit_observe,
        amount=lambda args: len(args[2]))
    observe = FlightRecorder.observe

    @functools.wraps(observe)
    def recorded(self, trace, trace_id, duration_ms, *args, **kwargs):
        observe(self, trace, trace_id, duration_ms, *args, **kwargs)
        if trace is not None:
            entry = self._traces.get(trace_id)
            if entry is not None:
                spans.add(trace_id, entry["spans"])

    FlightRecorder.observe = recorded


def install_in_shard() -> None:
    """Inside a spawned shard: wrap the library and report through ``stats``."""
    from repro.serve.transport import ShardHost
    from repro.spe import intern_stats

    layers = Layers()
    install(layers)
    handle = ShardHost.handle

    @functools.wraps(handle)
    def reporting(self, message):
        reply = handle(self, message)
        if message[0] == "stats" and reply[0] == "stats":
            report = layers.snapshot()
            report["intern"] = intern_stats()
            reply[1][SHARD_STATS_KEY] = report
        return reply

    ShardHost.handle = reporting


# -- Span trees --------------------------------------------------------------------------


class SpanLog:
    """Compact summaries of recorded request traces, keyed by trace id.

    Batch-level spans are shared by every request of a batch (each
    request's tree carries a grafted copy), so they are kept once per
    ``batch_id``.
    """

    def __init__(self):
        self.requests: Dict[str, tuple] = {}
        self.batches: Dict[int, Dict[str, float]] = {}

    def add(self, trace_id: str, root: Dict) -> None:
        queue = 0.0
        batch_ms = 0.0
        for child in root.get("children", ()):
            name = child.get("name")
            if name == "scheduler.queue":
                queue += child["dur_us"] / 1e3
            elif name == "batch":
                batch_ms = child["dur_us"] / 1e3
                batch_id = child.get("tags", {}).get("batch_id")
                if batch_id is not None and batch_id not in self.batches:
                    self.batches[batch_id] = _batch_summary(child)
        self.requests[trace_id] = (root["dur_us"] / 1e3, queue, batch_ms)


def _batch_summary(batch: Dict) -> Dict[str, float]:
    """Front-end round trips to shards, and the worker-side time inside them."""
    summary = {"dispatch_ms": 0.0, "dispatches": 0, "shard_ms": 0.0}

    def walk(node: Dict) -> None:
        name = node.get("name")
        if name == "shard.dispatch":
            summary["dispatch_ms"] += node.get("dur_us", 0) / 1e3
            summary["dispatches"] += 1
        elif name == "worker.batch":
            summary["shard_ms"] += node.get("dur_us", 0) / 1e3
        for child in node.get("children", ()) or ():
            walk(child)

    walk(batch)
    return summary


def per_call_ms(before: Dict, after: Dict, key: str) -> float:
    calls = after["calls"].get(key, 0) - before["calls"].get(key, 0)
    seconds = after["seconds"].get(key, 0.0) - before["seconds"].get(key, 0.0)
    return 1e3 * seconds / calls if calls else 0.0


def total_ms(before: Dict, after: Dict, key: str) -> float:
    return 1e3 * (after["seconds"].get(key, 0.0) - before["seconds"].get(key, 0.0))


def total_calls(before: Dict, after: Dict, key: str) -> int:
    return after["calls"].get(key, 0) - before["calls"].get(key, 0)


def count(before: Dict, after: Dict, name: str) -> float:
    return after["counts"].get(name, 0) - before["counts"].get(name, 0)


def merge(snapshots: List[Optional[Dict]]) -> Dict:
    """Sum several wrapper snapshots (benchmark process plus shards)."""
    merged = {"seconds": defaultdict(float), "calls": defaultdict(int),
              "counts": defaultdict(float)}
    for snap in snapshots:
        if not snap:
            continue
        for section in ("seconds", "calls", "counts"):
            for key, value in snap.get(section, {}).items():
                merged[section][key] += value
    return {section: dict(values) for section, values in merged.items()}

"""Runner of the serve workloads (``serve_cold``, ``serve_sessions``).

Untraced run: the real CLI (``python -m repro.serve``) is launched with
its worker count pinned, driven by the closed-loop load generator in this
process, and torn down -- gracefully, then by SIGKILL past a timeout --
after every run, failed ones included.

Traced run: the same CLI entry point runs inside this process with the
same flags plus ``--trace-sample 1``, so the wrappers of
:mod:`perfbench.layers` see every call into the layers; the load
generator runs as a subprocess and rebuilds the same callers from the
seed.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from typing import Dict
from typing import List
from typing import Optional
from typing import Tuple

from perfbench import common
from perfbench import loadgen
from perfbench import metrics_spec
from perfbench import workloads

#: Server launches per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Longest a server may take to come up, and to shut down before SIGKILL.
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 10.0


def cli_flags(workload) -> List[str]:
    flags = ["--port", "0", "--workers", str(workload.workers)]
    for model in workload.models:
        flags += ["--model", model]
    return flags


class Server:
    """One ``python -m repro.serve`` process, always stopped on exit."""

    def __init__(self, workload):
        self.command = [sys.executable, "-m", "repro.serve"] + cli_flags(workload)
        self.process: Optional[subprocess.Popen] = None
        self.setup_s = 0.0
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        self.killed = False

    def __enter__(self) -> "Server":
        start = time.perf_counter()
        self.process = subprocess.Popen(
            self.command, stdout=subprocess.PIPE, env=common.child_env(),
            cwd=str(common.ROOT), text=True,
        )
        try:
            line = self._read_line(start + START_TIMEOUT_S)
            self.setup_s = time.perf_counter() - start
            if " listening on " not in line:
                raise common.BenchmarkError("server did not start: %r" % (line,))
            host, port = line.split(" listening on ")[1].split(" ")[0].rsplit(":", 1)
            self.address = (host, int(port))
        except BaseException:
            self.stop()
            raise
        return self

    def _read_line(self, deadline: float) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=max(0.0, deadline - time.perf_counter())):
                raise common.BenchmarkError("server start timed out")
        return self.process.stdout.readline()

    def stop(self) -> None:
        if self.process is not None:
            self.killed = common.stop_process(self.process, STOP_TIMEOUT_S, "repro.serve")
            self.process.stdout.close()

    def __exit__(self, *exc) -> None:
        self.stop()


def fetch_stats(address) -> Dict:
    status, body = loadgen.request_once(address, loadgen.http_get("/v1/stats"))
    if status != 200:
        raise common.BenchmarkError("/v1/stats answered %d" % (status,))
    return json.loads(body)


def window_samples(samples, deadline: float):
    return [sample for sample in samples if sample[4] <= deadline]


def end_to_end_metrics(workload, setups, samples, deadline, seconds,
                       cpu_s, rss) -> Dict:
    window = window_samples(samples, deadline)
    latencies = sorted(1e3 * (received - sent) for _, _, _, sent, received in window)
    conditioning = [1e3 * (received - sent) for tag, _, _, sent, received in window
                    if workload.conditions(tag)]
    return metrics_spec.end_to_end({
        "setup_s": common.median(setups),
        "ops_per_s": len(window) / seconds,
        "latency_p50_ms": common.latency_median(latencies),
        "observe_p50_ms": common.latency_median(conditioning),
        "cpu_ms_per_op": 1e3 * cpu_s / len(samples),
        "rss_mb": rss,
    })


def run(name: str, seed: int, seconds: float, trace: bool) -> None:
    workload = workloads.make(name, seed, seconds)
    if trace:
        return run_traced(workload, seed, seconds)
    setups = []
    teardown_killed = False
    for _ in range(SETUP_REPEATS - 1):
        with Server(workload) as server:
            setups.append(server.setup_s)
        teardown_killed = teardown_killed or server.killed
    server = Server(workload)
    with server:
        setups.append(server.setup_s)
        before = fetch_stats(server.address)
        pids = common.descendants(server.process.pid)
        cpu_start = common.cpu_seconds(pids)
        ticks = common.host_ticks()
        samples, _, deadline = loadgen.drive(server.address, workload.slots(), seconds)
        steal = common.steal_note(ticks, common.host_ticks())
        cpu_s = common.cpu_seconds(pids) - cpu_start
        rss = common.peak_rss_mb(pids)
        after = fetch_stats(server.address)
    failed, notes = workload.check(samples)
    premise_ok, premise = workload.premise(before, after)
    metrics = end_to_end_metrics(workload, setups, samples, deadline, seconds, cpu_s, rss)
    notes = [describe(workload, samples, deadline)] + notes + [
        premise,
        steal,
        "setup samples (s): %s" % (" ".join("%.3f" % value for value in setups),),
        "teardown: %s" % ("SIGKILL needed" if server.killed or teardown_killed
                          else "graceful within %.0f s" % (STOP_TIMEOUT_S,)),
    ]
    common.emit(premise_ok, len(samples), failed, metrics, notes)


def describe(workload, samples, deadline) -> str:
    window = window_samples(samples, deadline)
    latencies = sorted(1e3 * (received - sent) for _, _, _, sent, received in window)
    return ("workload %s: %d processes (--workers %d), %d connections, %d "
            "operations in the window, %d drained after it; latency p99 %.3f ms "
            "(reported, not gated)"
            % (workload.name, 1 + workload.workers, workload.workers,
               workloads.CONNECTIONS, len(window), len(samples) - len(window),
               common.quantile(latencies, 0.99)))


# -- Traced run -------------------------------------------------------------------------


def run_traced(workload, seed: int, seconds: float) -> None:
    from repro.serve import __main__ as cli
    from repro.serve.http import InferenceService
    from repro.spe import intern_stats

    from perfbench import layers as lm

    layers = lm.Layers()
    spans = lm.SpanLog()
    lm.install(layers)
    lm.install_serve(layers, spans)
    # Spawned shards re-import the main script; this makes them wrap too.
    os.environ[lm.SHARD_ENV] = "1"
    initial = layers.snapshot()
    state: Dict = {}
    start_service = InferenceService.start

    async def started(service):
        address = await start_service(service)
        state["setup"] = layers.snapshot()
        state["task"] = asyncio.ensure_future(drive_traced(address))
        return address

    async def drive_traced(address):
        loop = asyncio.get_running_loop()
        try:
            state["before_stats"] = await loop.run_in_executor(None, fetch_stats, address)
            state["before"] = layers.snapshot()
            state["intern_before"] = intern_stats()
            plan = {"root": str(common.ROOT), "workload": workload.name, "seed": seed,
                    "seconds": seconds, "host": address[0], "port": address[1]}
            process = await asyncio.create_subprocess_exec(
                sys.executable, str(common.ROOT / "perfbench" / "loadgen.py"),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=common.child_env(),
            )
            output, _ = await process.communicate(json.dumps(plan).encode("utf-8"))
            if process.returncode != 0:
                raise common.BenchmarkError("load generator failed (%d)" % process.returncode)
            state["after"] = layers.snapshot()
            state["intern_after"] = intern_stats()
            state["after_stats"] = await loop.run_in_executor(None, fetch_stats, address)
            status, _ = await loop.run_in_executor(
                None, loadgen.request_once, address, loadgen.http_get("/metrics"))
            state["metrics_status"] = status
            state["load"] = json.loads(output)
        except BaseException as error:
            state["error"] = error
        finally:
            os.kill(os.getpid(), signal.SIGTERM)

    InferenceService.start = started
    args = cli.build_parser().parse_args(cli_flags(workload) + ["--trace-sample", "1"])
    # The CLI prints its banner on stdout; keep stdout for the result.
    with contextlib.redirect_stdout(io.StringIO()):
        asyncio.run(cli.run(args))
    if "error" in state:
        raise state["error"]
    load = state["load"]
    if load.get("exhausted"):
        raise common.BenchmarkError("%s ran out of pre-rendered requests" % workload.name)
    samples = [(tag, status, body.encode("utf-8"), sent, received)
               for tag, status, body, sent, received in load["samples"]]
    deadline = load["deadline"]
    failed, notes = workload.check(samples)
    premise_ok, premise = workload.premise(state["before_stats"], state["after_stats"])
    values = serve_layer_values(workload, state, initial, spans, samples, deadline,
                                seconds, intern_stats)
    notes = [describe(workload, samples, deadline)] + notes + [
        premise,
        "traced: %d request span trees, %d batches; /metrics answered %d"
        % (len(spans.requests), len(spans.batches), state["metrics_status"]),
    ]
    common.emit(premise_ok, len(samples), failed, metrics_spec.layer_metrics(values), notes)


def _shard_layers(stats: Dict) -> List[Dict]:
    from perfbench import layers as lm

    return [shard.get(lm.SHARD_STATS_KEY) for shard in
            stats.get("backend", {}).get("shards", [])]


def _model_sum(stats: Dict, key: str) -> float:
    return sum(block.get(key, 0) for block in workloads.model_stats(stats))


def _plan_outcomes(stats: Dict, outcome: str) -> float:
    total = 0
    for block in workloads.model_stats(stats):
        for counts in block.get("plan", {}).get("passes", {}).values():
            total += sum(value for name, value in counts.items() if outcome in name)
    return total


def serve_layer_values(workload, state, initial, spans, samples, deadline,
                       seconds, intern_stats) -> Dict[str, float]:
    from perfbench import layers as lm

    before_stats, after_stats = state["before_stats"], state["after_stats"]
    shard_before = _shard_layers(before_stats)
    shard_after = _shard_layers(after_stats)
    before = lm.merge([state["before"]] + shard_before)
    after = lm.merge([state["after"]] + shard_after)
    operations = len(samples)

    def delta(path: Tuple[str, ...]) -> float:
        first, second = before_stats, after_stats
        for key in path:
            first, second = first.get(key, {}), second.get(key, {})
        return (second or 0) - (first or 0)

    intern_hits = state["intern_after"]["hits"] - state["intern_before"]["hits"]
    intern_misses = state["intern_after"]["misses"] - state["intern_before"]["misses"]
    for first, second in zip(shard_before, shard_after):
        if first and second:
            intern_hits += second["intern"]["hits"] - first["intern"]["hits"]
            intern_misses += second["intern"]["misses"] - first["intern"]["misses"]

    batches = list(spans.batches.values())
    dispatches = sum(batch["dispatches"] for batch in batches)
    requests = list(spans.requests.values())
    decode = lm.per_call_ms(before, after, "http.decode")
    encode = lm.per_call_ms(before, after, "http.encode")
    residuals = []
    window = window_samples(samples, deadline)
    for _, status, body, sent, received in window:
        try:
            trace_id = json.loads(body).get("trace")
        except ValueError:
            continue
        summary = spans.requests.get(trace_id)
        if summary is not None:
            _, queue_ms, batch_ms = summary
            residuals.append(1e3 * (received - sent) - decode - encode - queue_ms - batch_ms)
    translate_calls = lm.total_calls(initial, state["setup"], "compiler.translate")
    batches_delta = delta(("scheduler", "batches"))
    observes = delta(("sessions", "observes"))
    latencies = [1e3 * (received - sent) for _, _, _, sent, received in window]
    return {
        "compiler.translate_ms": lm.per_call_ms(initial, state["setup"], "compiler.translate"),
        "compiler.spe_nodes": (lm.count(initial, state["setup"], "compiler.spe_nodes")
                               / translate_calls if translate_calls else 0.0),
        "kernel.compile_ms": lm.total_ms(initial, state["setup"], "kernel.compile"),
        "spe.intern_hits": intern_hits / operations,
        "spe.intern_misses": intern_misses / operations,
        "spe.condition_ms": lm.total_ms(before, after, "spe.condition") / operations,
        "spe.cache_hits": (_model_sum(after_stats, "hits")
                           - _model_sum(before_stats, "hits")) / operations,
        "spe.cache_misses": (_model_sum(after_stats, "misses")
                             - _model_sum(before_stats, "misses")) / operations,
        "spe.cache_evictions": (_model_sum(after_stats, "evictions")
                                - _model_sum(before_stats, "evictions")) / operations,
        "engine.query_ms": lm.total_ms(before, after, "engine.query") / operations,
        "engine.batch_ms": lm.per_call_ms(before, after, "engine.batch"),
        "engine.events_per_batch": common.ratio(
            lm.count(before, after, "engine.events"),
            lm.total_calls(before, after, "engine.batch")),
        "engine.batches_compiled": lm.count(before, after, "engine.batches_compiled"),
        "engine.batches_interpreted": lm.count(before, after, "engine.batches_interpreted"),
        "kernel.sweep_ms": lm.per_call_ms(before, after, "kernel.sweep"),
        "plan.ms": lm.total_ms(before, after, "plan") / operations,
        "plan.applied": (_plan_outcomes(after_stats, "applied")
                         - _plan_outcomes(before_stats, "applied")) / operations,
        "plan.fallbacks": (_plan_outcomes(after_stats, "fallback")
                           - _plan_outcomes(before_stats, "fallback")) / operations,
        "events.parse_ms": lm.total_ms(before, after, "events.parse") / operations,
        "events.digest_ms": lm.total_ms(before, after, "events.digest") / operations,
        "http.decode_ms": lm.total_ms(before, after, "http.decode") / operations,
        "http.encode_ms": lm.total_ms(before, after, "http.encode") / operations,
        "http.requests": lm.total_calls(before, after, "http.dispatch"),
        "scheduler.queue_wait_ms": common.mean([queue for _, queue, _ in requests]),
        "scheduler.batches": batches_delta,
        "scheduler.batch_size": common.ratio(delta(("scheduler", "requests")), batches_delta),
        "scheduler.result_cache_hits": (_result(after_stats, "hits")
                                        - _result(before_stats, "hits")) / operations,
        "scheduler.result_cache_misses": (_result(after_stats, "misses")
                                          - _result(before_stats, "misses")) / operations,
        "scheduler.sheds": delta(("scheduler", "shed")),
        "transport.dispatch_ms": common.ratio(
            sum(b["dispatch_ms"] for b in batches), dispatches),
        "transport.shard_ms": common.ratio(sum(b["shard_ms"] for b in batches), dispatches),
        "pool.respawns": delta(("backend", "respawns")),
        "pool.requeued": delta(("backend", "requeued_batches")),
        "sessions.observe_ms": lm.per_call_ms(before, after, "sessions.observe"),
        "sessions.chain_len": common.ratio(
            lm.count(before, after, "sessions.chain_steps"), observes),
        "residual_ms": common.median(residuals) if residuals else 0.0,
        "traced.ops_per_s": len(window) / seconds,
        "traced.latency_p50_ms": common.latency_median(latencies),
    }


def _result(stats: Dict, key: str) -> float:
    return sum(block.get("results", {}).get(key, 0) for block in workloads.model_stats(stats))

"""The three serve workloads: their inputs, callers and output checks.

Each workload is generated from its seed before any clock starts and can
be regenerated bit for bit in another process (the traced run drives the
service from a load-generator subprocess that rebuilds the same slots).
"""

from __future__ import annotations

import json
import math
import random
from typing import Dict
from typing import List
from typing import Optional
from typing import Tuple

import numpy as np

from perfbench import events as ev
from perfbench.loadgen import RequestStream
from perfbench.loadgen import Slot
from perfbench.loadgen import StreamSlot
from perfbench.loadgen import http_post

#: Shape of the load: connections, and callers pipelining on each.
CONNECTIONS = 2
QUERY_DEPTH = 8
SESSIONS_PER_CONNECTION = 4

#: Requests pre-rendered per second of window for ``serve_cold`` (well
#: above any throughput the service reaches on two cores).
COLD_REQUESTS_PER_SECOND = 600

#: Heart-disease answers of ``serve_cold`` checked by path enumeration
#: (each check costs ~0.1 s; every hmm20 answer is checked).
COLD_HEART_CHECKS = 16

#: Session reads also checked by the Bayes-rule identity on the prior.
SESSION_BAYES_CHECKS = 8

SESSION_MODEL = "hmm10"
SESSION_STEPS = 10


class QueryWorkload:
    """``serve_cold``: never-repeating prob queries over hmm20 and heart_disease."""

    models = (ev.QueryMix.HMM, ev.QueryMix.HEART)

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.seed = seed
        self.workers = 1
        mix = ev.QueryMix(seed)
        count = int(COLD_REQUESTS_PER_SECOND * seconds) + 1000
        self.requests = [mix.next() for _ in range(count)]
        self.wire = [
            http_post("/v1/query", (json.dumps(ev.wire_line(request, index))
                                    + "\n").encode("utf-8"))
            for index, request in enumerate(self.requests)
        ]
        self.stream: Optional[RequestStream] = None

    def slots(self) -> List[List[Slot]]:
        self.stream = RequestStream(self.wire)
        return [[StreamSlot(self.stream) for _ in range(QUERY_DEPTH)]
                for _ in range(CONNECTIONS)]

    def conditions(self, tag) -> bool:
        """Whether the request conditions on evidence (``observe_p50_ms``)."""
        return self.requests[tag]["condition"] is not None

    def check(self, samples) -> Tuple[int, List[str]]:
        """Failed-operation count and notes for every sampled reply."""
        if self.stream is not None and self.stream.exhausted:
            raise RuntimeError("serve_cold ran out of pre-rendered requests")
        heart = ev.HeartOracle()
        hmm_cache: Dict[int, float] = {}
        heart_tags = sorted({tag for tag, *_ in samples
                             if self.requests[tag]["model"] == ev.QueryMix.HEART})
        rng = random.Random("perfbench-heart-checks-%d" % (self.seed,))
        heart_tags = rng.sample(heart_tags, min(COLD_HEART_CHECKS, len(heart_tags)))
        heart_checked = set(heart_tags)
        failed = 0
        checked = 0
        for tag, status, body, _, _ in samples:
            request = self.requests[tag]
            try:
                reply = json.loads(body)
            except ValueError:
                failed += 1
                continue
            if status != 200 or not reply.get("ok") or reply.get("id") != tag:
                failed += 1
                continue
            if request["model"] == ev.QueryMix.HMM:
                if tag not in hmm_cache:
                    hmm_cache[tag] = ev.hmm_prob(request["formula"], request["condition"])
                expected = hmm_cache[tag]
            elif tag in heart_checked:
                expected = heart.prob(request["formula"], request["condition"])
            else:
                continue
            checked += 1
            if not ev.close(reply["value"], expected):
                failed += 1
        notes = ["check: %d of %d replies compared with an independent oracle "
                 "(%d hmm20 forward-pass, %d heart_disease path-enumeration)"
                 % (checked, len(samples), sum(1 for t, *_ in samples
                                               if self.requests[t]["model"] == ev.QueryMix.HMM),
                    len(heart_checked))]
        return failed, notes

    def premise(self, before: Dict, after: Dict) -> Tuple[bool, str]:
        """ResultCache hits over the run, from the service's own counters."""
        hits = _result_cache(after, "hits") - _result_cache(before, "hits")
        misses = _result_cache(after, "misses") - _result_cache(before, "misses")
        share = hits / max(1, hits + misses)
        ok = share <= 0.01
        text = ("premise serve_cold: result-cache hits %d of %d lookups (%.2f%%), "
                "expected almost none" % (hits, hits + misses, 100 * share))
        return ok, text + (" -> ok" if ok else " -> FAILED")


def _result_cache(stats: Dict, key: str) -> int:
    total = 0
    for per_model in model_stats(stats):
        total += per_model.get("results", {}).get(key, 0)
    return total


def model_stats(stats: Dict) -> List[Dict]:
    """Every per-model statistics block of a ``/v1/stats`` snapshot."""
    backend = stats.get("backend", {})
    blocks = list(backend.get("models", {}).values())
    for shard in backend.get("shards", []):
        blocks.extend(value for name, value in shard.items()
                      if isinstance(value, dict) and "results" in value)
    return blocks


# -- Sessions -------------------------------------------------------------------------


def simulate_session(seed: int) -> Tuple[List[float], List[int]]:
    """Observations of one session, simulated from the HMM's generative process."""
    rng = np.random.default_rng(seed)
    separated = int(rng.random() < ev.HMM_P_SEPARATED)
    z = int(rng.random() < 0.5)
    xs, ys = [], []
    for step in range(SESSION_STEPS):
        if step:
            z = int(rng.random() < ev.HMM_P_TRANSITION[z])
        xs.append(float(rng.normal(ev.HMM_MU_X[separated][z], 1.0)))
        ys.append(int(rng.poisson(ev.HMM_MU_Y[separated][z])))
    return xs, ys


class SessionScript:
    """One session: create, (observe, read) x 20, delete."""

    def __init__(self, run_seed: int, index: int):
        self.index = index
        self.name = "s%d-%d" % (run_seed, index)
        xs, ys = simulate_session(hash_seed(run_seed, index))
        self.observations: List[tuple] = []
        for step in range(SESSION_STEPS):
            self.observations.append(ev.atom("X[%d]" % step, "in",
                                             (round(xs[step] - 0.5, 6),
                                              round(xs[step] + 0.5, 6))))
            self.observations.append(ev.atom("Y[%d]" % step, "==", ys[step]))
        self.length = 2 + 2 * len(self.observations)

    def request(self, step: int) -> bytes:
        base = "/v1/sessions/%s" % (self.name,)
        if step == 0:
            body = {"session": self.name, "model": SESSION_MODEL}
            return http_post("/v1/sessions", json.dumps(body).encode("utf-8"))
        if step == self.length - 1:
            return ("DELETE %s HTTP/1.1\r\nHost: bench\r\n\r\n" % (base,)).encode("ascii")
        observation = self.observations[(step - 1) // 2]
        if step % 2 == 1:
            body = {"event": ev.render(observation)}
            return http_post(base + "/observe", json.dumps(body).encode("utf-8"))
        body = {"event": "Z[%d] == 1" % (self.read_step(step),)}
        return http_post(base + "/query", json.dumps(body).encode("utf-8"))

    def kind(self, step: int) -> str:
        if step == 0:
            return "create"
        if step == self.length - 1:
            return "delete"
        return "observe" if step % 2 == 1 else "read"

    def read_step(self, step: int) -> int:
        return (step - 2) // 4

    def read_oracle(self, step: int) -> float:
        """P(Z[t] = 1 | observations so far), by the forward pass."""
        seen = self.observations[:step // 2]
        return ev.hmm_prob(ev.atom("Z[%d]" % self.read_step(step), "==", 1),
                           ("and", seen))


def hash_seed(run_seed: int, index: int) -> int:
    return (run_seed * 1000003 + index * 7919 + 17) % (2 ** 32)


#: Session tags pack (session index, step) into one int.
STEP_BASE = 64


class SessionSlot(Slot):
    def __init__(self, workload: "SessionWorkload"):
        self.workload = workload
        self.script: Optional[SessionScript] = None

    def _start(self):
        self.script = self.workload.new_session()
        return self.script.request(0), self.script.index * STEP_BASE

    def first(self):
        return self._start()

    def next(self, tag, status: int, body: bytes):
        step = tag % STEP_BASE + 1
        if step >= self.script.length:
            return self._start()
        return self.script.request(step), self.script.index * STEP_BASE + step


class SessionWorkload:
    """``serve_sessions``: streaming posterior sessions on hmm10."""

    models = (SESSION_MODEL,)
    workers = 1
    name = "serve_sessions"

    def __init__(self, name: str, seed: int, seconds: float):
        self.seed = seed
        self.scripts: Dict[int, SessionScript] = {}

    def new_session(self) -> SessionScript:
        index = len(self.scripts)
        script = self.scripts[index] = SessionScript(self.seed, index)
        return script

    def slots(self) -> List[List[Slot]]:
        return [[SessionSlot(self) for _ in range(SESSIONS_PER_CONNECTION)]
                for _ in range(CONNECTIONS)]

    def script(self, tag) -> SessionScript:
        index = tag // STEP_BASE
        if index not in self.scripts:
            self.scripts[index] = SessionScript(self.seed, index)
        return self.scripts[index]

    def conditions(self, tag) -> bool:
        return self.script(tag).kind(tag % STEP_BASE) == "observe"

    def check(self, samples) -> Tuple[int, List[str]]:
        from repro.workloads import hmm

        failed = 0
        reads = []
        for tag, status, body, _, _ in samples:
            script = self.script(tag)
            step = tag % STEP_BASE
            kind = script.kind(step)
            try:
                reply = json.loads(body)
            except ValueError:
                failed += 1
                continue
            if status != 200 or not reply.get("ok"):
                failed += 1
            elif kind == "observe" and reply.get("observes") != (step + 1) // 2:
                failed += 1
            elif kind == "read":
                reads.append((script, step, reply["value"]))
                if not ev.close(reply["value"], script.read_oracle(step)):
                    failed += 1
        # The Bayes-rule identity on the prior model, for a seeded sample.
        rng = random.Random("perfbench-bayes-%d" % (self.seed,))
        sample = rng.sample(reads, min(SESSION_BAYES_CHECKS, len(reads)))
        prior = hmm.model(SESSION_STEPS)
        bayes_failed = 0
        for script, step, value in sample:
            seen = " and ".join(ev.render(o) for o in script.observations[:step // 2])
            query = "Z[%d] == 1" % (script.read_step(step),)
            identity = math.exp(prior.logprob(query + " and " + seen)
                                - prior.logprob(seen))
            if not ev.close(value, identity):
                bayes_failed += 1
        notes = ["check: %d session reads compared with the forward pass; %d of "
                 "them with the Bayes-rule identity on the prior (%d disagree)"
                 % (len(reads), len(sample), bayes_failed)]
        return failed + bayes_failed, notes

    def premise(self, before: Dict, after: Dict) -> Tuple[bool, str]:
        created = after["sessions"]["created"] - before["sessions"]["created"]
        observes = after["sessions"]["observes"] - before["sessions"]["observes"]
        ok = created > 0 and observes > 0
        return ok, ("premise serve_sessions: %d sessions opened, %d observes "
                    "committed -> %s" % (created, observes, "ok" if ok else "FAILED"))


def make(name: str, seed: int, seconds: float):
    if name == "serve_sessions":
        return SessionWorkload(name, seed, seconds)
    return QueryWorkload(name, seed, seconds)

"""Closed-loop HTTP/1.1 load generator for the serve workloads.

One process, a few keep-alive connections, each holding a fixed number
of *slots*.  A slot is one caller: it sends its next request only when
the reply to its previous one has arrived, so the offered load falls as
the service slows (a closed loop).  Several slots on one connection
pipeline their requests; the service answers them in request order.

Latency of a request runs from just before its bytes are written to the
moment its whole response has been read.  Samples are kept raw; all
JSON decoding and checking happens after the run, off the clock.

Run as a script (the traced run, whose service lives in the benchmark
process) it reads a JSON plan on stdin and writes the raw samples as JSON
on stdout::

    python3 perfbench/loadgen.py < plan.json
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import time
from collections import deque
from typing import Deque
from typing import List
from typing import Optional
from typing import Tuple

#: A request as the slot produces it: its raw HTTP bytes and an opaque tag.
Outgoing = Tuple[bytes, object]

#: One completed exchange: (tag, status, body, sent, received).
Sample = Tuple[object, int, bytes, float, float]


def http_post(path: str, body: bytes, headers: str = "") -> bytes:
    return (
        "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n%s\r\n"
        % (path, len(body), headers)
    ).encode("ascii") + body


def http_get(path: str) -> bytes:
    return ("GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" % (path,)).encode("ascii")


class Slot:
    """One closed-loop caller; subclasses decide what it sends next."""

    def first(self) -> Optional[Outgoing]:
        raise NotImplementedError

    def next(self, tag, status: int, body: bytes) -> Optional[Outgoing]:
        raise NotImplementedError


class StreamSlot(Slot):
    """Draws every request, once, from one shared, pre-rendered list."""

    def __init__(self, stream: "RequestStream"):
        self.stream = stream

    def first(self) -> Optional[Outgoing]:
        return self.stream.take()

    def next(self, tag, status: int, body: bytes) -> Optional[Outgoing]:
        return self.stream.take()


class RequestStream:
    def __init__(self, requests: List[bytes]):
        self.requests = requests
        self.position = 0
        #: Set when the stream ran dry (its callers then stop).
        self.exhausted = False

    def take(self) -> Optional[Outgoing]:
        index = self.position
        if index >= len(self.requests):
            self.exhausted = True
            return None
        self.position += 1
        return self.requests[index], index


class _Connection:
    __slots__ = ("sock", "buffer", "outstanding")

    def __init__(self, address: Tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        self.outstanding: Deque[Tuple[Slot, object, float]] = deque()

    def send(self, slot: Slot, outgoing: Outgoing) -> None:
        data, tag = outgoing
        self.outstanding.append((slot, tag, time.perf_counter()))
        self.sock.sendall(data)

    def responses(self):
        """Yield (status, body) for every complete response buffered."""
        buffer = self.buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end < 0:
                return
            head = bytes(buffer[:end])
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            if len(buffer) < end + 4 + length:
                return
            body = bytes(buffer[end + 4:end + 4 + length])
            del buffer[:end + 4 + length]
            yield int(head[9:12]), body


def drive(address: Tuple[str, int], slots: List[List[Slot]], seconds: float,
          drain_timeout: float = 60.0) -> Tuple[List[Sample], float, float]:
    """Run the closed loop for ``seconds``; returns (samples, start, end).

    ``slots[c]`` are the callers on connection ``c``.  No request is sent
    after the window closes; outstanding ones are drained (and sampled)
    so every attempted request gets its reply checked.
    """
    connections = [_Connection(address) for _ in slots]
    selector = selectors.DefaultSelector()
    samples: List[Sample] = []
    try:
        for connection in connections:
            selector.register(connection.sock, selectors.EVENT_READ, connection)
        start = time.perf_counter()
        deadline = start + seconds
        for connection, callers in zip(connections, slots):
            for slot in callers:
                outgoing = slot.first()
                if outgoing is not None:
                    connection.send(slot, outgoing)
        hard_stop = deadline + drain_timeout
        while any(connection.outstanding for connection in connections):
            if time.perf_counter() > hard_stop:
                raise RuntimeError("service stopped answering (%d outstanding)"
                                   % sum(len(c.outstanding) for c in connections))
            for key, _ in selector.select(timeout=1.0):
                connection = key.data
                data = connection.sock.recv(262144)
                if not data:
                    raise RuntimeError("service closed a connection")
                connection.buffer += data
                for status, body in connection.responses():
                    received = time.perf_counter()
                    slot, tag, sent = connection.outstanding.popleft()
                    samples.append((tag, status, body, sent, received))
                    if received < deadline:
                        outgoing = slot.next(tag, status, body)
                        if outgoing is not None:
                            connection.send(slot, outgoing)
        return samples, start, deadline
    finally:
        selector.close()
        for connection in connections:
            connection.sock.close()


def request_once(address: Tuple[str, int], data: bytes) -> Tuple[int, bytes]:
    """One blocking request on a fresh connection (stats, metrics)."""
    connection = _Connection(address)
    try:
        connection.sock.sendall(data)
        while True:
            chunk = connection.sock.recv(262144)
            if not chunk:
                raise RuntimeError("service closed the connection")
            connection.buffer += chunk
            for status, body in connection.responses():
                return status, body
    finally:
        connection.sock.close()


def main() -> int:
    """Drive a service from a JSON plan on stdin (workload, seed, address)."""
    plan = json.load(sys.stdin)
    sys.path.insert(0, plan["root"])
    from perfbench import workloads

    workload = workloads.make(plan["workload"], plan["seed"], plan["seconds"])
    address = (plan["host"], plan["port"])
    samples, start, deadline = drive(address, workload.slots(), plan["seconds"])
    json.dump({
        "start": start,
        "deadline": deadline,
        "exhausted": bool(getattr(workload.stream, "exhausted", False)
                          if hasattr(workload, "stream") else False),
        "samples": [
            [tag, status, body.decode("utf-8"), sent, received]
            for tag, status, body, sent, received in samples
        ],
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

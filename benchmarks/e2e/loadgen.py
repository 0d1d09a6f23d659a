"""Closed-loop HTTP load generator: one thread, at most two connections.

A *round* is one request on connection 0, or two requests written
back-to-back on connections 0 and 1 so the server's batch window
coalesces them.  The next round starts only after every reply of the
current one has arrived.  Requests are encoded before the clock starts;
each goes out in a single ``sendall`` and replies are read through a
selector.  Reply bodies are kept and checked after the clock stops.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

#: Iterations of the fixed calibration loop run between rounds (~1 ms).
_CALIBRATION_ITERS = 20_000


@dataclass
class Request:
    """One request of the replayed sequence.

    ``kind`` is ``rtk``/``rkr`` for reads and the mutation name for
    writes; ``expected`` is the canonical reply body, when known before
    the run (static workloads).
    """

    kind: str
    path: str
    payload: dict
    expected: Optional[bytes] = None
    wire: bytes = b""

    @property
    def is_read(self) -> bool:
        return self.kind in ("rtk", "rkr")

    def encode(self, trace_id: str) -> None:
        body = json.dumps(self.payload).encode()
        self.wire = (
            f"POST {self.path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nX-Trace-Id: {trace_id}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )


Round = Tuple[Request, ...]


@dataclass
class Reply:
    latency_s: float
    status: int
    body: bytes


@dataclass
class PassRecord:
    """What one replay of the sequence observed, in sequence order."""

    replies: List[Reply] = field(default_factory=list)
    round_s: List[float] = field(default_factory=list)
    calibration_s: List[float] = field(default_factory=list)


class _Connection:
    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()

    def read_reply(self) -> Optional[Tuple[int, bytes]]:
        """Consume what the socket holds; a reply once it is complete."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection mid-reply")
        self._buf += chunk
        head_end = self._buf.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = bytes(self._buf[:head_end]).split(b"\r\n")
        status = int(head[0].split()[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        end = head_end + 4 + length
        if len(self._buf) < end:
            return None
        body = bytes(self._buf[head_end + 4:end])
        del self._buf[:end]
        return status, body

    def close(self) -> None:
        self.sock.close()


def _calibrate() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(_CALIBRATION_ITERS):
        acc += i * i
    return time.perf_counter() - start


class LoadGenerator:
    """Two keep-alive connections to one server and the round loop."""

    def __init__(self, url: str):
        parts = urlsplit(url)
        self._conns = [_Connection(parts.hostname, parts.port)
                       for _ in range(2)]
        self._selector = selectors.DefaultSelector()
        for index, conn in enumerate(self._conns):
            self._selector.register(conn.sock, selectors.EVENT_READ, index)

    def close(self) -> None:
        self._selector.close()
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "LoadGenerator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_round(self, reqs: Round) -> Tuple[List[Reply], float]:
        """Send the round, wait for every reply; latencies run from the
        first send to each reply's last byte."""
        replies: List[Optional[Reply]] = [None] * len(reqs)
        start = time.perf_counter()
        for conn, req in zip(self._conns, reqs):
            conn.sock.sendall(req.wire)
        pending = len(reqs)
        while pending:
            events = self._selector.select(timeout=60.0)
            if not events:
                raise TimeoutError("no reply within 60 s")
            for key, _ in events:
                done = self._conns[key.data].read_reply()
                if done is not None:
                    now = time.perf_counter()
                    replies[key.data] = Reply(now - start, *done)
                    pending -= 1
        return replies, max(r.latency_s for r in replies)

    def run_pass(self, rounds: Sequence[Round]) -> PassRecord:
        record = PassRecord()
        for reqs in rounds:
            replies, wall = self.run_round(reqs)
            record.replies.extend(replies)
            record.round_s.append(wall)
            record.calibration_s.append(_calibrate())
        return record

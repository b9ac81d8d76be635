"""Open- and closed-loop HTTP load from one process.

Both loops drive the server over at most :data:`CONNECTIONS`
keep-alive connections, one thread each: the reference host has two
cores, and the server runs in its own process, so the generator never
uses more threads or sockets than that.

The open loop sends on a seeded Poisson schedule whatever the server
does.  A request waits for a free connection when both are busy, and
its latency is timed from when it was *due*, so a stall is charged to
every request it delays.  ``lateness`` records how late the generator
itself sent a request once a connection was free; the caller rejects
a run whose generator fell behind.

All timestamps are ``time.perf_counter_ns()``: CLOCK_MONOTONIC, the
same clock the server's spans use, so the two can be compared.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass

#: Keep-alive connections (and client threads) the generator uses.
CONNECTIONS = 2

#: Per-request socket timeout; a timed-out request counts as failed.
TIMEOUT_S = 60.0


@dataclass
class Sample:
    """One request as the client saw it."""

    request: object
    conn: int
    due_ns: int | None
    sent_ns: int
    done_ns: int
    status: int | None
    body: bytes
    lateness_ns: int = 0

    @property
    def latency_s(self) -> float:
        """Seconds from due time (open loop) or send (closed loop)."""
        start = self.sent_ns if self.due_ns is None else self.due_ns
        return (self.done_ns - start) / 1e9


class Connection:
    """One keep-alive HTTP/1.1 connection; failures are returned, not
    raised, so a broken request is counted instead of ending the run."""

    def __init__(self, address: tuple) -> None:
        self._address = address
        self._conn = None

    def exchange(self, method: str, path: str, body: bytes | None = None):
        """``(status, body)``; ``status`` is ``None`` on a transport error."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                *self._address, timeout=TIMEOUT_S
            )
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as err:
            self.close()
            return None, repr(err).encode()

    def send(self, request):
        return self.exchange("POST", request.path, request.body)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def get(address: tuple, path: str) -> bytes:
    """One GET on a fresh connection; the body of a 200 response."""
    conn = Connection(address)
    try:
        status, body = conn.exchange("GET", path)
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} failed: {status} {body[:200]!r}")
    return body


def _run_threads(target, count: int, timeout_s: float) -> None:
    errors: list = []

    def guarded(index: int) -> None:
        try:
            target(index)
        except BaseException as err:  # surfaced after join
            errors.append(err)

    threads = [
        threading.Thread(target=guarded, args=(index,), daemon=True)
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout_s)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")
    if errors:
        raise errors[0]


def open_loop(address: tuple, requests: list, offsets: list,
              connections: int = CONNECTIONS) -> list:
    """Send ``requests[i]`` at ``offsets[i]`` seconds from now."""
    lock = threading.Lock()
    order = iter(range(len(requests)))
    samples: list = [None] * len(requests)
    start_ns = time.perf_counter_ns() + 20_000_000

    def drive(index: int) -> None:
        conn = Connection(address)
        free_ns = time.perf_counter_ns()
        try:
            while True:
                with lock:
                    i = next(order, None)
                if i is None:
                    return
                due_ns = start_ns + int(offsets[i] * 1e9)
                wait_ns = due_ns - time.perf_counter_ns()
                if wait_ns > 0:
                    time.sleep(wait_ns / 1e9)
                sent_ns = time.perf_counter_ns()
                status, body = conn.send(requests[i])
                done_ns = time.perf_counter_ns()
                samples[i] = Sample(
                    requests[i], index, due_ns, sent_ns, done_ns, status,
                    body, sent_ns - max(due_ns, free_ns),
                )
                free_ns = done_ns
        finally:
            conn.close()

    timeout = (offsets[-1] if offsets else 0.0) + 10 * TIMEOUT_S
    _run_threads(drive, connections, timeout)
    return samples


def closed_loop(address: tuple, sources: list, duration_s: float) -> tuple:
    """Each connection sends its source's next request as soon as the
    last one returns, for ``duration_s``.  Returns ``(samples, wall_s)``.
    """
    start_ns = time.perf_counter_ns()
    deadline_ns = start_ns + int(duration_s * 1e9)
    per_conn: list = [[] for _ in sources]

    def drive(index: int) -> None:
        conn = Connection(address)
        try:
            while time.perf_counter_ns() < deadline_ns:
                request = next(sources[index])
                sent_ns = time.perf_counter_ns()
                status, body = conn.send(request)
                per_conn[index].append(Sample(
                    request, index, None, sent_ns, time.perf_counter_ns(),
                    status, body,
                ))
        finally:
            conn.close()

    _run_threads(drive, len(sources), duration_s + 10 * TIMEOUT_S)
    samples = [s for conn_samples in per_conn for s in conn_samples]
    end_ns = max((s.done_ns for s in samples), default=deadline_ns)
    return samples, (end_ns - start_ns) / 1e9

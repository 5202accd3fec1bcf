"""Open-loop HTTP load generator for the conversion service.

Arrivals follow a Poisson process drawn from the workload seed, so the
offered load does not slow down when the server does (a closed loop of
waiting clients would).  Requests go out over at most ``connections``
keep-alive sockets; when every socket has a request outstanding the
next one is pipelined behind the least-loaded socket.  Each request's
latency is timed from when it was *due*, not from when it was written,
so a stall charges every request scheduled behind it.  How late the
generator itself ran is recorded per request; a phase whose generator
fell behind its own schedule is invalid, not a latency.

Everything runs on one asyncio loop in one thread of one process.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable


def poisson_schedule(rate: float, seconds: float, rng: random.Random) -> list[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process
    with ``rate`` arrivals per second over ``seconds``, conditioned on
    its expected count ``round(rate * seconds)``: given the count, the
    arrival times of a Poisson process are independent and uniform, so
    every seed offers the same number of requests in a different order."""
    if rate <= 0 or seconds <= 0:
        return []
    return sorted(seconds * rng.random() for _ in range(round(rate * seconds)))


@dataclass
class Arrival:
    """One scheduled request: when it is due and the bytes to send."""

    offset: float
    payload: bytes | Callable[[], bytes]
    kind: str = "read"
    tag: object = None
    # Send on this connection (index) instead of the least-loaded one.
    connection: int | None = None


@dataclass
class Outcome:
    """What happened to one arrival."""

    arrival: Arrival
    due: float
    late: float
    done: float | None = None
    status: int | None = None
    body: bytes = b""

    @property
    def latency(self) -> float | None:
        if self.done is None:
            return None
        return self.done - self.due


@dataclass
class PhaseResult:
    """All outcomes of one phase plus the generator's own lateness."""

    outcomes: list[Outcome]
    seconds: float
    late_limit: float

    def late_p99(self) -> float:
        lates = sorted(o.late for o in self.outcomes)
        if not lates:
            return 0.0
        return lates[min(len(lates) - 1, int(0.99 * len(lates)))]

    @property
    def valid(self) -> bool:
        """False when the generator ran behind its own schedule."""
        return self.late_p99() <= self.late_limit


def http_post(path: str, body: bytes, host: str = "127.0.0.1") -> bytes:
    """A keep-alive HTTP/1.1 POST request with a JSON body."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class _Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.outstanding: deque[Outcome] = deque()
        self.reader_task: asyncio.Task | None = None


async def _read_responses(
    conn: _Connection,
    loop: asyncio.AbstractEventLoop,
    on_response: Callable[[Outcome], None] | None,
) -> None:
    while True:
        head = await conn.reader.readuntil(b"\r\n\r\n")
        now = loop.time()
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = await conn.reader.readexactly(length) if length else b""
        outcome = conn.outstanding.popleft()
        outcome.done = loop.time() if length else now
        outcome.status = status
        outcome.body = body
        if on_response is not None:
            on_response(outcome)


async def _run(
    host: str,
    port: int,
    arrivals: list[Arrival],
    connections: int,
    late_limit: float,
    grace: float,
    on_response: Callable[[Outcome], None] | None,
) -> PhaseResult:
    loop = asyncio.get_running_loop()
    conns: list[_Connection] = []
    try:
        for _ in range(max(1, connections)):
            reader, writer = await asyncio.open_connection(
                host, port, limit=16 * 1024 * 1024
            )
            conn = _Connection(reader, writer)
            conn.reader_task = loop.create_task(_read_responses(conn, loop, on_response))
            conns.append(conn)
        outcomes: list[Outcome] = []
        start = loop.time() + 0.02
        for arrival in arrivals:
            due = start + arrival.offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late = max(0.0, loop.time() - due)
            if arrival.connection is not None:
                conn = conns[arrival.connection % len(conns)]
            else:
                conn = min(conns, key=lambda c: len(c.outstanding))
            payload = arrival.payload
            if callable(payload):
                payload = payload()
            outcome = Outcome(arrival, due, late)
            conn.outstanding.append(outcome)
            outcomes.append(outcome)
            conn.writer.write(payload)
        end = start + (arrivals[-1].offset if arrivals else 0.0)
        deadline = loop.time() + grace
        while any(c.outstanding for c in conns) and loop.time() < deadline:
            if any(c.reader_task.done() for c in conns if c.outstanding):
                break
            await asyncio.sleep(0.002)
        return PhaseResult(outcomes, max(0.0, end - start), late_limit)
    finally:
        for conn in conns:
            if conn.reader_task is not None:
                conn.reader_task.cancel()
                try:
                    await conn.reader_task
                except (asyncio.CancelledError, Exception):
                    pass
            conn.writer.close()
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def run_phase(
    host: str,
    port: int,
    arrivals: list[Arrival],
    *,
    connections: int,
    late_limit: float,
    grace: float = 30.0,
    on_response: Callable[[Outcome], None] | None = None,
) -> PhaseResult:
    """Send ``arrivals`` on their schedule and collect every outcome.

    Requests still unanswered ``grace`` seconds after the last arrival
    keep no status: they count as failed and miss any latency limit.
    ``on_response`` sees each outcome as its response arrives.
    """
    return asyncio.run(
        _run(host, port, arrivals, connections, late_limit, grace, on_response)
    )

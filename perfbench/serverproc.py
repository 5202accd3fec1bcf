"""The conversion service as a separate process, seen from outside.

The benchmark starts ``python -m repro.cli serve`` (or, for a traced
run, ``traced_serve.py``, which wraps the same entry point), talks to
it only over HTTP, scrapes its public ``/metrics`` route, and reads its
memory from ``/proc``.  The generator and the server never share an
interpreter lock.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    output: list[str] = field(default_factory=list)
    _reader: threading.Thread | None = None


def _pump(proc: subprocess.Popen, lines: list[str], ready: threading.Event) -> None:
    assert proc.stdout is not None
    for line in proc.stdout:
        lines.append(line.rstrip("\n"))
        if _LISTENING.search(line):
            ready.set()
    ready.set()


def launch(
    root: Path,
    workers: int,
    state_dir: Path,
    *,
    trace_out: Path | None = None,
    timeout: float = 60.0,
) -> Server:
    """Start the service on an ephemeral port and wait until it listens."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    serve_args = [
        "serve", "--host", "127.0.0.1", "--port", "0",
        "--max-workers", str(workers), "--state-dir", str(state_dir),
    ]
    if trace_out is None:
        argv = [sys.executable, "-m", "repro.cli", *serve_args]
    else:
        argv = [
            sys.executable, str(Path(__file__).with_name("traced_serve.py")),
            str(trace_out), *serve_args,
        ]
    proc = subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    lines: list[str] = []
    ready = threading.Event()
    reader = threading.Thread(target=_pump, args=(proc, lines, ready), daemon=True)
    reader.start()
    if not ready.wait(timeout) or proc.poll() is not None:
        stop(Server(proc, "", 0, lines, reader))
        raise RuntimeError("service did not start:\n" + "\n".join(lines[-20:]))
    for line in lines:
        match = _LISTENING.search(line)
        if match:
            return Server(proc, match.group(1), int(match.group(2)), lines, reader)
    stop(Server(proc, "", 0, lines, reader))
    raise RuntimeError("service exited before listening")


def stop(server: Server, timeout: float = 60.0) -> int:
    """Graceful drain via SIGTERM; kill if it does not finish in time."""
    proc = server.proc
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if server._reader is not None:
        server._reader.join(timeout=5)
    return proc.returncode


def request(
    server: Server, method: str, path: str, body: object | None = None,
    timeout: float = 60.0,
) -> tuple[int, bytes]:
    """One blocking HTTP request on a fresh connection."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# -- /metrics ------------------------------------------------------------------

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def scrape(server: Server) -> dict[tuple[str, str], float]:
    """Parse the Prometheus exposition into ``{(name, labels): value}``."""
    status, body = request(server, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    samples: dict[tuple[str, str], float] = {}
    for line in body.decode("utf-8").splitlines():
        match = _SAMPLE.match(line)
        if match:
            samples[(match.group(1), match.group(2) or "")] = float(match.group(3))
    return samples


def counter_delta(
    before: dict[tuple[str, str], float],
    after: dict[tuple[str, str], float],
    name: str,
) -> float:
    """Change of every sample named ``name`` (summed over labels)."""
    total = 0.0
    for key, value in after.items():
        if key[0] == name:
            total += value - before.get(key, 0.0)
    return total


def histogram_delta(
    before: dict[tuple[str, str], float],
    after: dict[tuple[str, str], float],
    name: str,
) -> list[tuple[float, float]]:
    """Per-bucket ``(upper_bound, count)`` of observations made between
    two scrapes (non-cumulative; the last bound is ``inf``)."""
    cumulative: list[tuple[float, float]] = []
    for key, value in after.items():
        if key[0] != f"{name}_bucket":
            continue
        match = re.search(r'le="([^"]+)"', key[1])
        if match is None:
            continue
        bound = float("inf") if match.group(1) == "+Inf" else float(match.group(1))
        cumulative.append((bound, value - before.get(key, 0.0)))
    cumulative.sort()
    buckets: list[tuple[float, float]] = []
    previous = 0.0
    for bound, count in cumulative:
        buckets.append((bound, count - previous))
        previous = count
    return buckets


def bucket_quantile(buckets: list[tuple[float, float]], q: float) -> float:
    """Quantile from histogram buckets, interpolating linearly inside
    the bucket that holds it (bucket resolution, as Prometheus does)."""
    total = sum(count for _, count in buckets)
    if total <= 0:
        return 0.0
    rank = q * total
    lower = 0.0
    seen = 0.0
    for bound, count in buckets:
        if count > 0 and seen + count >= rank:
            if bound == float("inf"):
                return lower
            return lower + (bound - lower) * (rank - seen) / count
        seen += count
        if bound != float("inf"):
            lower = bound
    return lower

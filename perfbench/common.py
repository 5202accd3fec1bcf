"""Shared plumbing: locating the program, configuration, statistics,
memory readings and the result line."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import shutil
import sys
import time
from html.parser import HTMLParser
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (exit non-zero, print none)."""


def use_program() -> None:
    """Put the program's sources on ``sys.path``; fail if they are absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def config() -> dict:
    return json.loads((HERE / "config.json").read_text())


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """``(end_to_end, per_layer)`` name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def workers() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def host() -> dict:
    return {
        "cpu_count": workers(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def rng(seed: int, purpose: str) -> random.Random:
    """An independent random stream per purpose, fixed by the seed."""
    return random.Random(f"perfbench:{seed}:{purpose}")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def digest(xml_documents: list[str], dtd_text: str) -> str:
    """SHA-256 over every XML document, in order, and the DTD."""
    sha = hashlib.sha256()
    for xml in xml_documents:
        sha.update(xml.encode("utf-8"))
        sha.update(b"\0")
    sha.update(dtd_text.encode("utf-8"))
    return sha.hexdigest()


def _status_kb(pid: int | str, key: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(key):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident memory of ``pid`` plus each of its live children
    (each process's own high-water mark, summed), in MiB."""
    kb = _status_kb(pid, "VmHWM:")
    kb += sum(_status_kb(kid, "VmHWM:") for kid in _children_of(pid))
    return kb / 1024.0


def _children_of(pid: int | str) -> list[str]:
    kids: list[str] = []
    try:
        task_dirs = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return kids
    for task in task_dirs:
        try:
            kids.extend((task / "children").read_text().split())
        except OSError:
            continue
    return kids


def cpu_seconds(pid: int | str = "self") -> float:
    """CPU time (user + system) used so far by ``pid``, its reaped
    children and its live children.  Time the hypervisor stole from the
    virtual CPUs is not in it, unlike wall time."""
    def ticks(target: int | str, reaped: bool) -> int:
        try:
            fields = Path(f"/proc/{target}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            return 0
        # Fields 14-17 of stat(5): utime stime cutime cstime; the slice
        # starts at field 3 because the split dropped pid and comm.
        used = int(fields[11]) + int(fields[12])
        return used + (int(fields[13]) + int(fields[14]) if reaped else 0)

    total = ticks(pid, True) + sum(ticks(kid, False) for kid in _children_of(pid))
    return total / os.sysconf("SC_CLK_TCK")


def cpu_ticks() -> tuple[int, int]:
    """``(stolen, total)`` clock ticks of all CPUs since boot (/proc/stat)."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def unstolen_seconds(wall: float, ticks_before: tuple[int, int]) -> float:
    """``wall`` less the share of all CPUs' time the hypervisor stole
    since ``ticks_before`` (a :func:`cpu_ticks` reading): the seconds
    the machine would have needed had its neighbours left it alone."""
    stolen, total = (a - b for a, b in zip(cpu_ticks(), ticks_before))
    return wall * (1.0 - stolen / total) if total > 0 else wall


# -- host speed -------------------------------------------------------------------

# The probe's fixed input: about 60 KB of nested markup.
_PROBE_HTML = "".join(
    f"<div class='c{i % 7}'><p>item {i} <b>bold {i * i}</b> text</p>"
    f"<ul><li>a{i}</li><li>b</li></ul></div>"
    for i in range(300)
)


class _ProbeParser(HTMLParser):
    def __init__(self) -> None:
        super().__init__()
        self.stack: list[list] = [[]]

    def handle_starttag(self, tag, attrs) -> None:
        node = [tag, dict(attrs)]
        self.stack[-1].append(node)
        self.stack.append(node)

    def handle_endtag(self, tag) -> None:
        if len(self.stack) > 1:
            self.stack.pop()

    def handle_data(self, data) -> None:
        self.stack[-1].append(data.strip().lower())


def _probe_once() -> float:
    started = time.thread_time()
    parser = _ProbeParser()
    parser.feed(_PROBE_HTML)
    parser.close()
    json.dumps(parser.stack[0])
    return time.thread_time() - started


def probe_ms(repeats: int = 3) -> float:
    """CPU milliseconds this thread needs for one fixed task that uses
    only the standard library (parse a fixed HTML string into nested
    lists, serialise them as JSON): the median of ``repeats`` on each
    CPU this process may use, pinned there in turn, averaged over the
    CPUs.  It never runs the program, so it reads how fast the host runs
    interpreter-bound Python at this moment; the CPUs are probed one by
    one because neighbours slow them down unevenly."""
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(median(_probe_once() for _ in range(repeats)))
    finally:
        os.sched_setaffinity(0, allowed)
    return 1e3 * sum(per_cpu) / len(per_cpu)


class HostSpeed:
    """How slow the host ran during a measurement, from :func:`probe_ms`
    taken between its timed intervals (never during one).

    On a shared host, neighbours slow the CPU down -- not only by
    stealing it -- by up to half, for seconds to minutes at a time, and
    the probe slows down with the program.  A time measured while the
    probe ran ``k`` times its reference (config.json's ``probe_ms``, a
    round figure near its reading on a quiet host) is divided by ``k``
    to give the time at the reference speed; a rate is multiplied by
    ``k``.  The program never runs while the probe does, so it cannot
    move it.
    """

    def __init__(self, reference_ms: float) -> None:
        self.reference_ms = reference_ms
        self.samples: list[float] = []

    def probe(self) -> None:
        self.samples.append(probe_ms())

    def slowness(self) -> float:
        """Mean probe ÷ the reference."""
        return sum(self.samples) / len(self.samples) / self.reference_ms


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, name: str) -> None:
        self.path = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = self.path.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def result_line(
    correct: bool, attempted: int, failed: int, metrics: dict[str, float],
    units: dict[str, str],
) -> str:
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise BenchmarkError(f"metric set mismatch: missing={missing} extra={extra}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    })

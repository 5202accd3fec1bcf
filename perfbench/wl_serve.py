"""Workloads ``serve-convert`` and ``serve-mixed``: the conversion
service in its own process (``repro.cli serve --max-workers nproc``),
driven open-loop from this process over at most ``nproc`` keep-alive
connections.

``serve-convert`` sends single-document ``POST /convert`` requests at a
``low`` and a ``high`` fixed Poisson rate; its traced run then climbs
rising rates to find the highest one whose tail latency meets the
limit.  ``serve-mixed`` sends reads on one connection (a seeded share
pinning the newest schema version once one exists) beside
``POST /convert/batch`` fold writes on the other, at fixed rates.

After the fixed rates, an untraced run sends short bursts of requests
all due at once -- reads for ``serve-convert``, fold writes for
``serve-mixed`` -- and reports the median documents answered per second
as the service's capacity.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import serverproc
from checks import check_fold, check_identical
from statistics import mean, median

from common import (
    ROOT, HostSpeed, cpu_seconds, cpu_ticks, peak_rss_mb, quantile, rng, unstolen_seconds,
    workers,
)
from loadgen import Arrival, Outcome, PhaseResult, http_post, poisson_schedule, run_phase
from wl_corpus import inline_stage_trace, make_corpus, reap_children, serial_reference

READ, PINNED, WRITE = "read", "pinned", "write"

# Distinct request documents, so tagger caches behave as they do offline.
POOL_DOCUMENTS = 1000
# Launch-to-first-document is timed this many times; the median is reported.
SETUP_REPEATS = 5
WARMUP_SECONDS = 1.0
# A phase whose generator ran later than this (p99) is invalid.
LATE_LIMIT_MS = 20.0
# Fixed-rate phases are sent in slices this long, the host's speed
# probed between them.
SLICE_SECONDS = 5.0
# Shares of --seconds spent at the low and high rate, and at each
# search rate of the traced run.
LOW_SHARE, HIGH_SHARE, SEARCH_SHARE = 0.55, 0.45, 0.1
# Pause after each search rate, so an overloaded probe's backlog drains.
SETTLE_SECONDS = 0.3
DOCS_PER_WRITE = 2
# Share of serve-mixed reads that pin the newest schema version.
PINNED_SHARE = 0.3
# Latency limit of a fold write (reads use latency_limit_ms of config.json).
WRITE_LIMIT_MS = 200.0
# ok_ratio counts answers within this many times the limit: loose enough
# to stay steady while neighbours steal CPU, tight enough that a stall
# (batcher linger, lock contention, fsync) shows.
OK_SLACK = 5
# Capacity is the mean over BURSTS bursts, less the fastest and the
# slowest, of READ_BURST reads (serve-convert) or WRITE_BURST fold writes
# (serve-mixed), each half a second to a second on the host in
# config.json: CPU stolen by neighbours comes in spikes of a few
# seconds, which dropping the extremes steps over.  Fold writes get the longer bursts because one fold's cost
# varies more (it grows with the checkpoint log until compaction).
BURSTS, READ_BURST, WRITE_BURST = 7, 150, 60
# Documents of the request pool converted by the traced stage run.
TRACE_DOCUMENTS = 400


class InvalidPhase(RuntimeError):
    """The generator fell behind its own schedule; no latency is valid."""


@dataclass
class Pool:
    """Request documents whose conversion succeeds offline, with the
    reference XML of each, computed before timing."""

    sources: list[str]
    reference: list[str]
    payloads: list[bytes]


def make_pool(seed: int, kb) -> Pool:
    docs = make_corpus(seed, POOL_DOCUMENTS)
    from repro.convert.pipeline import DocumentConverter

    reference, _ = serial_reference(DocumentConverter(kb), [d.html for d in docs])
    kept = [(d.html, x) for d, x in zip(docs, reference) if x is not None]
    sources = [s for s, _ in kept]
    return Pool(
        sources=sources,
        reference=[x for _, x in kept],
        payloads=[
            http_post("/convert", json.dumps({"source": s}).encode("utf-8"))
            for s in sources
        ],
    )


class Service:
    """Launch, first-document setup timing, and teardown."""

    def __init__(self, work: Path, pool: Pool, trace_out: Path | None = None) -> None:
        self.work = work
        self.pool = pool
        self.trace_out = trace_out
        self.launches = 0
        self.server: serverproc.Server | None = None

    def start(self) -> float:
        """Launch a fresh service; seconds until its first converted document."""
        self.launches += 1
        started = time.perf_counter()
        server = serverproc.launch(
            ROOT, workers(), self.work / f"state-{self.launches}",
            trace_out=self.trace_out,
        )
        self.server = server
        status, body = serverproc.request(
            server, "POST", "/convert", {"source": self.pool.sources[0]}
        )
        elapsed = time.perf_counter() - started
        if status != 200 or json.loads(body).get("xml") != self.pool.reference[0]:
            raise RuntimeError(f"first document failed: {status} {body[:200]!r}")
        return elapsed

    def stop(self) -> None:
        if self.server is not None:
            code = serverproc.stop(self.server)
            self.server = None
            if code != 0:
                raise RuntimeError(f"service exited with code {code}")


def measure_setup(service: Service, speed: HostSpeed) -> float:
    """Median launch-to-first-document time, probing ``speed`` before
    each launch; the last launch keeps running."""
    samples = []
    for attempt in range(SETUP_REPEATS):
        speed.probe()
        samples.append(service.start())
        if attempt < SETUP_REPEATS - 1:
            service.stop()
    return median(samples)


# -- phases --------------------------------------------------------------------


def read_arrivals(pool: Pool, rate: float, seconds: float, seed: int, purpose: str) -> list[Arrival]:
    r = rng(seed, purpose)
    return [
        Arrival(offset, pool.payloads[index], READ, index)
        for offset in poisson_schedule(rate, seconds, r)
        for index in [r.randrange(len(pool.sources))]
    ]


def write_arrivals(
    pool: Pool, offsets: list[float], order: list[int], start: int,
    connection: int | None,
) -> list[Arrival]:
    """``POST /convert/batch`` fold writes of ``DOCS_PER_WRITE`` documents
    each, taken from ``order`` from position ``start`` on."""
    arrivals = []
    for n, offset in enumerate(offsets):
        batch = [
            order[(start + n * DOCS_PER_WRITE + i) % len(order)] for i in range(DOCS_PER_WRITE)
        ]
        body = {"documents": [pool.sources[i] for i in batch], "fold": True}
        payload = http_post("/convert/batch", json.dumps(body).encode("utf-8"))
        arrivals.append(Arrival(offset, payload, WRITE, batch, connection))
    return arrivals


def run_reads(
    service: Service, arrivals: list[Arrival], on_response=None, attempts: int = 2,
    speed: HostSpeed | None = None,
) -> PhaseResult:
    """One phase, sent in slices of ``SLICE_SECONDS`` with ``speed``
    probed after each.  A slice is repeated (up to ``attempts`` times in
    all) while the generator fell behind its own schedule; then the
    phase is invalid."""
    slices: dict[int, list[Arrival]] = {}
    for arrival in arrivals:
        index = int(arrival.offset // SLICE_SECONDS)
        rebased = replace(arrival, offset=arrival.offset - index * SLICE_SECONDS)
        slices.setdefault(index, []).append(rebased)
    outcomes: list[Outcome] = []
    seconds = 0.0
    for index in sorted(slices):
        for _ in range(attempts):
            result = run_phase(
                service.server.host, service.server.port, slices[index],
                connections=workers(), late_limit=LATE_LIMIT_MS / 1e3,
                on_response=on_response,
            )
            if result.valid:
                break
            print(
                f"slice of {len(slices[index])} requests invalid: generator ran "
                f"{1e3 * result.late_p99():.1f} ms behind schedule (p99)",
                file=sys.stderr,
            )
        else:
            raise InvalidPhase("the load generator could not keep its schedule")
        outcomes += result.outcomes
        seconds += result.seconds
        if speed is not None:
            speed.probe()
    return PhaseResult(outcomes, seconds, LATE_LIMIT_MS / 1e3)


def latencies(outcomes: list[Outcome]) -> list[float]:
    """Milliseconds from due time; unanswered or failed requests count
    as infinitely late (they miss any limit)."""
    return [
        1e3 * o.latency if o.status == 200 and o.latency is not None else math.inf
        for o in outcomes
    ]


def within(outcomes: list[Outcome], limit_ms: float) -> int:
    return sum(1 for lat in latencies(outcomes) if lat <= limit_ms)


def capacity(
    service: Service, bursts: list[list[Arrival]], speed: HostSpeed,
) -> tuple[float, list[Outcome]]:
    """Send each burst's arrivals all due at once over ``nproc``
    connections, probing ``speed`` before each; documents answered 200
    per second, from the due time to the last answer less the time the
    hypervisor stole, averaged over the bursts but the fastest and the
    slowest; and every outcome.  The generator's lateness does not
    matter here."""
    rates: list[float] = []
    outcomes: list[Outcome] = []
    for arrivals in bursts:
        speed.probe()
        ticks = cpu_ticks()
        phase = run_phase(
            service.server.host, service.server.port, arrivals,
            connections=workers(), late_limit=math.inf,
        )
        outcomes += phase.outcomes
        answered = [o for o in phase.outcomes if o.status == 200]
        docs = sum(len(o.arrival.tag) if o.arrival.kind == WRITE else 1 for o in answered)
        due = min(o.due for o in phase.outcomes)
        busy = unstolen_seconds(max(o.done for o in answered) - due, ticks) if answered else 0.0
        rates.append(docs / busy if answered else 0.0)
        time.sleep(SETTLE_SECONDS)
    print("docs/s per burst: " + " ".join(f"{rate:.0f}" for rate in rates), file=sys.stderr)
    return mean(sorted(rates)[1:-1]), outcomes


def isotonic(values: list[float]) -> list[float]:
    """Least-squares non-decreasing fit (pool adjacent violators)."""
    blocks: list[list[float]] = []  # [mean, weight]
    for value in values:
        blocks.append([value, 1.0])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            mean, weight = blocks.pop()
            blocks[-1][0] = (blocks[-1][0] * blocks[-1][1] + mean * weight) / (blocks[-1][1] + weight)
            blocks[-1][1] += weight
    fitted: list[float] = []
    for mean, weight in blocks:
        fitted.extend([mean] * int(weight))
    return fitted


def crossing(points: list[tuple[float, float]], limit: float) -> float:
    """Rate at which tail latency reaches ``limit``: the tail-vs-rate
    curve is fitted non-decreasing (tail latency cannot fall as load
    rises, so a lone slow probe is noise), then interpolated linearly
    between the last probe under the limit and the first over it."""
    rates = [rate for rate, _ in points]
    fitted = isotonic([min(tail, 10 * limit) for _, tail in points])
    under = [i for i, tail in enumerate(fitted) if tail <= limit]
    if not under:
        return rates[0]
    i = under[-1]
    if i == len(rates) - 1:
        return rates[i]
    (r0, t0), (r1, t1) = (rates[i], fitted[i]), (rates[i + 1], fitted[i + 1])
    return r0 + (r1 - r0) * (limit - t0) / (t1 - t0)


def check_reads(outcomes: list[Outcome], pool: Pool, expected_for=None) -> str | None:
    """Every 200 read carries the reference XML (or, for a pinned read,
    the reference conformed to the pinned version)."""
    got, want = [], []
    for o in outcomes:
        if o.status != 200 or o.arrival.kind == WRITE:
            continue
        answer = json.loads(o.body)
        got.append(answer["xml"])
        if "schema_version" in answer and expected_for is not None:
            want.append(expected_for(o.arrival.tag, answer["schema_version"]))
        else:
            want.append(pool.reference[o.arrival.tag])
    return check_identical(got, want, "service reads")


def service_layers(before: dict, after: dict, client_ms: list[float], seconds: float) -> dict:
    """Per-layer service numbers from two ``/metrics`` scrapes."""
    from repro.runtime.stats import CHUNKS, DOCUMENTS, TAGGER_CACHE_EVENTS, WORKER_SECONDS
    from repro.service.server import BATCH_DOCUMENTS, QUEUE_WAIT_SECONDS, REQUEST_SECONDS

    def cache(cache_name: str, event: str) -> float:
        return sum(
            value - before.get(key, 0.0)
            for key, value in after.items()
            if key[0] == TAGGER_CACHE_EVENTS
            and f'event="{event}"' in key[1]
            and (cache_name == "*" or f'cache="{cache_name}"' in key[1])
        )

    served = serverproc.histogram_delta(before, after, REQUEST_SECONDS)
    queued = serverproc.histogram_delta(before, after, QUEUE_WAIT_SECONDS)
    batch_sum = serverproc.counter_delta(before, after, f"{BATCH_DOCUMENTS}_sum")
    batch_count = serverproc.counter_delta(before, after, f"{BATCH_DOCUMENTS}_count")
    docs = serverproc.counter_delta(before, after, DOCUMENTS)
    chunks = serverproc.counter_delta(before, after, CHUNKS)
    worker_s = serverproc.counter_delta(before, after, WORKER_SECONDS)
    server_p50 = 1e3 * serverproc.bucket_quantile(served, 0.5)
    finite = [x for x in client_ms if math.isfinite(x)]
    lookups = cache("synonym", "hits") + cache("synonym", "misses")
    return {
        "concepts.synonym_cache.hit_ratio": cache("synonym", "hits") / lookups if lookups else 0.0,
        "concepts.cache.evictions": cache("*", "evictions"),
        "service.server_ms_p50": server_p50,
        "service.server_ms_p99": 1e3 * serverproc.bucket_quantile(served, 0.99),
        "service.queue_wait_ms_p50": 1e3 * serverproc.bucket_quantile(queued, 0.5),
        "service.queue_wait_ms_p99": 1e3 * serverproc.bucket_quantile(queued, 0.99),
        "service.batch_docs_mean": batch_sum / batch_count if batch_count else 0.0,
        "service.worker_s_per_doc": worker_s / docs if docs else 0.0,
        "service.outside_server_ms_p50": quantile(finite, 0.5) - server_p50,
        "runtime.chunks": chunks,
        "runtime.docs_per_chunk": docs / chunks if chunks else 0.0,
        "runtime.worker_util": worker_s / (seconds * workers()) if seconds else 0.0,
    }


def contract_parse_us(pool: Pool, repeats: int = 3) -> float:
    """Median per-request cost of ``ConvertRequest.parse`` on the
    workload's own request bodies, in microseconds."""
    from repro.service.contracts import ConvertRequest

    bodies = [{"source": s} for s in pool.sources]
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        for body in bodies:
            ConvertRequest.parse(body)
        samples.append((time.perf_counter() - started) / len(bodies))
    return 1e6 * median(samples)


# -- serve-convert ------------------------------------------------------------------


def client_latency(light: list[Outcome], heavy: list[Outcome]) -> dict:
    """The load generator's view: latency from due time of the light
    and of the heavy requests."""
    light_ms, heavy_ms = latencies(light), latencies(heavy)
    return {
        "client.p50_ms": quantile(light_ms, 0.5),
        "client.p90_ms": quantile(light_ms, 0.9),
        "client.p50_ms.heavy": quantile(heavy_ms, 0.5),
        "client.p90_ms.heavy": quantile(heavy_ms, 0.9),
    }


def run_convert(
    seed: int, seconds: float, cfg: dict, work: Path, trace_dir: Path | None
) -> dict:
    """The fixed ``low`` and ``high`` Poisson rates, then the capacity
    bursts; a traced run instead climbs the search rates until two in a
    row miss the latency limit, and every rate is a point of the
    tail-latency curve from which ``client.max_ok_rps`` is read
    (:func:`crossing`)."""
    from repro.concepts.resume_kb import build_resume_knowledge_base

    rates = cfg["rates"]
    limit = cfg["latency_limit_ms"]
    traced = trace_dir is not None
    ladder = [(rates["low"], LOW_SHARE), (rates["high"], HIGH_SHARE)]
    if traced:
        ladder += [(rate, SEARCH_SHARE) for rate in cfg["search_rates"]]
    kb = build_resume_knowledge_base()
    pool = make_pool(seed, kb)
    trace_out = trace_dir / "serve-convert-server-spans.json" if traced else None
    service = Service(work, pool, trace_out)
    errors: list[str] = []
    phases: list[PhaseResult] = []
    points: list[tuple[float, float]] = []
    speed = HostSpeed(cfg["probe_ms"])
    try:
        setup_s = measure_setup(service, speed)
        run_reads(service, read_arrivals(pool, rates["low"], WARMUP_SECONDS, seed, "warmup"))
        speed.probe()
        before = serverproc.scrape(service.server)
        cpu_started = cpu_seconds(service.server.proc.pid)
        for step, (rate, share) in enumerate(ladder):
            phase = run_reads(
                service, read_arrivals(pool, rate, seconds * share, seed, f"rate:{step}"),
                speed=speed,
            )
            phases.append(phase)
            points.append((rate, quantile(latencies(phase.outcomes), 0.9)))
            print(f"{rate:g}/s: p90 {points[-1][1]:.1f} ms", file=sys.stderr)
            if step == 1:
                cpu_used = cpu_seconds(service.server.proc.pid) - cpu_started
                after = serverproc.scrape(service.server)
            if len(points) >= 2 and min(points[-1][1], points[-2][1]) > limit:
                break
            if step >= 1:
                time.sleep(SETTLE_SECONDS)
        bursts: list[Outcome] = []
        if not traced:
            r = rng(seed, "bursts")
            docs_per_s, bursts = capacity(service, [
                [Arrival(0.0, pool.payloads[i], READ, i)
                 for i in (r.randrange(len(pool.sources)) for _ in range(READ_BURST))]
                for _ in range(BURSTS)
            ], speed)
            speed.probe()
        rss = peak_rss_mb(service.server.proc.pid)
    finally:
        service.stop()
    low, high = phases[0], phases[1]
    fixed = low.outcomes + high.outcomes
    outcomes = [o for phase in phases for o in phase.outcomes] + bursts
    problem = check_reads(outcomes, pool)
    if problem:
        errors.append(problem)
    failed = sum(1 for o in outcomes if o.status != 200)
    answered = sum(1 for o in fixed if o.status == 200)
    if traced:
        metrics = service_layers(before, after, latencies(fixed), low.seconds + high.seconds)
        metrics.update(client_latency(low.outcomes, high.outcomes))
        metrics["client.max_ok_rps"] = crossing(points, limit)
        metrics["client.within_limit_ratio"] = within(fixed, limit) / max(1, len(fixed))
        metrics["loadgen.late_ms_p99"] = 1e3 * max(p.late_p99() for p in phases)
        metrics.update(_traced_stages(kb, pool, trace_dir / "serve-convert-stage-spans.json", errors))
        metrics["service.contracts.parse_us"] = contract_parse_us(pool)
        _add_server_spans(metrics, trace_out)
    else:
        slowness = speed.slowness()
        metrics = {
            "setup_s": setup_s / slowness,
            "docs_per_s": docs_per_s * slowness,
            "peak_rss_mb": rss,
            "cpu_ms_per_doc": 1e3 * cpu_used / max(1, answered) / slowness,
            "ok_ratio": within(fixed, OK_SLACK * limit) / max(1, len(fixed)),
        }
    info = {
        "host slowness": f"{speed.slowness():.3f}",
        "probes (ms)": " ".join(f"{ms:.2f}" for ms in speed.samples),
    }
    return {
        "errors": errors, "attempted": len(outcomes), "failed": failed, "metrics": metrics,
        "info": info,
    }


# -- serve-mixed --------------------------------------------------------------------


def mixed_arrivals(
    pool: Pool, rates: dict, seconds: float, seed: int, order: list[int], state: dict
) -> list[Arrival]:
    """Reads on connection 0, fold writes on connection 1, merged by due
    time.  A pinned-share read pins the newest version seen so far."""
    r = rng(seed, "mixed-reads")
    arrivals = []
    for offset in poisson_schedule(rates["mixed_read"], seconds, r):
        index = r.randrange(len(pool.sources))
        if r.random() < PINNED_SHARE:
            arrivals.append(Arrival(offset, _pinned(pool, index, state), PINNED, index, 0))
        else:
            arrivals.append(Arrival(offset, pool.payloads[index], READ, index, 0))
    offsets = poisson_schedule(rates["mixed_write"], seconds, rng(seed, "mixed-writes"))
    arrivals += write_arrivals(pool, offsets, order, 0, 1)
    arrivals.sort(key=lambda a: a.offset)
    return arrivals


def _pinned(pool: Pool, index: int, state: dict):
    def payload() -> bytes:
        version = state.get("version")
        if version is None:
            return pool.payloads[index]
        body = {"source": pool.sources[index], "schema_version": version}
        return http_post("/convert", json.dumps(body).encode("utf-8"))
    return payload


def run_mixed(
    seed: int, seconds: float, cfg: dict, work: Path, trace_dir: Path | None
) -> dict:
    """Reads beside fold writes at fixed rates, then (untraced) the fold
    capacity bursts; the live schema is checked against offline
    discovery over every folded document."""
    from repro.concepts.resume_kb import build_resume_knowledge_base
    from repro.dom.serialize import to_xml_document
    from repro.mapping.conform import conform_document
    from repro.mapping.persistence import load_xml_document
    from repro.mapping.validate import validate_document
    from repro.runtime.engine import CorpusEngine, EngineConfig
    from repro.schema.dtd import DTD
    from repro.schema.evolution import VERSION_BUMPS

    rates = cfg["rates"]
    limit = cfg["latency_limit_ms"]
    kb = build_resume_knowledge_base()
    pool = make_pool(seed, kb)
    order = rng(seed, "write-order").sample(range(len(pool.sources)), len(pool.sources))
    traced = trace_dir is not None
    trace_out = trace_dir / "serve-mixed-server-spans.json" if traced else None
    service = Service(work, pool, trace_out)
    state: dict = {}
    folded: list[int] = []
    errors: list[str] = []
    burst_writes: list[Outcome] = []

    def on_response(outcome: Outcome) -> None:
        if outcome.arrival.kind == WRITE and outcome.status == 200:
            answer = json.loads(outcome.body)
            state["version"] = answer["fold"]["schema_version"]

    speed = HostSpeed(cfg["probe_ms"])
    try:
        setup_s = measure_setup(service, speed)
        run_reads(service, read_arrivals(pool, rates["mixed_read"], WARMUP_SECONDS, seed, "warmup"))
        arrivals = mixed_arrivals(pool, rates, seconds, seed, order, state)
        # Folds change the server's state, so an invalid phase is not
        # repeated on the same server but on a freshly launched one.
        for attempt in range(2):
            if attempt:
                service.stop()
                service.start()
                state.clear()
            speed.probe()
            before = serverproc.scrape(service.server)
            cpu_started = cpu_seconds(service.server.proc.pid)
            try:
                phase = run_reads(service, arrivals, on_response, attempts=1, speed=speed)
                break
            except InvalidPhase:
                if attempt:
                    raise
        cpu_used = cpu_seconds(service.server.proc.pid) - cpu_started
        after = serverproc.scrape(service.server)
        if not traced:
            written = sum(1 for a in arrivals if a.kind == WRITE) * DOCS_PER_WRITE
            docs_per_s, burst_writes = capacity(service, [
                write_arrivals(
                    pool, [0.0] * WRITE_BURST, order,
                    written + n * WRITE_BURST * DOCS_PER_WRITE, None,
                )
                for n in range(BURSTS)
            ], speed)
            speed.probe()
        rss = peak_rss_mb(service.server.proc.pid)
        status, body = serverproc.request(service.server, "GET", "/schemas/resume")
        live = json.loads(body)
        versions: dict[int, DTD] = {}
        for version in live["versions"]:
            _, text = serverproc.request(service.server, "GET", f"/schemas/resume/{version}")
            versions[version] = DTD.parse(json.loads(text)["dtd"])
    finally:
        service.stop()

    reads = [o for o in phase.outcomes if o.arrival.kind != WRITE]
    writes = [o for o in phase.outcomes if o.arrival.kind == WRITE]

    def expected_for(index: int, version: int) -> str:
        root = load_xml_document(pool.reference[index])
        if validate_document(root, versions[version]):
            conform_document(root, versions[version])
        return to_xml_document(root)

    problem = check_reads(reads, pool, expected_for)
    if problem:
        errors.append(problem)
    got, want = [], []
    for o in writes + burst_writes:
        if o.status != 200:
            continue
        for index, result in zip(o.arrival.tag, json.loads(o.body)["results"]):
            got.append(result.get("xml"))
            want.append(pool.reference[index])
            if result.get("folded"):
                folded.append(index)
    problem = check_identical(got, want, "fold writes")
    if problem:
        errors.append(problem)
    offline = ""
    if folded:
        engine = CorpusEngine(kb, engine_config=EngineConfig(max_workers=workers()))
        offline = engine.run([pool.sources[i] for i in folded]).discovery.dtd.render()
        reap_children()
    problem = check_fold(live["documents"], len(folded), live["dtd"] or "", offline)
    if problem:
        errors.append(problem)

    outcomes = phase.outcomes + burst_writes
    failed = sum(1 for o in outcomes if o.status != 200)
    # Documents the fixed-rate phase answered: reads, and each write's folds.
    answered = sum(1 for o in reads if o.status == 200) + sum(
        len(o.arrival.tag) for o in writes if o.status == 200
    )
    if traced:
        # The server's histograms cover reads and writes alike.
        metrics = service_layers(before, after, latencies(phase.outcomes), phase.seconds)
        metrics.update(client_latency(reads, writes))
        metrics["client.within_limit_ratio"] = (
            within(reads, limit) + within(writes, WRITE_LIMIT_MS)
        ) / max(1, len(phase.outcomes))
        metrics["loadgen.late_ms_p99"] = 1e3 * phase.late_p99()
        metrics["schema.version_bumps"] = serverproc.counter_delta(before, after, VERSION_BUMPS)
        metrics.update(_traced_stages(kb, pool, trace_dir / "serve-mixed-stage-spans.json", errors))
        metrics["service.contracts.parse_us"] = contract_parse_us(pool)
        _add_server_spans(metrics, trace_out)
    else:
        slowness = speed.slowness()
        metrics = {
            "setup_s": setup_s / slowness,
            "docs_per_s": docs_per_s * slowness,
            "peak_rss_mb": rss,
            "cpu_ms_per_doc": 1e3 * cpu_used / max(1, answered) / slowness,
            "ok_ratio": (
                within(reads, OK_SLACK * limit) + within(writes, OK_SLACK * WRITE_LIMIT_MS)
            ) / max(1, len(phase.outcomes)),
        }
    info = {
        "host slowness": f"{speed.slowness():.3f}",
        "probes (ms)": " ".join(f"{ms:.2f}" for ms in speed.samples),
    }
    return {
        "errors": errors, "attempted": len(outcomes), "failed": failed, "metrics": metrics,
        "info": info,
    }


# -- traced helpers -----------------------------------------------------------------


def _traced_stages(kb, pool: Pool, trace_out: Path, errors: list[str]) -> dict:
    """Stage spans for the workload's own documents, recorded on the
    one-worker in-process path so every span lands in this process."""
    traced = inline_stage_trace(kb, pool.sources[:TRACE_DOCUMENTS], trace_out)
    outputs = traced["outputs"]
    if outputs["traced"] != outputs["untraced"]:
        errors.append("traced run's XML + DTD differ from the untraced run's")
    return traced["metrics"]


def _add_server_spans(metrics: dict, trace_out: Path) -> None:
    from repro.obs.tracer import Span

    spans = [Span.from_dict(row) for row in json.loads(trace_out.read_text())]
    fold = [1e3 * sp.seconds for sp in spans if sp.name == "schema.fold"]
    conform = [1e3 * sp.seconds for sp in spans if sp.name == "mapping.conform"]
    metrics["schema.fold.ms_p50"] = quantile(fold, 0.5)
    metrics["schema.fold.ms_p99"] = quantile(fold, 0.99)
    metrics["schema.fold.count"] = len(fold)
    metrics["mapping.conform.ms_p50"] = quantile(conform, 0.5)
    metrics["mapping.conform.count"] = len(conform)

"""Workload ``corpus``: the whole offline path, HTML strings in, XML
strings plus a DTD out, through ``CorpusEngine.run`` at one worker per
core with adaptive chunking, in-memory XML, discovery on and the
``skip`` error policy.  A seeded share of the documents is degraded by
the corpus noise injector first."""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from common import (
    SRC, HostSpeed, config, cpu_seconds, cpu_ticks, digest, peak_rss_mb, rng, unstolen_seconds,
    use_program, workers,
)
from checks import check_accuracy, check_digest, check_identical
from layers import WRAPPED, stage_metrics
from spans import wrapped

DOCUMENTS = 1000
NOISE_SHARE = 0.25
# Set-up is timed this many times per run and reported as the median.
SETUP_REPEATS = 7
# The engine runs over the corpus for the run's seconds, and at least this often.
MIN_PASSES = 3
# Untraced and traced one-worker runs alternate this many times each.
TRACED_PASSES = 3
ACCURACY_SAMPLE = 100


def make_corpus(seed: int, size: int = DOCUMENTS) -> list:
    """``size`` generated resumes; a seeded ``NOISE_SHARE`` of them have
    their markup malformed (their ground truth is unchanged)."""
    from repro.corpus.generator import ResumeCorpusGenerator
    from repro.corpus.noise import NoiseConfig, inject_noise

    docs = ResumeCorpusGenerator(seed=seed).generate(size)
    for index in rng(seed, "noise").sample(range(size), round(NOISE_SHARE * size)):
        docs[index].html = inject_noise(
            docs[index].html, rng(seed, f"noise:{index}"), NoiseConfig()
        )
    return docs


def _engine(kb, max_workers: int):
    from repro.runtime.engine import CorpusEngine, EngineConfig

    return CorpusEngine(
        kb, engine_config=EngineConfig(max_workers=max_workers, error_policy="skip")
    )


def reap_children() -> None:
    """Wait for every worker process this process started."""
    for child in multiprocessing.active_children():
        child.join(30)


def measure_setup(sources: list[str], speed: HostSpeed) -> float:
    """Median time from building the knowledge base and engine until the
    engine hands back its first converted chunk, probing ``speed``
    before each."""
    from repro.concepts.resume_kb import build_resume_knowledge_base

    samples = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        started = time.perf_counter()
        engine = _engine(build_resume_knowledge_base(), workers())
        stream = engine.stream(sources)
        next(stream)
        samples.append(time.perf_counter() - started)
        stream.close()
        reap_children()
    return median(samples)


def serial_reference(converter, sources: list[str]) -> tuple[list[str | None], list[float]]:
    """``converter.convert(source).to_xml()`` per document (None where
    conversion fails) and each call's wall seconds."""
    from repro.convert.errors import PipelineStageError

    reference: list[str | None] = []
    seconds: list[float] = []
    for source in sources:
        started = time.perf_counter()
        try:
            xml: str | None = converter.convert(source).to_xml()
        except PipelineStageError:
            xml = None
        seconds.append(time.perf_counter() - started)
        reference.append(xml)
    return reference, seconds


def measured_passes(sources: list[str], seconds: float) -> dict:
    """Build the knowledge base and engine, then run the engine over
    ``sources`` for ``seconds`` (at least ``MIN_PASSES`` times).

    :func:`run` calls this in a fresh interpreter, so the peak memory it
    reads (its own plus its engine workers') is the engine's: input
    generation, the serial reference and set-up timing happen elsewhere.
    """
    from repro.concepts.resume_kb import build_resume_knowledge_base

    engine = _engine(build_resume_knowledge_base(), workers())
    rates: list[float] = []
    rss = [0.0]
    attempted = failed = 0
    digests: set[str] = set()
    first_xml: list[str] = []

    def sample_rss(_stats) -> None:
        rss[0] = max(rss[0], peak_rss_mb())

    speed = HostSpeed(config()["probe_ms"])
    measure_started = time.perf_counter()
    cpu_used = 0.0
    while len(rates) < MIN_PASSES or time.perf_counter() - measure_started < seconds:
        speed.probe()
        cpu_pass = cpu_seconds()
        ticks = cpu_ticks()
        started = time.perf_counter()
        outcome = engine.run(sources, progress=sample_rss)
        rates.append(len(sources) / unstolen_seconds(time.perf_counter() - started, ticks))
        reap_children()
        cpu_used += cpu_seconds() - cpu_pass
        corpus = outcome.corpus
        attempted += len(sources)
        failed += corpus.stats.documents_failed
        digests.add(digest(*_outputs(outcome)))
        first_xml = first_xml or corpus.xml_documents
    speed.probe()
    return {
        "rates": rates, "cpu_used": cpu_used, "probes": speed.samples,
        "rss": max(rss[0], peak_rss_mb()),
        "attempted": attempted, "failed": failed, "digests": sorted(digests),
        "xml": first_xml,
    }


def passes_in_fresh_interpreter(sources: list[str], seconds: float) -> dict:
    """:func:`measured_passes` in a new interpreter (this file run as a
    script, in a session of its own), waited for on every way out; if it
    has to be stopped early, its whole process group is killed."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.Popen(
        [sys.executable, __file__, repr(seconds)], env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = child.communicate(json.dumps(sources), timeout=seconds + 120)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"engine passes exited with code {child.returncode}")
    return json.loads(out)


def run(seed: int, seconds: float, cfg: dict) -> dict:
    from repro.concepts.resume_kb import build_resume_knowledge_base
    from repro.convert.pipeline import DocumentConverter

    docs = make_corpus(seed)
    sources = [d.html for d in docs]
    errors: list[str] = []

    speed = HostSpeed(cfg["probe_ms"])
    setup_s = measure_setup(sources, speed)
    reference, _ = serial_reference(DocumentConverter(build_resume_knowledge_base()), sources)
    passes = passes_in_fresh_interpreter(sources, seconds)

    first_digest = passes["digests"][0]
    if len(passes["digests"]) > 1:
        errors.append("engine output differs between passes")
    problem = check_identical(
        passes["xml"], [x for x in reference if x is not None], "engine vs serial"
    )
    if problem:
        errors.append(problem)
    if seed == cfg["default_seed"]:
        problem = check_digest(first_digest, cfg["pinned_digest"])
        if problem:
            errors.append(problem)
    sample = [
        i for i in rng(seed, "accuracy").sample(range(len(docs)), ACCURACY_SAMPLE)
        if reference[i] is not None
    ]
    accuracy, problem = check_accuracy(
        [reference[i] for i in sample], [docs[i].ground_truth for i in sample],
        cfg["accuracy_floor"],
    )
    if problem:
        errors.append(problem)

    attempted, failed = passes["attempted"], passes["failed"]
    speed.samples += passes["probes"]
    slowness = speed.slowness()
    return {
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": setup_s / slowness,
            "docs_per_s": median(passes["rates"]) * slowness,
            "peak_rss_mb": passes["rss"],
            "cpu_ms_per_doc": 1e3 * passes["cpu_used"] / attempted / slowness,
            "ok_ratio": (attempted - failed) / attempted,
        },
        "info": {
            "docs/s per pass": " ".join(f"{rate:.0f}" for rate in passes["rates"]),
            "host slowness": f"{slowness:.3f}",
            "probes (ms)": " ".join(f"{ms:.2f}" for ms in speed.samples),
            "accuracy": accuracy, "digest": first_digest,
        },
    }


# -- traced run ---------------------------------------------------------------------


def _outputs(outcome) -> tuple[list[str], str]:
    dtd = outcome.discovery.dtd.render() if outcome.discovery else ""
    return outcome.corpus.xml_documents, dtd


def inline_stage_trace(kb, sources: list[str], trace_out: Path) -> dict:
    """Alternate untraced and traced one-worker engine runs over
    ``sources`` (a fresh engine each, so caches start cold as in any
    offline run).  The traced runs pass the program's tracer to
    ``CorpusEngine.run``, with :data:`layers.WRAPPED` recording into it.
    Returns the per-layer metrics of the last traced run, the tracing
    overhead, both runs' outputs and the untraced runs' per-document
    latency digest."""
    from repro.obs.quantiles import QuantileDigest
    from repro.obs.tracer import Tracer
    from repro.runtime.stats import DOCUMENT_STAGE

    untraced_walls, traced_walls = [], []
    outputs: dict[str, tuple[list[str], str]] = {}
    per_document = QuantileDigest()
    for _ in range(TRACED_PASSES):
        started = time.perf_counter()
        outcome = _engine(kb, 1).run(sources)
        untraced_walls.append(time.perf_counter() - started)
        outputs["untraced"] = _outputs(outcome)
        per_document.update(outcome.corpus.stats.stage_digests[DOCUMENT_STAGE])

        tracer = Tracer()
        engine = _engine(kb, 1)
        with wrapped(tracer, WRAPPED):
            started = time.perf_counter()
            outcome = engine.run(sources, tracer=tracer)
            traced_walls.append(time.perf_counter() - started)
        outputs["traced"] = _outputs(outcome)
    trace_out.write_text(json.dumps(tracer.export()))
    parsed_bytes = sum(len(source.encode("utf-8")) for source in sources)
    metrics = stage_metrics(tracer.spans, traced_walls[-1], parsed_bytes)
    metrics["obs.trace_overhead_ratio"] = median(traced_walls) / median(untraced_walls) - 1.0
    return {"metrics": metrics, "outputs": outputs, "per_document": per_document}


def pool_pass(kb, sources: list[str]) -> tuple[dict, tuple[list[str], str]]:
    """One ``nproc``-worker run, consumed chunk by chunk, timing the
    parent: blocked in ``next()`` versus handling each payload."""
    from repro.schema.accumulator import PathAccumulator

    engine = _engine(kb, workers())
    stats = engine.new_stats()
    accumulator = PathAccumulator()
    xml: list[str] = []
    wait = merge = chunk_seconds = 0.0
    payload_bytes = payloads = 0
    stream = engine.stream(sources, stats=stats)
    started = time.perf_counter()
    while True:
        blocked = time.perf_counter()
        payload = next(stream, None)
        wait += time.perf_counter() - blocked
        if payload is None:
            break
        payload_bytes += len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        payloads += 1
        chunk_seconds += payload.stats.seconds
        handling = time.perf_counter()
        xml.extend(payload.xml)
        accumulator.update(payload.accumulator)
        merge += time.perf_counter() - handling
    wall = time.perf_counter() - started
    reap_children()
    discovery = engine.discover(accumulator)
    from repro.runtime.stats import DOCUMENT_STAGE

    in_engine = stats.stage_digests[DOCUMENT_STAGE]
    cache = stats.tagger_cache_events
    synonym = cache.get("synonym", {})
    lookups = synonym.get("hits", 0) + synonym.get("misses", 0)
    metrics = {
        "runtime.chunks": stats.chunks,
        "runtime.docs_per_chunk": len(sources) / max(1, stats.chunks),
        "runtime.parent_wait_s": wait,
        "runtime.merge_s": merge / max(1, payloads),
        "runtime.payload_bytes_per_doc": payload_bytes / len(sources),
        "runtime.worker_util": chunk_seconds / (wall * workers()),
        "concepts.synonym_cache.hit_ratio": synonym.get("hits", 0) / lookups if lookups else 0.0,
        "concepts.cache.evictions": sum(c.get("evictions", 0) for c in cache.values()),
        "client.p50_ms.heavy": 1e3 * in_engine.quantile(0.5),
        "client.p90_ms.heavy": 1e3 * in_engine.quantile(0.9),
    }
    return metrics, (xml, discovery.dtd.render())


def run_traced(seed: int, trace_out: Path) -> dict:
    from repro.concepts.resume_kb import build_resume_knowledge_base

    sources = [d.html for d in make_corpus(seed)]
    kb = build_resume_knowledge_base()
    traced = inline_stage_trace(kb, sources, trace_out)
    runtime, pooled = pool_pass(kb, sources)
    errors = []
    outputs = traced["outputs"]
    failed = len(sources) - len(outputs["untraced"][0])
    if outputs["traced"] != outputs["untraced"]:
        errors.append("traced run's XML + DTD differ from the untraced run's")
    if pooled != outputs["untraced"]:
        errors.append(f"{workers()}-worker XML + DTD differ from the one-worker run's")
    metrics = dict(traced["metrics"])
    metrics.update(runtime)
    metrics["client.p50_ms"] = 1e3 * traced["per_document"].quantile(0.5)
    metrics["client.p90_ms"] = 1e3 * traced["per_document"].quantile(0.9)
    return {
        "errors": errors,
        "attempted": len(sources) * (2 * TRACED_PASSES + 1),
        "failed": failed * (2 * TRACED_PASSES + 1),
        "metrics": metrics,
    }


if __name__ == "__main__":
    # Child side of passes_in_fresh_interpreter: sources on stdin, the
    # passes' outcome as JSON on stdout.
    use_program()
    print(json.dumps(measured_passes(json.loads(sys.stdin.read()), float(sys.argv[1]))))

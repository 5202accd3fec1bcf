"""Self-tests of the benchmark's own arithmetic and output checks.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import os
import types

import pytest

from checks import check_accuracy, check_digest, check_fold, check_identical
from common import HostSpeed, digest, probe_ms, quantile, rng
from layers import stage_metrics
from loadgen import poisson_schedule
from repro.obs.tracer import Span, Tracer
from serverproc import bucket_quantile, histogram_delta
from spans import documents, linear_fit_r2, self_times, wrapped
from wl_serve import crossing, isotonic


def corrupt(text: str, position: int) -> str:
    """The same text with one byte changed."""
    replacement = "x" if text[position] != "x" else "y"
    return text[:position] + replacement + text[position + 1:]


def span(name, span_id, parent, start, end, **attrs) -> Span:
    return Span(name, span_id, parent, start, end, attrs)


# -- spans ------------------------------------------------------------------------


def nested_spans() -> list[Span]:
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 7];
    # e [11, 12] is a second top-level span.  Completion order.
    return [
        span("c", "c", "b", 2.0, 3.0),
        span("b", "b", "a", 1.0, 4.0),
        span("d", "d", "a", 5.0, 7.0),
        span("a", "a", None, 0.0, 10.0),
        span("e", "e", None, 11.0, 12.0),
    ]


def test_self_time_subtracts_only_direct_children():
    assert self_times(nested_spans()) == [1.0, 2.0, 2.0, 5.0, 1.0]


def test_self_time_merges_overlapping_children():
    spans = [
        span("x", "x", "p", 1.0, 5.0),
        span("y", "y", "p", 3.0, 6.0),
        span("z", "z", "p", 9.0, 12.0),  # clipped at the parent's end
        span("p", "p", None, 0.0, 10.0),
    ]
    assert self_times(spans)[3] == pytest.approx(10.0 - 5.0 - 1.0)


def test_budget_residual_is_wall_minus_summed_self_time():
    # One document: its outer span (a container, no layer) holds parse
    # and instance; extract_paths holds accumulate; to_xml runs beside.
    spans = [
        span("convert.parse", "p", "d", 0.5, 2.0),
        span("convert.instance", "i", "d", 3.0, 6.0, identified=8, unidentified=2),
        span("convert.document", "d", "k", 0.0, 6.5, doc="doc0000", input_nodes=50),
        span("dom.to_xml", "x", "k", 6.5, 7.0, value=300),
        span("schema.accumulate", "a", "e", 7.5, 8.0),
        span("discover.extract_paths", "e", "k", 7.0, 8.0, doc="doc0000"),
        span("engine.chunk", "k", None, 0.0, 8.5),
    ]
    wall = 10.0
    layer_self = [t for sp, t in zip(spans, self_times(spans))
                  if sp.name not in ("convert.document", "engine.chunk")]
    metrics = stage_metrics(spans, wall=wall, parsed_bytes=3000)
    assert metrics["budget.unattributed_ratio"] == pytest.approx((wall - sum(layer_self)) / wall)
    assert metrics["budget.unattributed_ratio"] == pytest.approx((10.0 - 6.0) / 10.0)
    assert metrics["convert.instance.self_ms_per_doc"] == pytest.approx(3000.0)
    assert metrics["convert.instance.identified_ratio"] == pytest.approx(0.8)
    assert metrics["schema.extract_paths.self_ms_per_doc"] == pytest.approx(500.0)
    assert metrics["schema.accumulate.self_ms"] == pytest.approx(500.0)
    assert metrics["htmlparse.parse.mb_per_s"] == pytest.approx(3000 / 1e6 / 1.5)
    assert metrics["htmlparse.nodes_per_doc"] == 50
    assert metrics["dom.xml_bytes_per_doc"] == 300
    assert documents(spans) == ["doc0000"] * 6 + [None]


def test_wrapped_spans_nest_in_the_program_tracer_and_are_removed():
    module = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    import sys

    sys.modules["fake_layer"] = module
    tracer = Tracer()
    try:
        with wrapped(tracer, [
            ("fake_layer.outer", "outer", lambda a, r: r),
            ("fake_layer.inner", "inner", None),
        ]):
            with tracer.span("doc", doc="d1"):
                assert module.outer(1) == 4
        assert module.inner is inner and module.outer is outer
    finally:
        del sys.modules["fake_layer"]
    by_name = {sp.name: sp for sp in tracer.spans}
    assert [sp.name for sp in tracer.spans] == ["inner", "outer", "doc"]
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].parent_id == by_name["doc"].span_id
    assert by_name["outer"].attrs == {"value": 4}
    assert documents(tracer.spans) == ["d1", "d1", "d1"]


def test_linear_fit_r2():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert linear_fit_r2(xs, [3.0 + 2.0 * x for x in xs]) == pytest.approx((3.0, 2.0, 1.0))
    assert linear_fit_r2(xs, [1.0, 1.0, 1.0, 1.0])[2] == 0.0


# -- load generator ---------------------------------------------------------------


def test_poisson_schedule_is_fixed_by_the_seed():
    first = poisson_schedule(100.0, 5.0, rng(7, "low"))
    again = poisson_schedule(100.0, 5.0, rng(7, "low"))
    other = poisson_schedule(100.0, 5.0, rng(8, "low"))
    assert first == again
    assert first != other
    assert all(0.0 <= t < 5.0 for t in first)
    assert first == sorted(first)
    assert len(first) == len(other) == 500  # the expected count, for every seed


def test_host_slowness_is_the_mean_probe_over_the_reference():
    speed = HostSpeed(10.0)
    speed.samples = [15.0, 25.0]
    assert speed.slowness() == pytest.approx(2.0)


def test_probe_restores_the_cpu_affinity():
    allowed = os.sched_getaffinity(0)
    assert probe_ms(repeats=1) > 0.0
    assert os.sched_getaffinity(0) == allowed


def test_search_reads_the_crossing_off_a_monotone_fit():
    assert isotonic([1.0, 3.0, 2.0, 4.0]) == [1.0, 2.5, 2.5, 4.0]
    points = [(100.0, 10.0), (125.0, 80.0), (150.0, 20.0), (200.0, 300.0)]
    # The slow probe at 125/s is pooled with 150/s: fitted 50 ms at both,
    # so with a 50 ms limit the crossing is the 150/s probe.
    assert crossing(points, 50.0) == pytest.approx(150.0)
    assert crossing([(100.0, 10.0), (200.0, 90.0)], 50.0) == pytest.approx(150.0)
    assert crossing([(100.0, 60.0), (200.0, 90.0)], 50.0) == 100.0


def test_quantile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert quantile(values, 0.5) == 50.0
    assert quantile(values, 0.95) == 95.0
    assert quantile([], 0.5) == 0.0


def test_histogram_delta_and_bucket_quantile():
    name = "lat"
    before = {("lat_bucket", 'le="1.0"'): 5.0, ("lat_bucket", 'le="2.0"'): 5.0,
              ("lat_bucket", 'le="+Inf"'): 5.0}
    after = {("lat_bucket", 'le="1.0"'): 15.0, ("lat_bucket", 'le="2.0"'): 25.0,
             ("lat_bucket", 'le="+Inf"'): 25.0}
    buckets = histogram_delta(before, after, name)
    assert buckets == [(1.0, 10.0), (2.0, 10.0), (float("inf"), 0.0)]
    assert bucket_quantile(buckets, 0.5) == pytest.approx(1.0)
    assert bucket_quantile(buckets, 0.75) == pytest.approx(1.5)


# -- output checks fail on a one-byte corruption ------------------------------------


@pytest.fixture(scope="module")
def converted():
    from repro.concepts.resume_kb import build_resume_knowledge_base
    from repro.convert.pipeline import DocumentConverter
    from repro.corpus.generator import ResumeCorpusGenerator
    from repro.runtime.engine import CorpusEngine

    kb = build_resume_knowledge_base()
    docs = ResumeCorpusGenerator(seed=3).generate(12)
    converter = DocumentConverter(kb)
    xml = [converter.convert(d.html).to_xml() for d in docs]
    dtd = CorpusEngine(kb).run([d.html for d in docs]).discovery.dtd.render()
    return docs, xml, dtd


def test_digest_check_fails_on_one_corrupted_byte(converted):
    _, xml, dtd = converted
    pinned = digest(xml, dtd)
    assert check_digest(digest(xml, dtd), pinned) is None
    bad = [corrupt(xml[4], len(xml[4]) // 2)] + xml[1:]
    assert check_digest(digest(bad, dtd), pinned) is not None
    assert check_digest(digest(xml, corrupt(dtd, 3)), pinned) is not None


def test_identity_check_fails_on_one_corrupted_byte(converted):
    _, xml, _ = converted
    assert check_identical(list(xml), xml, "t") is None
    for position in (0, len(xml[5]) // 2, len(xml[5]) - 1):
        bad = list(xml)
        bad[5] = corrupt(xml[5], position)
        assert check_identical(bad, xml, "t") is not None


def test_accuracy_check_fails_on_one_corrupted_markup_byte(converted):
    docs, xml, _ = converted
    truths = [d.ground_truth for d in docs]
    accuracy, problem = check_accuracy(xml, truths, floor=50.0)
    assert problem is None and accuracy > 50.0
    assert check_accuracy(xml, truths, floor=accuracy + 0.01)[1] is not None
    # Break a closing tag's name: the document no longer reads back.
    position = xml[2].index("</") + 2
    bad = list(xml)
    bad[2] = corrupt(xml[2], position)
    assert check_accuracy(bad, truths, floor=0.0)[1] is not None


def test_fold_check_fails_on_one_corrupted_byte(converted):
    _, _, dtd = converted
    assert check_fold(12, 12, dtd, dtd) is None
    assert check_fold(12, 12, corrupt(dtd, len(dtd) // 2), dtd) is not None
    assert check_fold(13, 12, dtd, dtd) is not None

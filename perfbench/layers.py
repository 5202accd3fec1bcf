"""How the spans of a traced corpus run become per-layer metrics.

Stage spans come from the program's own tracer; :data:`WRAPPED` adds
spans around the public functions that run outside any of its spans.
Each layer's time is the self time (duration minus child spans) of the
spans :data:`LAYER_OF` assigns to it.  Spans assigned to no layer --
the run, its chunks, each document's outer span -- are containers:
their self time is what the layer budget cannot attribute.
"""

from __future__ import annotations

from spans import documents, linear_fit_r2, self_times

# (target, span name, value recorded from (args, result)); every target
# is a name the pipeline or the engine looks up at call time.
WRAPPED = [
    ("repro.convert.pipeline.tree_size", "dom.tree_size", None),
    ("repro.convert.pipeline.to_xml_document", "dom.to_xml", lambda a, r: len(r)),
    ("repro.schema.accumulator:PathAccumulator.add", "schema.accumulate", None),
    ("repro.schema.accumulator:PathAccumulator.update", "schema.accumulate", None),
]

# span name -> layer.  Building the majority schema from the mined paths
# is reported with mining; the DTD derivation's two nested steps with it.
LAYER_OF = {
    "convert.parse": "htmlparse.parse",
    "convert.tidy": "htmlparse.tidy",
    "dom.tree_size": "dom.tree_size",
    "convert.tokenize": "convert.tokenize",
    "convert.instance": "convert.instance",
    "convert.group": "convert.group",
    "convert.consolidate": "convert.consolidate",
    "dom.to_xml": "dom.to_xml",
    "discover.extract_paths": "schema.extract_paths",
    "schema.accumulate": "schema.accumulate",
    "discover.mine_frequent": "schema.mine",
    "discover.majority_schema": "schema.mine",
    "discover.derive_dtd": "schema.dtd",
    "discover.repetition_ordering": "schema.dtd",
    "discover.cycle_break": "schema.dtd",
}

DOC_SPAN = "convert.document"

# Per-document layers whose cost is fitted against the parsed node count.
FITTED = [
    "htmlparse.parse", "htmlparse.tidy", "convert.tokenize", "convert.instance",
    "convert.group", "convert.consolidate", "dom.to_xml", "schema.extract_paths",
]


def _attr(spans: list, name: str, key: str) -> list:
    return [s.attrs[key] for s in spans if s.name == name and key in s.attrs]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def stage_metrics(spans: list, wall: float, parsed_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a corpus: ``wall`` is
    that pass's wall time (the denominator of the budget residual),
    ``parsed_bytes`` the size of the HTML it parsed."""
    layer_total: dict[str, float] = {}
    per_doc: dict[tuple[str, str], float] = {}
    for span, seconds, doc in zip(spans, self_times(spans), documents(spans)):
        layer = LAYER_OF.get(span.name)
        if layer is None:
            continue
        layer_total[layer] = layer_total.get(layer, 0.0) + seconds
        if doc is not None:
            per_doc[(doc, layer)] = per_doc.get((doc, layer), 0.0) + seconds
    docs = max(1, sum(1 for s in spans if s.name == DOC_SPAN))

    def ms_per_doc(layer: str) -> float:
        return 1e3 * layer_total.get(layer, 0.0) / docs

    parse_s = layer_total.get("htmlparse.parse", 0.0)
    identified = sum(_attr(spans, "convert.instance", "identified"))
    attempted_tokens = identified + sum(_attr(spans, "convert.instance", "unidentified"))
    attributed = sum(layer_total.values())
    metrics = {
        "htmlparse.parse.self_ms_per_doc": ms_per_doc("htmlparse.parse"),
        "htmlparse.parse.mb_per_s": parsed_bytes / 1e6 / parse_s if parse_s else 0.0,
        "htmlparse.tidy.self_ms_per_doc": ms_per_doc("htmlparse.tidy"),
        "htmlparse.nodes_per_doc": _mean(_attr(spans, DOC_SPAN, "input_nodes")),
        "convert.tokenize.self_ms_per_doc": ms_per_doc("convert.tokenize"),
        "convert.tokenize.tokens_per_doc": _mean(_attr(spans, "convert.tokenize", "tokens")),
        "convert.instance.self_ms_per_doc": ms_per_doc("convert.instance"),
        "convert.instance.identified_ratio": (
            identified / attempted_tokens if attempted_tokens else 0.0
        ),
        "convert.group.self_ms_per_doc": ms_per_doc("convert.group"),
        "convert.group.groups_per_doc": _mean(_attr(spans, "convert.group", "groups")),
        "convert.consolidate.self_ms_per_doc": ms_per_doc("convert.consolidate"),
        "convert.consolidate.eliminated_per_doc": _mean(
            _attr(spans, "convert.consolidate", "eliminated")
        ),
        "dom.to_xml.self_ms_per_doc": ms_per_doc("dom.to_xml"),
        "dom.xml_bytes_per_doc": _mean(_attr(spans, "dom.to_xml", "value")),
        "schema.extract_paths.self_ms_per_doc": ms_per_doc("schema.extract_paths"),
        "schema.accumulate.self_ms": 1e3 * layer_total.get("schema.accumulate", 0.0),
        "schema.mine.self_ms": 1e3 * layer_total.get("schema.mine", 0.0),
        "schema.dtd.self_ms": 1e3 * layer_total.get("schema.dtd", 0.0),
        "budget.unattributed_ratio": (wall - attributed) / wall if wall > 0 else 0.0,
    }
    nodes = sorted(
        (s.attrs["doc"], s.attrs["input_nodes"])
        for s in spans if s.name == DOC_SPAN and "input_nodes" in s.attrs
    )
    for layer in FITTED:
        xs = [float(n) for _, n in nodes]
        ys = [per_doc.get((doc, layer), 0.0) for doc, _ in nodes]
        metrics[f"{layer}.r2_nodes"] = linear_fit_r2(xs, ys)[2]
    return metrics

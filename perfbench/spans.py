"""Span arithmetic over the program's own tracer, plus wrappers where
the program records no span.

``CorpusEngine.run(..., tracer=Tracer())`` already records a span per
pipeline stage and discovery step (``repro.obs.tracer``), with counts
as attributes.  A few public functions run outside any span of their
own; :func:`wrapped` puts a span around each call of such a function --
an attribute the program looks up at call time -- recorded in the same
tracer, so it nests like the built-in spans, and puts the original back
afterwards.  The benchmark does not edit the program to trace it.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

Target = tuple[str, str, Callable[[tuple, object], object] | None]


def _resolve(target: str) -> tuple[object, str]:
    """``"pkg.mod.attr"`` or ``"pkg.mod:Class.attr"`` -> (owner, attr)."""
    if ":" in target:
        module_name, rest = target.split(":")
        owner: object = importlib.import_module(module_name)
        *path, attr = rest.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr
    module_name, attr = target.rsplit(".", 1)
    return importlib.import_module(module_name), attr


def _wrap(tracer, name: str, fn: Callable, value) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if value is not None:
            span.set(value=value(args, result))
        return result

    return wrapper


@contextmanager
def wrapped(tracer, targets: Iterable[Target]) -> Iterator[None]:
    """Inside the block, each ``(target, span_name, value_fn)`` runs in
    ``tracer.span(span_name)``; ``value_fn(args, result)``, when given,
    is stored as the span's ``value`` attribute."""
    patches: list[tuple[object, str, object]] = []
    try:
        for target, name, value in targets:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            patches.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr), value))
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# -- arithmetic -----------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval that its
    child spans (by parent id) cover, children clipped to the parent
    and overlaps merged."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    result = []
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, [])):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.seconds - covered)
    return result


def documents(spans: list) -> list[str | None]:
    """The document each span belongs to: the ``doc`` attribute of the
    span or its nearest ancestor.  A span with neither (``to_xml`` runs
    beside the document's conversion span, not inside it) takes the
    document of the sibling that completed just before it; spans are in
    completion order."""
    by_id = {span.span_id: span for span in spans}

    def inherited(span) -> str | None:
        while span is not None:
            if span.attrs.get("doc") is not None:
                return span.attrs["doc"]
            span = by_id.get(span.parent_id)
        return None

    last: dict[str | None, str] = {}
    result = []
    for span in spans:
        doc = inherited(span)
        if doc is None:
            doc = last.get(span.parent_id)
        else:
            last[span.parent_id] = doc
        result.append(doc)
    return result


def linear_fit_r2(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Least-squares ``y = a + b*x``; returns ``(a, b, r2)``.  R² is 0
    when ``y`` has no variance to explain or ``x`` has none to use."""
    n = len(xs)
    if n < 2:
        return 0.0, 0.0, 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = sum((y - mean_y) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return mean_y, 0.0, 0.0
    b = sxy / sxx
    a = mean_y - b * mean_x
    return a, b, (sxy * sxy) / (sxx * syy)

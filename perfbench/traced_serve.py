"""Run ``repro-web serve`` with spans around the schema write path and
the schema-version read path, then write the spans out.

Usage: ``python traced_serve.py SPANS.json serve [serve options...]``

The service records no span of its own for these calls, so
:func:`spans.wrapped` adds them.  Folds and conforms run in the server
process's executor threads, so each thread records into a tracer of
its own and every span lands in this one process.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_program  # noqa: E402
from spans import wrapped  # noqa: E402

SERVER_TARGETS = [
    ("repro.schema.evolution:EvolvingSchema.fold", "schema.fold", None),
    ("repro.service.state:TopicState.conform_to_version", "mapping.conform", None),
]


class PerThreadTracer:
    """A ``Tracer`` per thread, so concurrent spans never share a stack."""

    def __init__(self) -> None:
        from repro.obs.tracer import Tracer

        self._make = Tracer
        self._local = threading.local()
        self.tracers: list = []
        self._lock = threading.Lock()

    def span(self, name: str, **attrs):
        tracer = getattr(self._local, "tracer", None)
        if tracer is None:
            tracer = self._local.tracer = self._make(id_prefix=f"t{threading.get_ident()}.")
            with self._lock:
                self.tracers.append(tracer)
        return tracer.span(name, **attrs)

    def export(self) -> list[dict]:
        return [row for tracer in self.tracers for row in tracer.export()]


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    use_program()
    from repro.cli import main as cli_main

    tracer = PerThreadTracer()
    try:
        with wrapped(tracer, SERVER_TARGETS):
            return cli_main(argv[1:])
    finally:
        out.write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

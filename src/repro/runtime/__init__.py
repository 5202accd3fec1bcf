"""Parallel streaming runtime (scale-out layer over Sections 2-3).

* :mod:`repro.runtime.engine` -- :class:`CorpusEngine`: chunked
  process-pool conversion with a deterministic in-order merge, plus
  schema discovery over merged path statistics; and ``WorkerPool``, the
  one conversion worker pool (worker handshake, crash rebuild, killer
  bisection) that the engine and the service both run on.
* :mod:`repro.runtime.stats` -- :class:`EngineStats` / per-chunk
  instrumentation (rule timings, docs/sec, queue depth, failure
  counts).
* :mod:`repro.runtime.faults` -- the fault-tolerance layer:
  :class:`ErrorPolicy` (fail-fast / skip / quarantine),
  :class:`DocumentFailure` records, and worker-crash recovery
  (pool rebuild + chunk bisection) support.

The engine is differentially tested against the serial
:meth:`repro.convert.pipeline.DocumentConverter.convert_many` path:
identical XML bytes per document and an identical discovered DTD for
any worker count -- including corpora with poison documents under a
skip policy, where the engine must equal the serial conversion of the
surviving documents.
"""

from repro.runtime.engine import (
    ChunkPayload,
    CorpusEngine,
    CorpusResult,
    DiscoveryResult,
    EngineConfig,
    EngineRun,
)
from repro.runtime.faults import (
    DocumentFailure,
    ErrorPolicy,
    PipelineStageError,
    PoolRebuildExhausted,
    RecoveryBudget,
    worker_crash_failure,
    write_quarantine,
)
from repro.runtime.stats import ChunkStats, EngineStats, rule_rows_from_registry
from repro.schema.accumulator import PathAccumulator

__all__ = [
    "CorpusEngine",
    "EngineConfig",
    "EngineStats",
    "rule_rows_from_registry",
    "ChunkStats",
    "ChunkPayload",
    "CorpusResult",
    "DiscoveryResult",
    "EngineRun",
    "PathAccumulator",
    "DocumentFailure",
    "ErrorPolicy",
    "PipelineStageError",
    "PoolRebuildExhausted",
    "RecoveryBudget",
    "worker_crash_failure",
    "write_quarantine",
]

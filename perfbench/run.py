"""The repository's benchmark: one command per workload.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics declared in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics,
from a separate traced run whose outputs must equal the untraced
run's.  A layer a workload bypasses reads 0.  Any wrong output (see
``checks.py``) makes the command exit non-zero without a result line.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
import traceback

import common


def _run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    common.use_program()
    cfg = common.config()
    import wl_corpus
    import wl_serve

    # Spans of a traced run are written here when it ends.
    trace_dir = common.ROOT / ".perfbench_out" if traced else None
    if trace_dir is not None:
        trace_dir.mkdir(exist_ok=True)
    if workload == "corpus":
        if trace_dir is not None:
            return wl_corpus.run_traced(seed, trace_dir / "corpus-spans.json")
        return wl_corpus.run(seed, seconds, cfg)
    runner = {"serve-convert": wl_serve.run_convert, "serve-mixed": wl_serve.run_mixed}[workload]
    with common.WorkDir(workload) as work:
        return runner(seed, seconds, cfg, work, trace_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus", "serve-convert", "serve-mixed"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the pinned-digest seed in config.json)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so every service it launched is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    steal_before = common.cpu_ticks()
    try:
        end_to_end, per_layer = common.declared_metrics()
        cfg = common.config()
        seed = args.seed if args.seed is not None else cfg["default_seed"]
        if common.host() != cfg["host"]:
            print(f"note: rates and baselines in config.json were sized on "
                  f"{cfg['host']}, this host is {common.host()}", file=sys.stderr)
        outcome = _run(args.workload, seed, args.seconds, bool(args.trace))
        if args.trace:
            units = per_layer
            metrics = {name: 0.0 for name in per_layer}
            metrics.update(outcome["metrics"])
        else:
            units = end_to_end
            metrics = outcome["metrics"]
        line = common.result_line(
            not outcome["errors"], outcome["attempted"], outcome["failed"], metrics, units
        )
    except Exception:
        traceback.print_exc()
        print("benchmark failed: no result", file=sys.stderr)
        return 2
    finally:
        from wl_corpus import reap_children

        reap_children()
    for key, value in outcome.get("info", {}).items():
        print(f"{key}: {value}", file=sys.stderr)
    for error in outcome["errors"]:
        print(f"output check failed: {error}", file=sys.stderr)
    stolen, total = (a - b for a, b in zip(common.cpu_ticks(), steal_before))
    print(f"{args.workload} seed={seed} took {time.perf_counter() - started:.1f}s; "
          f"the hypervisor stole {100 * stolen / max(1, total):.0f}% of CPU time",
          file=sys.stderr)
    if outcome["errors"]:
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of noisymine with per-layer tracing.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli-fig14 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics through the program's
user-facing entry points (CLI processes, the HTTP daemon, segmented
store appends).  ``--trace 1`` is a separate run that hosts the same
entry points in-process, wraps each layer's public functions and
reports per-layer metrics.  Every ``NOISYMINE_*`` variable is cleared
and no execution flag is passed, so the default production path is
what gets measured.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it describe the
host and the run.  The exit code is non-zero, with no result line,
when the checkout holds no program source or the run cannot proceed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    SRC,
    WORK,
    Spawner,
    clear_program_env,
    host_record,
    import_seconds,
    source_digest,
    source_present,
)

#: Per-layer metrics and their units, in report order.
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.client_overhead_s": "s",
    "service.memo_hits": "count",
    "service.store_cache_misses": "count",
    "io.scan_s": "s",
    "io.scans": "count",
    "io.bytes_read": "bytes",
    "io.segments.append_s": "s",
    "io.segments.append_calls": "count",
    "engine.database_matches_s": "s",
    "engine.database_matches_calls": "count",
    "engine.symbol_matches_s": "s",
    "mining.counting.count_s": "s",
    "mining.counting.patterns_counted": "count",
    "mining.counting.sample_patterns_counted": "count",
    "mining.ambiguous.classify_s": "s",
    "mining.ambiguous.self_s": "s",
    "mining.ambiguous.candidates_generated": "count",
    "mining.collapsing.collapse_s": "s",
    "mining.collapsing.probes": "count",
    "mining.collapsing.probe_rounds": "count",
    "core.lattice.generate_s": "s",
    "core.lattice.candidates": "count",
    "core.border.add_s": "s",
    "core.border.add_calls": "count",
    "core.border.add_accept_ratio": "ratio",
    "core.border.covers_s": "s",
    "mining.delta.remine_s": "s",
    "mining.delta.full_scans": "count",
    "mining.delta.reprobed": "count",
    "mining.delta.patterns_counted": "count",
    "obs.tracing_overhead": "ratio",
}

#: Repetitions behind ``cli.import_s``.
IMPORT_REPEATS = 3


def traced_run(workload):
    from tracing import build_recorder, layer_metrics, missing_layers
    from workloads import Outcome, counts_of

    recorder = build_recorder()
    import_s = median([import_seconds(workload.spawner)[1]
                       for _ in range(IMPORT_REPEATS)])
    ops, plain, traced = workload.traced(recorder)
    recorder.write(WORK / "traces" / f"{workload.name}-{workload.seed}.json")
    values = layer_metrics(recorder.spans, len(ops))
    values["cli.import_s"] = import_s
    timed_jobs = [op.service for op in ops if op.service]
    for key in ("queue_wait_s", "run_s", "client_overhead_s"):
        values[f"service.{key}"] = (
            sum(job[key] for job in timed_jobs) / len(ops)
        )
    service = getattr(workload, "service_counts", {})
    values["service.memo_hits"] = service.get("memo_hits", 0.0)
    values["service.store_cache_misses"] = service.get("store_cache_misses", 0.0)
    values["obs.tracing_overhead"] = median(
        [t / p for t, p in zip(traced, plain)])
    errors = [f"wrapper never fired: {name}"
              for name in missing_layers(workload.name, recorder.spans)]
    if workload.name == "daemon-dense" and len(timed_jobs) != len(ops):
        errors.append("service timestamps missing on some jobs")
    metrics = {name: (values[name], unit)
               for name, unit in PER_LAYER_UNITS.items()}
    counts = counts_of(ops)
    counts["layers"] = {name: round(value, 9) for name, value in values.items()
                        if PER_LAYER_UNITS[name] == "count"}
    return Outcome(metrics, ops, errors, counts)


def check_ledger(name: str, seed: int, seconds: int, trace: int,
                 counts: dict):
    """Count metrics must repeat exactly for one program, workload and
    seed: the first run records them, later runs compare."""
    ledger = WORK / "counts" / source_digest() / f"{name}-{seed}-{seconds}-{trace}.json"
    if ledger.exists():
        recorded = json.loads(ledger.read_text())
        if recorded != counts:
            return ("count metrics differ from an earlier run of this "
                    f"program with seed {seed}: {recorded} != {counts}")
        return None
    ledger.parent.mkdir(parents=True, exist_ok=True)
    tmp = ledger.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, ledger)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not source_present():
        print(f"perfbench: no program source at {SRC}; run from the root "
              f"of a noisymine checkout", file=sys.stderr)
        return 2
    cleared = clear_program_env()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so every child gets stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with Spawner(work) as spawner:
            workload = WORKLOADS[args.workload](args.seed, args.seconds,
                                                work, spawner)
            with workload.phase("prepare"):
                workload.prepare()
            outcome = (traced_run(workload) if args.trace
                       else workload.timed())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mismatch = check_ledger(args.workload, args.seed, args.seconds,
                            args.trace, outcome.counts)
    if mismatch:
        outcome.run_errors.append(mismatch)
    failed = outcome.failed
    correct = failed == 0 and not outcome.run_errors

    print(f"host: {json.dumps(host_record(cleared), sort_keys=True)}")
    print(f"workload {args.workload} seed={args.seed} "
          f"trace={args.trace} ops={len(outcome.ops)} phases_s="
          + json.dumps({k: round(v, 3) for k, v in workload.phases.items()}))
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    for op in outcome.ops:
        print(f"  op {op.index:3d} {op.algorithm:18s} latency {op.latency_s:.4f}s"
              f" cpu {op.cpu_s:.4f}s append {op.append_s:.4f}s scans {op.scans}"
              + (" memo-hit" if op.memo_hit else ""))
    for op in outcome.ops:
        if op.error:
            print(f"  FAILED op {op.index} ({op.algorithm}): {op.error}")
    for error in outcome.run_errors:
        print(f"  FAILED run check: {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcome.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Process-backend drain table: both shard backends, same run (ISSUE 9).

Replays the Fig. 8c synthetic stream (60K events at full scale, 1 REST
fault per 1000) through ``ShardedAnalyzer`` at shard counts
{1, 2, 4, 8} on **both** execution backends — ``inline`` (all shards
in the calling thread) and ``process`` (one long-lived worker process
per shard, chunked seeding + backpressure per
``docs/parallelism.md``) — and times, per backend:

* **startup** — analyzer construction (for ``process``: forking the
  pool and seeding every worker with the pickled library + config);
* **ingest** — scatter + chunk shipping + flush;
* **detect** — the deferred Algorithm 2 drain.

What this test *gates* is correctness: ``verify_equivalence`` PASS at
every shard count on both backends, and identical report counts cell
by cell between the backends.  The timings are a same-run table and
gate nothing here; the inline-vs-process speed judgement is the
ledger's ``storm_shards`` workload (``events_per_s`` against
``inline_events_per_s``, ``benchmarks/e2e``).

Artifacts (full scale only): ``results/BENCH_parallel_process.json``
and ``results/parallel_process.txt``.
"""

import time

from conftest import full_scale, save_committed

from repro.core.config import GretelConfig
from repro.core.parallel import ShardedAnalyzer, verify_equivalence
from repro.monitoring.store import MetadataStore
from repro.workloads.traffic import SyntheticStream

SHARD_COUNTS = (1, 2, 4, 8)
FAULT_EVERY = 1000
ALPHA = 768          # the paper's testbed α, as in Fig. 8c
SEED = 5             # the Fig. 8c stream seed
REPEATS = 3          # timing is best-of-N; fresh pool each run


def _config():
    return GretelConfig(alpha=ALPHA)


def _time_backend(library, events, shards, backend):
    """Best-of-N (by detect drain) timing for one configuration."""
    best = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        analyzer = ShardedAnalyzer(
            library, shards, store=MetadataStore(), config=_config(),
            track_latency=False, defer_detection=True,
            backend=backend,
        )
        startup = time.perf_counter() - started
        try:
            started = time.perf_counter()
            analyzer.ingest(events)
            analyzer.flush()
            ingest = time.perf_counter() - started
            started = time.perf_counter()
            snapshots = analyzer.process_deferred()
            detect = time.perf_counter() - started
            sample = {
                "shards": shards,
                "backend": backend,
                "startup_seconds": startup,
                "ingest_seconds": ingest,
                "detect_seconds": detect,
                "drain_seconds": ingest + detect,
                "snapshots": snapshots,
                "reports": len(analyzer.reports),
            }
        finally:
            analyzer.close()
        if best is None or detect < best["detect_seconds"]:
            best = sample
    return best


def _render(payload):
    lines = [
        "Process-backend drain table (Fig. 8c stream)",
        f"{payload['stream']['events']} events, 1 fault per "
        f"{payload['stream']['fault_every']}, alpha={ALPHA}, "
        f"scale={payload['scale']}",
        f"{'config':>14s} {'startup':>9s} {'ingest':>9s} "
        f"{'detect':>9s} {'oracle':>8s}",
    ]
    for row in payload["runs"]:
        label = f"{row['shards']}sh-{row['backend']}"
        lines.append(
            f"{label:>14s} {row['startup_seconds']:7.3f}s "
            f"{row['ingest_seconds']:7.3f}s "
            f"{row['detect_seconds']:7.3f}s "
            f"{'PASS' if row['equivalent'] else 'FAIL':>8s}"
        )
    return "\n".join(lines)


def test_parallel_process_gate(character, save_result):
    library = character.library
    event_count = 60_000 if full_scale() else 12_000
    stream = SyntheticStream(
        library, library.symbols, fault_every=FAULT_EVERY, seed=SEED,
    )
    events = stream.events(event_count)

    runs = []
    for shards in SHARD_COUNTS:
        for backend in ("inline", "process"):
            sample = _time_backend(library, events, shards, backend)
            oracle = verify_equivalence(
                events, library, shards, config=_config(),
                track_latency=False, defer_detection=True,
                strict=False, backend=backend,
            )
            sample.update({
                "equivalent": oracle.ok,
                "serial_reports": oracle.serial_reports,
                "sharded_reports": oracle.sharded_reports,
            })
            runs.append(sample)

    def pick(shards, backend):
        return next(r for r in runs
                    if r["shards"] == shards and r["backend"] == backend)

    payload = {
        "benchmark": "parallel_process",
        "scale": "full" if full_scale() else "small",
        "stream": {
            "events": event_count,
            "fault_every": FAULT_EVERY,
            "alpha": ALPHA,
            "seed": SEED,
        },
        "runs": runs,
    }
    # The committed JSON is a full-scale run; the small smoke scale
    # must not clobber it with reduced-stream numbers.
    if full_scale():
        save_committed("BENCH_parallel_process.json", payload)
        save_result("parallel_process", _render(payload))
    else:
        print()
        print(_render(payload))

    # The oracle must hold for every (shards, backend) cell.
    for row in runs:
        assert row["equivalent"], (
            f"{row['backend']} run diverged from serial at "
            f"{row['shards']} shards"
        )
        assert row["serial_reports"] == row["sharded_reports"] > 0
    # Both backends must report identically to *each other* too (same
    # report count cell by cell — signatures already matched serial).
    for shards in SHARD_COUNTS:
        assert pick(shards, "process")["reports"] == \
            pick(shards, "inline")["reports"]

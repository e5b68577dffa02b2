"""Streaming-service soak: N producers × M tenant sessions under load.

Replays the Fig. 8c synthetic stream (60K events at full scale) as
one *continuous* multi-pass feed per tenant — timestamps and sequence
numbers advancing across passes — through the service as deployed:
producer threads submitting concurrently, one pump thread per tenant
session analysing on a serial ``GretelAnalyzer``, checkpointing to
disk every pass, swept over tenant counts.  It asserts the properties
a standing service must hold that a batch drain never exercises and
no ledger row covers:

* **exact accounting** — per leg, every offer submitted is accepted,
  analyzed and diagnosed identically by every tenant; nothing shed,
  nothing queued, no pump left alive after shutdown;
* **flat memory** — on every leg, from one long-lived session alone
  to the biggest: traced heap (``tracemalloc``) after the last pass
  stays within a small factor of the steady-state reference (taken
  after the second sampled pass, once the warmup caches are built).
  The analyzer lives in the traced process, so the heap includes its
  window and the matcher caches: session memory really is bounded by
  α + queue capacity, not by events ingested;
* **bounded state** — on every session: the pipeline's report log
  drained, the queue empty post-flush, and the window ≤ α both live
  and in the last checkpoint persisted;
* the service differential oracle (``verify_service``: the service
  killed and restarted through ``restore_all()`` against the
  single-threaded reference) holds on the measured stream.

This file asserts *properties* and measures no speed: under
``tracemalloc`` every events/s figure is several-fold off, and the
service's throughput, latency and RSS record is the ``paced_service``
workload on the ledger (``benchmarks/e2e``).  Artifact (full scale
only): ``results/service_async_soak.txt``.
"""

import gc
import tracemalloc
from dataclasses import replace

from conftest import full_scale

from repro.core.config import GretelConfig
from repro.core.state import decode_events
from repro.service import CheckpointStore, StreamingService, verify_service
from repro.service.oracle import drive_producers
from repro.workloads.traffic import SyntheticStream

FAULT_EVERY = 1000
ALPHA = 768          # the paper's testbed α, as in Fig. 8c
SEED = 5             # the Fig. 8c stream seed
QUEUE_CAPACITY = 4096

#: Acceptance ceiling (ISSUE 8): the traced heap after the final pass
#: must stay within this factor of the steady-state reference.
MEMORY_GROWTH_CEILING = 1.35

#: Tenant-count sweep: (tenants, sampled passes).  Every leg gets one
#: extra unsampled warmup pass (cold caches).  Full
#: scale totals ~12.5M events across the sweep.  A leg's heap-growth
#: ratio compares two different samples only from three passes up, so
#: the smoke sweep gives the single-session leg three too.
ASYNC_SWEEP_FULL = ((1, 10), (2, 20), (4, 38))
ASYNC_SWEEP_SMALL = ((1, 3), (2, 2), (4, 3))


def _pass_events(events, index, stride, count_stride):
    """Pass ``index`` of the continuous replay.

    Each pass advances timestamps and sequence numbers by one stream
    length — replaying identical timestamps would send time backwards
    at every pass boundary, which is a pathological stream (level-
    shift baselines invalidate, pending snapshots mis-order), not a
    soak.  Pass 0 is the original list; later passes are built on
    demand, so no leg holds ``passes`` copies alive.
    """
    if index == 0:
        return events
    dt = stride * index
    dseq = count_stride * index
    return [
        replace(
            event,
            seq=event.seq + dseq,
            ts_request=event.ts_request + dt,
            ts_response=event.ts_response + dt,
        )
        for event in events
    ]


def _async_leg(
    library, events, config, tenants, passes, stride, count,
    checkpoint_dir,
):
    """One sweep point: ``tenants`` pump sessions, one producer
    thread per tenant (a single producer per tenant preserves
    per-tenant stream order, so every tenant must emit an identical
    report log — asserted below).

    Per pass the producers submit concurrently, the service drains (a
    quiesce barrier), a checkpoint is written, and the traced heap is
    sampled — except after pass 0, the warmup (cold caches).  Returns
    the leg's payload fragment.
    """
    store = CheckpointStore(checkpoint_dir)
    service = StreamingService(
        library,
        config=config,
        queue_capacity=QUEUE_CAPACITY,
        policy="block",
        checkpoint_store=store,
    )
    sink_counts = {"reports": 0}

    def _count(tenant, report):
        # Count only — retaining report objects would read as heap
        # growth (each holds its matched-event list).  Fires on pump
        # threads; the single shared counter update is GIL-atomic
        # enough for a tally that is only read after the final join.
        sink_counts["reports"] += 1

    service.on_report(_count)
    keys = [f"soak-{index}" for index in range(tenants)]

    heap = []
    try:
        for index in range(passes + 1):
            replay = _pass_events(events, index, stride, count)
            # Every tenant replays the whole pass from its own
            # producer thread.
            drive_producers(
                service, dict.fromkeys(keys, replay), tenants,
            )
            service.drain()
            service.checkpoint_all()
            # Release this pass's replay copy before measuring, so the
            # heap series tracks the sessions, not the replay loop.
            replay = None
            if index:
                gc.collect()
                heap.append(tracemalloc.get_traced_memory()[0])

        service.flush()
        total = tenants * (passes + 1) * count
        stats = service.stats()
        per_tenant_reports = sorted(
            live.reports_emitted for live in service.sessions.values()
        )
        # No loss, no duplication, nothing left behind: every offer
        # was accepted (block policy), analyzed, and — because each
        # tenant consumed the identical stream in the identical order
        # — diagnosed identically.
        assert stats.events_submitted == total
        assert stats.events_accepted == total
        assert stats.events_analyzed == total
        assert stats.events_shed == 0
        assert stats.queued == 0
        assert stats.reports == sink_counts["reports"]
        assert per_tenant_reports[0] == per_tenant_reports[-1], (
            f"tenants diverged: per-tenant report counts "
            f"{per_tenant_reports}"
        )
        # Bounded state: a long-lived session must not grow with
        # ingest — read from the live analyzer and from what the last
        # per-pass checkpoint persisted of it.
        saved_states = store.load_all()
        for live in service.sessions.values():
            assert live.queued == 0
            assert not live.analyzer.reports, (
                "pipeline report log not drained — session memory "
                "would grow with every fault"
            )
            assert len(live.analyzer.window) <= ALPHA
            saved = saved_states[live.tenant]["analyzer"]
            # Count decoded events: a column block's own length is
            # the number of its columns.
            persisted = decode_events(saved["window"]["events"])
            assert 0 < len(persisted) <= ALPHA
    finally:
        service.shutdown()
    for live in service.sessions.values():
        assert not live.pump_alive

    # Steady-state heap reference: after the second sampled pass the
    # warmup caches are built; from there on the sessions must be
    # flat (report log drained, queue empty, window ≤ α).
    return {
        "tenants": tenants,
        "passes": passes,
        "reports_per_tenant": per_tenant_reports[0],
        "heap_steady_bytes": heap[1],
        "heap_last_bytes": heap[-1],
        "heap_growth": heap[-1] / heap[1],
    }


def _run_oracles(library, events, config):
    """The service differential oracle on the measured stream.
    Strict — a divergence fails the soak with the oracle's own
    summary."""
    return {
        "verify_service": verify_service(
            events, library, tenants=4, producers=4, cuts=2,
            config=config,
        ),
    }


def _render_async(payload):
    lines = [
        "service async soak — pump router, serial sessions "
        f"(scale: {payload['scale']})",
        "",
    ]
    for leg in payload["sweep"]:
        lines.append(
            f"{leg['tenants']:>8d} tenant(s)  "
            f"{leg['passes']}x{payload['events_per_pass']} events each, "
            f"{leg['reports_per_tenant']} reports/tenant; heap "
            f"{leg['heap_steady_bytes']:,d} -> "
            f"{leg['heap_last_bytes']:,d} B "
            f"(growth {leg['heap_growth']:.2f}x)"
        )
    lines += [
        "",
        "oracles: " + ", ".join(
            f"{name} {'EQUIVALENT' if result.ok else 'DIVERGED'}"
            for name, result in payload["oracles"].items()
        ),
    ]
    return "\n".join(lines)


def test_service_async_soak(character, save_result, tmp_path):
    library = character.library
    sweep = ASYNC_SWEEP_FULL if full_scale() else ASYNC_SWEEP_SMALL
    event_count = 60_000 if full_scale() else 12_000
    oracle_count = 20_000 if full_scale() else 6_000
    stream = SyntheticStream(
        library, library.symbols, fault_every=FAULT_EVERY, seed=SEED,
    )
    events = stream.events(event_count)
    config = GretelConfig(alpha=ALPHA)
    stride = (
        events[-1].ts_response - events[0].ts_request
        + 1.0 / stream.rate_pps
    )

    # The whole sweep runs under tracemalloc: the flat-memory claim
    # needs the heap series of every leg.
    gc.collect()
    tracemalloc.start()
    legs = [
        _async_leg(
            library, events, config, tenants, passes, stride,
            event_count, tmp_path / f"async-ckpt-{tenants}",
        )
        for tenants, passes in sweep
    ]
    tracemalloc.stop()

    oracles = _run_oracles(library, events[:oracle_count], config)

    payload = {
        "scale": "full" if full_scale() else "small",
        "events_per_pass": event_count,
        "sweep": legs,
        "oracles": oracles,
    }
    if full_scale():
        save_result("service_async_soak", _render_async(payload))
    else:
        print()
        print(_render_async(payload))

    # Correctness: the differential oracle must hold on the very
    # stream the sweep replayed.
    assert all(result.ok for result in oracles.values()), oracles

    # Flat memory, from one long-lived session alone to concurrent
    # multi-tenant ingest.
    for leg in legs:
        assert leg["heap_growth"] <= MEMORY_GROWTH_CEILING, (
            f"traced heap grew {leg['heap_growth']:.2f}x across the "
            f"{leg['tenants']}-tenant soak "
            f"({leg['heap_steady_bytes']:,d} -> "
            f"{leg['heap_last_bytes']:,d} bytes over {leg['passes']} "
            f"passes); ceiling {MEMORY_GROWTH_CEILING}x"
        )

"""Sharded online analysis: partitioned GRETEL with a correctness oracle.

The serial :class:`~repro.core.analyzer.GretelAnalyzer` is one
synchronous object: every wire event pays a chain of Python calls
(receiver → window append → fault scan → latency observe).  GRETEL's
own architecture implies a cheaper shape — the paper deploys one
capture agent per node and guarantees ordering only *per agent*
(§5.2), so the event stream is naturally partitioned by source node
and nothing in the pipeline requires a total order across nodes.

:class:`ShardedAnalyzer` exploits exactly that partitioning:

* events are routed to one of N shards by a deterministic partition
  key (source node by default, first-seen round-robin assignment);
* each shard is its own
  :class:`~repro.core.pipeline.graph.AnalysisPipeline` — the same
  class, built the same way, as the serial engine — so shards share
  no mutable state and a step never crosses shard boundaries;
* a shard step feeds a *chunk* of events to the pipeline's
  ``process_chunk``: latencies are observed per chunk, one cheap scan
  finds the (rare) faults, and fault-free runs land in the window via
  C-level ``deque.extend``;
* the merge stage orders every shard's
  :class:`~repro.core.reports.FaultReport` deterministically by
  (fault event sequence, fault kind, report timestamp), so two runs
  over the same stream produce byte-identical report streams
  regardless of shard count or chunking.

Correctness is not argued, it is *checked*: :func:`verify_equivalence`
replays a stream through the serial analyzer and a sharded one and
compares canonical report signatures.  Partitioning is semantics
preserving whenever fault contexts are partition-local (trivially so
for single-source streams such as the Fig. 8c replay harness, and for
any per-node capture deployment analyzed per agent); the oracle turns
that property from an assumption into an assertion.

No program module imports this one: the CLI, the scenario runner and
the service all run one serial analyzer.  It exists for the benchmark
ledger's ``storm_shards`` workload (``benchmarks/e2e``) and its own
tests.  See ``docs/parallelism.md``.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence,
)

from repro.openstack.catalog import ApiCatalog
from repro.openstack.wire import WireEvent
from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.fingerprint import FingerprintLibrary
from repro.core.pipeline.graph import (
    STAT_FIELDS,
    AnalysisPipeline,
    PipelineStats,
)
# ``report_signature`` lives with the reports it describes; the ledger
# (benchmarks/e2e) still spells it ``repro.core.parallel.report_signature``.
from repro.core.reports import (
    FaultReport,
    report_order_key,
    report_signature,
)
from repro.core.symbols import SymbolTable
from repro.monitoring.store import MetadataStore
from repro.oracle import OracleResult, diff_multisets, settle

#: Default number of events per shard step.
DEFAULT_BATCH_SIZE = 1024

#: Execution backends for :class:`ShardedAnalyzer`: ``"inline"`` runs
#: every shard in the calling thread (the differential-oracle half),
#: ``"process"`` gives each shard a long-lived worker process
#: (``repro.core.workers``) for real multi-core drain.
BACKENDS = ("inline", "process")


class ShardWorkerError(RuntimeError):
    """A shard worker process died, wedged, or reported a failure.

    Raised by the ``"process"`` backend instead of hanging; by the
    time it propagates the whole pool has been torn down (workers
    stopped or terminated), so the analyzer is safe to abandon.
    """


def source_node_key(event: WireEvent) -> str:
    """The default partition key: the capturing agent's node (§5.2)."""
    return event.src_node


class ShardedAnalyzer:
    """N-way partitioned GRETEL analyzer with deterministic merging.

    Public surface mirrors :class:`GretelAnalyzer` (``on_event`` /
    ``feed`` / ``flush`` / ``process_deferred`` / ``reports`` /
    counters) so callers can swap it in; events are routed to shards
    by ``key`` and buffered into chunks of ``batch_size`` per shard.
    A shard is an :class:`AnalysisPipeline` (or, on the process
    backend, the :class:`~repro.core.workers.ProcessShard` client of
    one living in a worker); both answer to the pipeline's method
    names.
    Aggregate counters come from merging the shards'
    :class:`~repro.core.pipeline.graph.PipelineStats` instead of a
    hand-written property per counter.

    ``backend`` selects how shards execute: ``"inline"`` (default)
    runs them in the calling thread — GIL-bound, but zero IPC and the
    reference half of every differential oracle — while ``"process"``
    places each shard in a long-lived worker process
    (:mod:`repro.core.workers`), seeded once with the pickled library
    and config, fed pre-chunked event batches with bounded in-flight
    backpressure, and streaming report batches back to the parent.
    Both backends produce identical merged reports and counters
    (``verify_equivalence`` checks it).  A process-backed analyzer
    owns OS resources: call :meth:`close` (or use the analyzer as a
    context manager) when done; on worker death every entry point
    raises :class:`ShardWorkerError` after tearing the pool down.
    """

    def __init__(
        self,
        library: FingerprintLibrary,
        shards: int = 4,
        *,
        key: Callable[[WireEvent], str] = source_node_key,
        batch_size: int = DEFAULT_BATCH_SIZE,
        symbols: Optional[SymbolTable] = None,
        catalog: Optional[ApiCatalog] = None,
        store: Optional[MetadataStore] = None,
        config: Optional[GretelConfig] = None,
        track_latency: bool = True,
        defer_detection: bool = False,
        report_listeners: Sequence[
            Callable[[FaultReport], None]
        ] = (),
        backend: str = "inline",
    ):
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (expected one of "
                f"{BACKENDS})"
            )
        self.library = library
        self.key = key
        self.backend = backend
        self.batch_size = max(1, batch_size)
        self.store = store or MetadataStore()
        self.config = config or GretelConfig()
        # Both backends build the same ``AnalysisPipeline(library,
        # **wiring)``: inline here, the process backend inside each
        # worker from the seed.
        wiring = {
            "symbols": symbols,
            "catalog": catalog,
            "store": self.store,
            "config": self.config,
            "track_latency": track_latency,
            "defer_detection": defer_detection,
        }
        if backend == "process":
            # Imported lazily: workers raises this module's
            # ShardWorkerError, so the module import is parallel ->
            # workers one-way only here.
            from repro.core.workers import ProcessShard, WorkerSeed

            self.shards = []
            for index in range(shards):
                client = ProcessShard(WorkerSeed(index, library, wiring))
                for callback in report_listeners:
                    client.on_report(callback)
                self.shards.append(client)
        else:
            self.shards = [
                AnalysisPipeline(
                    library, report_listeners=report_listeners, **wiring,
                )
                for _ in range(shards)
            ]
        #: partition key → shard index, assigned first-seen round-robin
        #: (deterministic for a given stream, maximally balanced across
        #: distinct keys — a stable hash can pile few nodes onto one
        #: shard).
        self._assignment: Dict[str, int] = {}
        self._buffers: List[List[WireEvent]] = [[] for _ in range(shards)]

    # -- routing -----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of worker shards."""
        return len(self.shards)

    def shard_index(self, partition_key: str) -> int:
        """The shard owning a partition key (assigning it if new)."""
        index = self._assignment.get(partition_key)
        if index is None:
            index = len(self._assignment) % len(self.shards)
            self._assignment[partition_key] = index
        return index

    @property
    def assignment(self) -> Dict[str, int]:
        """A copy of the partition-key → shard map seen so far."""
        return dict(self._assignment)

    # -- event intake ------------------------------------------------------

    def _step(self, index: int, chunk: Sequence[WireEvent]) -> None:
        """Feed one shard a FIFO run of its events, ``batch_size`` at
        a time; on worker death, tear the pool down."""
        process = self.shards[index].process_chunk
        size = self.batch_size
        try:
            for start in range(0, len(chunk), size):
                process(chunk[start:start + size])
        except ShardWorkerError:
            self.close()
            raise

    def _fanout(self, op: str) -> List[Any]:
        """Call the pipeline method ``op`` on every shard; results in
        shard order.

        Process shards are all posted to first and collected second,
        which keeps every worker busy simultaneously — a sequential
        call/reply loop would serialize the pool on one core at a
        time.
        """
        try:
            if self.backend == "process":
                for shard in self.shards:
                    shard.post(op)
                return [shard.wait(op) for shard in self.shards]
            return [getattr(shard, op)() for shard in self.shards]
        except ShardWorkerError:
            self.close()
            raise

    def on_event(self, event: WireEvent) -> None:
        """Streaming entry point: buffer per shard, step when full."""
        index = self.shard_index(self.key(event))
        buffer = self._buffers[index]
        buffer.append(event)
        if len(buffer) >= self.batch_size:
            self._step(index, buffer)
            self._buffers[index] = []

    def ingest(self, events: Sequence[WireEvent]) -> int:
        """Partition one batch of events and run each shard's step.

        Bypasses the streaming buffers: the whole batch is scattered in
        one pass and each shard ingests its bucket immediately.
        """
        shards = self.shards
        if len(shards) == 1:
            self._step(0, events)
            return len(events)
        buckets: List[List[WireEvent]] = [[] for _ in shards]
        key = self.key
        lookup = self._assignment.get
        route = self.shard_index
        for event in events:
            partition = key(event)
            index = lookup(partition)
            if index is None:
                index = route(partition)
            buckets[index].append(event)
        for index, bucket in enumerate(buckets):
            if bucket:
                self._step(index, bucket)
        return len(events)

    def feed(self, events: Iterable[WireEvent]) -> int:
        """Pump a stream in ``batch_size`` chunks; returns the count."""
        total = 0
        batch: List[WireEvent] = []
        for event in events:
            batch.append(event)
            if len(batch) >= self.batch_size:
                total += self.ingest(batch)
                batch = []
        if batch:
            total += self.ingest(batch)
        return total

    def flush(self) -> None:
        """Drain stream buffers and freeze all pending snapshots."""
        for index, buffer in enumerate(self._buffers):
            if buffer:
                self._step(index, buffer)
                self._buffers[index] = []
        self._fanout("flush")

    def process_deferred(self) -> int:
        """Analyze every shard's queued snapshots; returns the total."""
        return sum(self._fanout("process_deferred"))

    # -- merge stage -------------------------------------------------------

    @property
    def reports(self) -> List[FaultReport]:
        """All shards' reports in deterministic merged order."""
        merged = [r for shard in self.shards for r in shard.reports]
        merged.sort(key=report_order_key)
        return merged

    @property
    def operational_reports(self) -> List[FaultReport]:
        """Merged reports for operational faults."""
        return [r for r in self.reports if r.kind == "operational"]

    @property
    def performance_reports(self) -> List[FaultReport]:
        """Merged reports for performance faults."""
        return [r for r in self.reports if r.kind == "performance"]

    # -- aggregate stats ---------------------------------------------------

    def shard_stats(self) -> List[PipelineStats]:
        """Each shard's own counters, in shard order (a one-valued
        partition key leaves all but one at ``events_processed == 0``)."""
        return self._fanout("stats")

    def stats(self) -> PipelineStats:
        """Counters merged across all shards."""
        return PipelineStats.merged(self.shard_stats())

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release shard resources; stops process-backend workers.

        Idempotent and safe on a partially dead pool.  Inline shards
        hold no OS resources, so closing is a no-op there — callers
        can treat both backends uniformly.
        """
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedAnalyzer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getattr__(self, name: str):
        # Aggregate counters (events_processed, bytes_processed,
        # operational_faults_seen, snapshots_taken, analysis_seconds)
        # resolve against the merged per-shard stats — one merge rule
        # instead of a hand-written delegating property per counter.
        if name in STAT_FIELDS:
            return getattr(self.stats(), name)
        raise AttributeError(
            f"{type(self).__name__!s} has no attribute {name!r}"
        )


# ---------------------------------------------------------------------------
# Differential-correctness oracle
# ---------------------------------------------------------------------------

def verify_equivalence(
    events: Sequence[WireEvent],
    library: FingerprintLibrary,
    shards: int = 4,
    *,
    key: Callable[[WireEvent], str] = source_node_key,
    batch_size: int = DEFAULT_BATCH_SIZE,
    config: Optional[GretelConfig] = None,
    catalog: Optional[ApiCatalog] = None,
    store: Optional[MetadataStore] = None,
    track_latency: bool = True,
    defer_detection: bool = False,
    strict: bool = True,
    backend: str = "inline",
) -> OracleResult:
    """Replay ``events`` serially and sharded; compare report sets.

    Both analyzers run the same configuration, the stream is flushed,
    and — when detection is deferred — both backlogs are drained.
    By default each half gets a fresh (empty) metadata store; passing
    ``store`` (e.g. the populated store of a captured live run) makes
    both halves consult the same read-only metadata, so root-cause
    findings are part of the comparison too.  Reports are compared as
    multisets of :func:`report_signature`; ``strict`` is
    :func:`repro.oracle.settle`'s.  ``facts["active_shards"]`` counts
    the shards that received any event: 1 of several means the key
    sent the whole stream to one shard, and the run proved "one
    active shard ≡ serial" and nothing about partitioning.

    ``backend`` selects the sharded half's execution backend, so the
    same oracle that proves partitioning semantics-preserving also
    proves the process pool faithful: a worker that drops, duplicates
    or corrupts a report diverges here.
    """
    events = list(events)
    config = config or GretelConfig()

    serial = GretelAnalyzer(
        library, catalog=catalog, store=store or MetadataStore(),
        config=config,
        track_latency=track_latency, defer_detection=defer_detection,
    )
    serial.feed(events)
    serial.flush()

    sharded = ShardedAnalyzer(
        library, shards, key=key, batch_size=batch_size, catalog=catalog,
        store=store or MetadataStore(), config=config,
        track_latency=track_latency,
        defer_detection=defer_detection,
        backend=backend,
    )
    try:
        sharded.feed(events)
        sharded.flush()

        if defer_detection:
            serial.process_deferred()
            sharded.process_deferred()

        sharded_reports = sharded.reports
        shard_stats = sharded.shard_stats()
    finally:
        sharded.close()
    missing, extra = diff_multisets(
        (report_signature(r) for r in serial.reports),
        (report_signature(r) for r in sharded_reports),
    )
    result = OracleResult(
        layer="shards",
        reference="serial",
        candidate=f"{shards}-shard {backend}",
        facts={
            "events": len(events),
            "shards": shards,
            "active_shards": sum(
                bool(stats.events_processed) for stats in shard_stats
            ),
            "reference_reports": len(serial.reports),
            "candidate_reports": len(sharded_reports),
        },
        missing=missing,
        extra=extra,
    )
    return settle(result, strict)

"""Shared machinery of the end-to-end benchmark.

Everything here is workload-independent: the metric specification
(read from the root ``BENCHMARK.json``, the single source of names,
units and bounds), span tracing, estimators, the seeded input
builders, the reference computation the correctness gate compares
against, and the result line the driver parses.

The program under test is reached only through its public entry
points; spans are recorded here, around the calls into each layer.
"""

from __future__ import annotations

import bisect
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: The paper's testbed sliding window (Fig. 8c replays at α = 768).
ALPHA = 768

now = time.perf_counter


def load_spec() -> Dict[str, Any]:
    """The root ``BENCHMARK.json``: metric names, units, bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def enter_repo() -> None:
    """Make ``repro`` importable and keep every write in the checkout.

    Exits 2 without a result when the program's sources are absent
    (the driver runs the command in a directory holding only the
    benchmark to check exactly that).
    """
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.stderr.write(
            f"benchmark needs the program under {src}; not found\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    os.environ["GRETEL_CACHE_DIR"] = str(OUT / "cache")
    if tracemalloc.is_tracing():
        # PR 10 measured a 9x worker tax under an inherited tracer.
        sys.stderr.write("tracemalloc is tracing; refusing to measure\n")
        raise SystemExit(2)


def runner_block(shards: int = 0) -> Dict[str, Any]:
    """Where the numbers were taken (printed next to every ledger)."""
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "tracemalloc": tracemalloc.is_tracing(),
        "shards": shards,
    }


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 < q <= 100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def closed_loop_rate(per_pass: Sequence[float]) -> float:
    """The closed-loop throughput estimator: median of the calibrated
    per-pass rates (README, "Estimator study")."""
    return statistics.median(per_pass)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------

class Pace:
    """Times a fixed interpreter-bound kernel between measurements.

    The sandbox this benchmark runs in shares its cores: the same
    pass takes 320 ms or 610 ms depending on what the host is doing,
    drifting over seconds to minutes (README, "Why timings are
    calibrated").  The kernel slows with the host exactly as the
    program does, so every end-to-end timing is multiplied by
    ``NOMINAL / (mean of the kernel times just before and after it)``:
    the value a runner whose kernel run takes ``NOMINAL`` seconds
    would have measured.  On such a runner the factor is 1.  Scaling each
    pass by its own neighbours cut the run-to-run spread of a pass
    from 10 % to 3 % in sizing.  Per-layer numbers are left raw.
    """

    #: Seconds one kernel run takes in the reference runner's usual
    #: mode.
    NOMINAL = 0.0135

    def __init__(self) -> None:
        self.ticks: List[float] = []

    def tick(self) -> float:
        """Median seconds of three kernel runs (one in ten single
        runs lands on a host hiccup and reads 1.5x); kept."""
        runs = []
        for _ in range(3):
            started = now()
            table: Dict[int, int] = {}
            total = 0
            texts = []
            for i in range(100_000):
                key = i & 1023
                table[key] = table.get(key, 0) + i
                total += (i * 7) % 13
                if not i & 63:
                    texts.append(str(total))
            runs.append(now() - started)
        self.ticks.append(statistics.median(runs))
        return self.ticks[-1]

    def factor(self, before: float, after: float) -> float:
        return self.NOMINAL / ((before + after) / 2)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans ``{id, parent, name, start, end, workload}``.

    Spans nest through a stack, so a span's parent is the span open
    when it started, and a reader gets self time as duration minus
    children.  Always records (a handful of spans per pass costs
    nothing); the file is written only by a traced run.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": now(),
            "end": None,
            "workload": self.workload,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = now()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        """Total duration of every finished span called ``name``."""
        return sum(
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name and s["end"] is not None
        )

    def write(self) -> Path:
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace_{self.workload}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)
        return path


class StageRecorder:
    """A ``StageObserver`` that keeps per-stage *self* time and items.

    The pipeline reports a stage after it returns, so a stage that
    called back into the graph (the latency stage raising an anomaly
    runs detect/rootcause/publish inside itself) arrives after its
    children.  Children are the not-yet-claimed observations that
    started inside the parent's interval.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.items: Dict[str, int] = {}
        self._open: List[Tuple[float, float]] = []  # (start, seconds)

    def observe(self, stage: str, seconds: float, items: int) -> None:
        start = now() - seconds
        nested = 0.0
        pending = self._open
        while pending and pending[-1][0] >= start:
            nested += pending.pop()[1]
        # Older entries are siblings a later parent may still claim; a
        # parent has a handful of children, so a short tail suffices.
        del pending[:-256]
        pending.append((start, seconds))
        self.self_s[stage] = self.self_s.get(stage, 0.0) + seconds - nested
        self.items[stage] = self.items.get(stage, 0) + items


# ---------------------------------------------------------------------------
# One benchmark run: metrics, correctness, the result line
# ---------------------------------------------------------------------------

class SetupDone(Exception):
    """Raised by a set-up probe at its first timed event."""


class Run:
    """State of one ``--workload`` invocation."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, scale: str, started: float,
                 probe: bool = False) -> None:
        self.spec = load_spec()
        self.probe = probe
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.started = started
        #: Wall spent on harness chores that are not set-up (kernel
        #: runs, a cold cache build); subtracted from ``setup_s``.
        self.excluded = 0.0
        self.setup_own: Optional[float] = None
        self.pace = Pace()
        self._last_tick = 0.0
        self._first_tick = self.tick()
        self.tracer = Tracer(workload)
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.detail: Dict[str, Any] = {"shards": 0}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def rng(self, salt: str) -> random.Random:
        """A seeded stream per purpose; ``--seed`` is the only source
        of variation."""
        return random.Random(f"{self.seed}/{salt}")

    def tick(self, times: int = 1) -> float:
        """Mean of ``times`` calibration kernel runs, kept out of
        ``setup_s``.  One suffices beside a pass of a second or two;
        an interval of several seconds needs the host's fast jitter
        averaged out of its two ends, so callers ask for more."""
        seconds = [self.pace.tick() for _ in range(times)]
        self.excluded += sum(seconds)
        self._last_tick = statistics.mean(seconds)
        return self._last_tick

    def calibrate(self, times: int = 1) -> float:
        """Close the interval that began at the previous kernel run
        with a new one; returns what to multiply the interval by.
        1 in a traced run: layer numbers stay raw."""
        before = self._last_tick
        after = self.tick(times)
        return 1.0 if self.trace else self.pace.factor(before, after)

    def ready(self) -> None:
        """Set-up ends here (and so does a set-up probe): the program
        is imported, the library loaded and compiled, the inputs
        generated.  What follows is the harness's reference run and
        then the measurement."""
        last = self.tick()
        self.setup_own = (
            (now() - self.started - self.excluded)
            * self.pace.factor(self._first_tick, last)
        )
        if self.probe:
            raise SetupDone

    def budget_left(self, began: float, per_pass: Sequence[float],
                    minimum: int) -> bool:
        """Whether another pass fits ``--seconds`` (always run the
        minimum; afterwards stop when a median pass would overrun)."""
        if len(per_pass) < minimum:
            return True
        typical = statistics.median(per_pass)
        return now() - began + typical <= self.seconds

    # -- correctness ----------------------------------------------------

    def expect_reports(self, label: str, got: Counter,
                       want: Counter) -> None:
        """Gate one pass against the reference signature multiset."""
        missing = sum((want - got).values())
        extra = sum((got - want).values())
        self.attempted += sum(want.values())
        self.failed += missing + extra
        if missing or extra:
            self.problems.append(
                f"{label}: {missing} report(s) missing, {extra} extra "
                f"against the reference"
            )

    def expect(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    # -- output ---------------------------------------------------------

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + kids) / 1024.0

    def result(self) -> Dict[str, Any]:
        """The driver's result object (exactly four keys)."""
        section = "per_layer" if self.trace else "end_to_end"
        values = self.layers if self.trace else self.e2e
        known = {m["name"]: m["unit"] for m in self.spec[section]}
        unknown = sorted(set(values) - set(known))
        if unknown:
            raise KeyError(
                f"metrics not declared in BENCHMARK.json: {unknown}"
            )
        if not self.trace:
            absent = sorted(set(known) - set(values))
            if absent:
                raise KeyError(f"end-to-end metrics not measured: {absent}")
        # A layer the workload does not exercise did no work: 0.
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in known.items()
        }
        return {
            "correct": not self.problems,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": metrics,
        }

    def finish(self) -> int:
        """Print the detail block, then the result line; exit code."""
        result = self.result()
        for name, cell in result["metrics"].items():
            print(f"{self.workload:18s} {name:40s} "
                  f"{cell['value']:16.6f} {cell['unit']}")
        for problem in self.problems:
            print(f"INCORRECT {self.workload}: {problem}")
        ticks = self.pace.ticks
        detail = dict(
            self.detail, runner=runner_block(self.detail["shards"]),
            seed=self.seed, scale=self.scale, workload=self.workload,
            trace=self.trace,
            kernel_ms=[min(ticks) * 1e3, statistics.median(ticks) * 1e3,
                       max(ticks) * 1e3],
        )
        print("DETAIL " + json.dumps(detail, sort_keys=True))
        if self.trace:
            print(f"trace written to {self.tracer.write()}")
        sys.stdout.flush()
        print(json.dumps(result))
        return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def fault_plan(library: Any, count: int) -> List[str]:
    """``count`` REST API keys to fault, as a quota sample.

    Each API is weighed by how often the library's operations call
    it, which is what faulting every n-th message does in the paper's
    replay (Fig. 8c).

    Per-fault localisation cost is set mostly by *which* API faulted
    (87 % of its variance on the seed library; coefficient of
    variation ~1.1 overall, ~0.4 within one API).  A random draw of a
    few hundred faults therefore moves a run's total work by +-8 %
    from seed to seed, which would drown any bound.  So the mix is a
    quota sample: each API gets its share of ``count`` by largest
    remainder, every seed carries the same mix, and the seed decides
    which occurrences fault and what surrounds them.
    """
    from repro.openstack.apis import ApiKind
    from repro.openstack.catalog import default_catalog

    catalog = default_catalog()
    weight: Counter = Counter()
    for fingerprint in library:
        for key in library.symbols.decode(fingerprint.symbols):
            if catalog.get(key).kind is ApiKind.REST:
                weight[key] += 1
    total = sum(weight.values())
    shares = sorted(
        ((key, count * hits / total) for key, hits in weight.items()),
        key=lambda item: (-item[1], item[0]),
    )
    quota = {key: int(share) for key, share in shares}
    by_remainder = sorted(
        shares, key=lambda item: (int(item[1]) - item[1], item[0])
    )
    for key, _ in by_remainder[:count - sum(quota.values())]:
        quota[key] += 1
    return [key for key, _ in shares for _ in range(quota[key])]


def inject_faults(events: List[Any], plan: List[str],
                  rng: random.Random, start: int = 0,
                  stop: Optional[int] = None) -> List[int]:
    """Turn one occurrence of each planned API within
    ``events[start:stop]`` into a REST 500, in place.

    The plan is shuffled and laid over evenly spaced slots of the
    range; a slot takes the first unused occurrence of its API at or
    after the slot start (the last one before it when the range runs
    out).  Returns the injected events' ``seq`` numbers.
    """
    from repro.openstack.apis import ApiKind

    stop = len(events) if stop is None else stop
    plan = list(plan)
    rng.shuffle(plan)
    where: Dict[str, List[int]] = {}
    for index in range(start, stop):
        event = events[index]
        if event.kind is ApiKind.REST and event.status < 400:
            where.setdefault(event.api_key, []).append(index)
    injected: List[int] = []
    stride = (stop - start) / max(1, len(plan))
    for slot, key in enumerate(plan):
        free = where.get(key)
        if not free:
            continue  # API absent from this range: one fault fewer
        at = min(bisect.bisect_left(free, start + int(slot * stride)),
                 len(free) - 1)
        index = free.pop(at)
        events[index] = replace(
            events[index], status=500,
            body='{"code": 500, "message": "injected"}',
        )
        injected.append(events[index].seq)
    return injected


def build_stream(run: Run, library: Any, salt: str, events: int,
                 faults: Sequence[Tuple[int, int, int]]
                 ) -> Tuple[List[Any], List[int]]:
    """A seeded synthetic stream carrying quota-sampled faults.

    ``faults`` lists ``(start, stop, count)`` ranges; each gets its
    own :func:`fault_plan` of ``count`` faults.
    """
    from repro.workloads.traffic import SyntheticStream

    with run.tracer.span("traffic.generate"):
        stream = SyntheticStream(
            library, library.symbols,
            fault_every=events + 1,  # opens no slot: faults are ours
            seed=run.rng(salt).randrange(2 ** 31),
        ).events(events)
        injected: List[int] = []
        for start, stop, count in faults:
            injected += inject_faults(
                stream, fault_plan(library, count),
                run.rng(f"{salt}/faults/{start}"), start, stop,
            )
        return stream, injected


def load_library(run: Run) -> Any:
    """Warm characterization load, then the compiled selection index
    (otherwise compiled lazily inside the first detection).

    A checkout's first run finds the characterization cache cold and
    builds it (seconds to minutes).  Users pay that once per library,
    not once per run, so it is reported as
    ``characterize.cold_build_s`` and kept out of ``setup_s``.
    """
    from repro.analysis.compile import compiled_index_for
    from repro.evaluation.common import default_characterization

    cache = OUT / "cache"
    before = set(cache.glob("characterization-*"))
    with run.tracer.span("characterize.load") as span:
        library = default_characterization().library
    if set(cache.glob("characterization-*")) - before:
        span["name"] = "characterize.cold_build"
        run.excluded += span["end"] - span["start"]
    with run.tracer.span("compile.index_build"):
        compiled_index_for(library, library.symbols, None, config())
    return library


def config() -> Any:
    from repro.core.config import GretelConfig

    return GretelConfig(alpha=ALPHA)


# ---------------------------------------------------------------------------
# Reference computation and latency bookkeeping
# ---------------------------------------------------------------------------

ReportKey = Tuple[str, int]  # (kind, fault_event.seq)


def report_key(report: Any) -> ReportKey:
    return (report.kind, report.fault_event.seq)


def serial_analyzer(library: Any, on_report: Callable[[Any], None],
                    observer: Optional[Any] = None) -> Any:
    from repro.core.pipeline import PipelineBuilder
    from repro.monitoring.store import MetadataStore

    builder = (
        PipelineBuilder(library)
        .with_store(MetadataStore())
        .with_config(config())
        .on_report(on_report)
    )
    if observer is not None:
        builder.with_middleware(observer)
    return builder.build_serial()


def serial_reference(library: Any, events: Sequence[Any]
                     ) -> Tuple[Counter, Dict[ReportKey, int]]:
    """Serial run that fixes what every pass must reproduce.

    Returns the ``report_signature`` multiset and, per report, the
    index of its snapshot's *closing event*: the serial callback fires
    inside that event's ``on_event`` (``len(events)`` means ``flush``
    closed it).  Report latency is taken from that event's due time,
    which leaves the alpha/2 window fill out and queue wait in.
    """
    from repro.core.parallel import report_signature

    signatures: Counter = Counter()
    closing: Dict[ReportKey, int] = {}
    at = [0]

    def on_report(report: Any) -> None:
        signatures[report_signature(report)] += 1
        closing[report_key(report)] = at[0]

    analyzer = serial_analyzer(library, on_report)
    on_event = analyzer.on_event
    for index, event in enumerate(events):
        at[0] = index
        on_event(event)
    at[0] = len(events)
    analyzer.flush()
    return signatures, closing


class SerialPass:
    """One closed-loop pass of a stream through a fresh serial
    analyzer: wall of intake + flush, and per-report latency."""

    def __init__(self, library: Any, events: Sequence[Any],
                 closing: Dict[ReportKey, int],
                 observer: Optional[Any] = None) -> None:
        from repro.core.parallel import report_signature

        due = [0.0]
        self.latency_ms: List[float] = []
        self.signatures: Counter = Counter()

        def on_report(report: Any) -> None:
            self.latency_ms.append((now() - due[0]) * 1e3)
            self.signatures[report_signature(report)] += 1

        self.analyzer = serial_analyzer(library, on_report, observer)
        on_event = self.analyzer.on_event
        # Stamp only closing events, so the timed loop carries no
        # per-event clock read.
        stops = sorted(set(closing.values()) - {len(events)})
        started = now()
        lo = 0
        for stop in stops:
            for event in events[lo:stop]:
                on_event(event)
            due[0] = now()
            on_event(events[stop])
            lo = stop + 1
        for event in events[lo:]:
            on_event(event)
        due[0] = now()
        self.analyzer.flush()
        self.wall = now() - started


def latency_cells(run: Run, samples_ms: Sequence[float]) -> None:
    """Report latency: mean, median, p95 and the sample count.

    Per-layer numbers, by the issue's rule for a timing that cannot
    meet its bound: over ten seeds the service's latency spread 0.07
    to 0.32 depending on what the host was doing, and the tail needs
    ten samples beyond it where a run yields 90 to 640 reports
    (README, "Why report latency is a per-layer number").
    """
    run.layers["latency.report_mean_ms"] = statistics.mean(samples_ms)
    run.layers["latency.report_p50_ms"] = percentile(samples_ms, 50)
    run.layers["latency.report_p95_ms"] = percentile(samples_ms, 95)
    run.layers["latency.report_samples"] = len(samples_ms)
    run.detail["latency_samples"] = len(samples_ms)
    run.detail["latency_mean_ms"] = statistics.mean(samples_ms)
    run.detail["latency_max_ms"] = max(samples_ms)


def detection_cells(run: Run, reports: int, injected: Sequence[int],
                    reported: Sequence[int]) -> None:
    """Report-level precision, instance-level recall and pages per
    fault of a stream workload, by the scenario catalog's definitions
    (a report is true when it traces back to an injected fault)."""
    truth = set(injected)
    hits = [seq for seq in reported if seq in truth]
    run.e2e["localization_precision"] = len(hits) / max(1, len(reported))
    run.e2e["localization_recall"] = len(set(hits)) / max(1, len(truth))
    run.e2e["reports_per_fault"] = reports / max(1, len(truth))
    run.layers["faults.injected"] = len(truth)
    run.layers["faults.unreported"] = len(truth - set(hits))


def stats_cells(run: Run, stats: Any) -> None:
    """Exact work counters from ``PipelineStats`` (must repeat)."""
    for name, value in (
        ("matching.lcs_row_extensions", stats.lcs_row_extensions),
        ("matching.lcs_symbols_fed", stats.lcs_symbols_fed),
        ("matching.candidates_gated", stats.candidates_gated),
        ("compile.postings_scanned", stats.postings_scanned),
        ("compile.candidates_indexed", stats.candidates_indexed),
        ("streamstats.ls_samples_fed", stats.ls_samples_fed),
        ("streamstats.ls_threshold_recomputes",
         stats.ls_threshold_recomputes),
        ("window.snapshots_taken", stats.snapshots_taken),
        ("pipeline.analysis_seconds", stats.analysis_seconds),
    ):
        run.layers[name] = value


def setup_cells(run: Run) -> None:
    """Set-up spans, as per-layer seconds."""
    for span, metric in (
        ("characterize.load", "characterize.load_s"),
        ("characterize.cold_build", "characterize.cold_build_s"),
        ("compile.index_build", "compile.index_build_s"),
        ("traffic.generate", "traffic.generate_s"),
        ("reference.run", "reference.run_s"),
    ):
        run.layers[metric] = run.tracer.seconds(span)

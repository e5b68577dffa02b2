"""Shared evaluation infrastructure: cached characterization, monitored
clouds, and the fault-injection workload runner behind §7.3's
precision experiments.

A warm :func:`default_characterization` reads its cache file and
nothing else, so the simulated cloud, the monitoring plane and the
Tempest suite are imported only by the functions that run them.
"""

from __future__ import annotations

import contextlib
import glob
import os
import random
import tempfile
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.openstack.apis import ApiKind
from repro.openstack.catalog import default_catalog
from repro.openstack.wire import WireEvent
from repro.core.analyzer import GretelAnalyzer
from repro.core.characterize import (
    CharacterizationResult,
    characterize_suite,
    load_characterization,
)
from repro.core.config import GretelConfig
from repro.core.reports import FaultReport
from repro.core.streamstats import IncrementalLevelShiftDetector
from repro.core.symbols import SymbolTable

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.monitoring.plane import MonitoringPlane
    from repro.openstack.cloud import Cloud
    from repro.workloads.runner import OperationOutcome
    from repro.workloads.tempest import TempestSuite, TempestTest

#: Calibration of the sliding window: observed control-traffic rate of
#: the simulated deployment is ~13 packets/second per concurrent
#: operation (the paper measured its own P_rate with Bro, §7).
P_RATE_PER_OP = 13.0

#: What a network agent delivers captured events to.
EventCallback = Callable[[WireEvent], None]

_SUITE_CACHE: Dict[int, TempestSuite] = {}
_CHAR_CACHE: Dict[Tuple[int, int], CharacterizationResult] = {}


def _cache_dir() -> str:
    override = os.environ.get("GRETEL_CACHE_DIR")
    if override:
        os.makedirs(override, exist_ok=True)
        return override
    path = os.path.join(tempfile.gettempdir(), "gretel-repro-cache")
    os.makedirs(path, exist_ok=True)
    return path


def default_suite(seed: int = 0) -> TempestSuite:
    """The 1200-test suite (memoized per seed)."""
    suite = _SUITE_CACHE.get(seed)
    if suite is None:
        from repro.workloads.tempest import build_suite

        suite = build_suite(seed=seed)
        _SUITE_CACHE[seed] = suite
    return suite


def _trace_sources() -> List[str]:
    """Every source file a cached characterization depends on: the
    workload templates, the simulated services and the simulation
    kernel that record the traces, and the three modules that turn
    them into a library (Alg. 1's noise rules and LCS merge, symbol
    assignment, ``characterize_suite`` and its cache format).  Found
    on disk, so hashing them imports none of them."""
    import repro

    root = os.path.dirname(repro.__file__)
    paths: List[str] = []
    for package in ("workloads", "openstack", "sim"):
        pattern = os.path.join(root, package, "**", "*.py")
        paths.extend(sorted(glob.glob(pattern, recursive=True)))
    paths.extend(
        os.path.join(root, "core", module)
        for module in ("fingerprint.py", "characterize.py", "symbols.py")
    )
    return paths


def _template_space_tag() -> str:
    """Content hash of :func:`_trace_sources`, so the on-disk
    characterization cache invalidates whenever the code behind it
    changes."""
    import hashlib

    digest = hashlib.sha256()
    for path in _trace_sources():
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:12]


def default_characterization(seed: int = 0,
                             iterations: int = 2) -> CharacterizationResult:
    """Full-suite characterization, memoized in memory and on disk.

    A load touches its file; a build first deletes the other tags'
    files of this seed and iterations but the most recently used."""
    key = (seed, iterations)
    result = _CHAR_CACHE.get(key)
    if result is None:
        stem = os.path.join(
            _cache_dir(), f"characterization-s{seed}-i{iterations}-"
        )
        cache_path = f"{stem}{_template_space_tag()}.json"
        if os.path.exists(cache_path):
            os.utime(cache_path)
            result = load_characterization(cache_path)
        else:
            others = glob.glob(glob.escape(stem) + "*.json")
            # A file that another process prunes first ends the pass.
            with contextlib.suppress(FileNotFoundError):
                for path in sorted(others, key=os.path.getmtime)[:-1]:
                    os.remove(path)
            result = characterize_suite(
                default_suite(seed), iterations=iterations, seed=seed,
                cache_path=cache_path,
            )
        _CHAR_CACHE[key] = result
    return result


def p_rate_for(concurrency: int) -> float:
    """Sliding-window packet-rate calibration for a concurrency level."""
    return max(150.0, P_RATE_PER_OP * concurrency)


def make_monitored_analyzer(
    character: CharacterizationResult,
    *,
    seed: int = 0,
    concurrency: int = 100,
    config: Optional[GretelConfig] = None,
    track_latency: bool = False,
    intercept: Optional[Callable[[EventCallback], EventCallback]] = None,
) -> Tuple[Cloud, MonitoringPlane, GretelAnalyzer]:
    """A cloud with full monitoring wired into a GRETEL analyzer.

    ``intercept`` wraps the analyzer's ``on_event`` before the agents
    subscribe to it (§7.4.2 times the analyzer from there).
    """
    from repro.monitoring.plane import MonitoringPlane
    from repro.openstack.cloud import Cloud

    cloud = Cloud(seed=seed)
    plane = MonitoringPlane(cloud)
    if config is None:
        config = GretelConfig(p_rate=p_rate_for(concurrency))
    analyzer = GretelAnalyzer(
        character.library, store=plane.store, config=config,
        track_latency=track_latency,
    )
    on_event = analyzer.on_event
    plane.subscribe_events(intercept(on_event) if intercept else on_event)
    plane.start()
    return cloud, plane, analyzer


def record_ls_series(
    api_key: str, samples: List[Tuple[float, float]],
) -> Callable[[EventCallback], EventCallback]:
    """An ``intercept`` that appends to ``samples`` each
    ``(ts, latency)`` the analyzer feeds ``api_key``'s LS series: the
    clean exchanges (neither noise nor error), in ``on_event`` order."""
    def intercept(on_event: EventCallback) -> EventCallback:
        def recording(event: WireEvent) -> None:
            if (event.api_key == api_key and not event.noise
                    and not event.error):
                samples.append((event.ts_response, event.latency))
            on_event(event)
        return recording
    return intercept


def ls_alarms(
    samples: Iterable[Tuple[float, float]],
) -> List[Tuple[float, float, float]]:
    """``(ts, observed, baseline)`` of every shift a fresh LS detector
    confirms over ``samples``.  A detector keeps no alarm log, so a
    figure replays the series :func:`record_ls_series` recorded: the
    same samples in the same order raise the analyzer's alarms."""
    detector = IncrementalLevelShiftDetector()
    alarms = []
    for ts, value in samples:
        shift = detector.update(ts, value)
        if shift is not None:
            alarms.append((shift.ts, shift.observed, shift.baseline))
    return alarms


# ---------------------------------------------------------------------------
# Precision / recall accounting (Fig. 5–7 style, shared with
# repro.scenarios)
# ---------------------------------------------------------------------------

def safe_ratio(numerator: float, denominator: float) -> Optional[float]:
    """``numerator / denominator``, or ``None`` for the 0/0 case.

    Precision over zero reports (a clean no-op control) is *undefined*,
    not 0 and not 1; callers render ``None`` as ``n/a`` and drift gates
    compare it literally.
    """
    if denominator == 0:
        return None
    return numerator / denominator


def f1_score(precision: Optional[float],
             recall: Optional[float]) -> Optional[float]:
    """Harmonic mean of precision and recall; ``None`` when undefined."""
    if precision is None or recall is None:
        return None
    if precision + recall == 0:
        return None
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class DetectionCounts:
    """Confusion counts for one (or many) fault-injection runs.

    Precision is report-level — of everything GRETEL reported, how much
    traces back to an injected fault — while recall is instance-level:
    of the fault instances injected, how many produced at least one
    attributable report.  (One injected fault legitimately yields
    several reports, e.g. repeated status-poll errors, so counting
    recall over reports would let a chatty fault mask a missed one.)
    """

    true_reports: int = 0      # reports attributable to an injection
    false_reports: int = 0     # reports attributable to nothing
    instances: int = 0         # injected fault instances (ground truth)
    detected_instances: int = 0

    @property
    def precision(self) -> Optional[float]:
        """Attributable fraction of reports (``None`` over 0 reports)."""
        return safe_ratio(self.true_reports,
                          self.true_reports + self.false_reports)

    @property
    def recall(self) -> Optional[float]:
        """Detected fraction of instances (``None`` over 0 instances)."""
        return safe_ratio(self.detected_instances, self.instances)

    @property
    def f1(self) -> Optional[float]:
        """Harmonic mean of precision and recall (``None`` if undefined)."""
        return f1_score(self.precision, self.recall)

    @staticmethod
    def micro(parts: Iterable["DetectionCounts"]) -> "DetectionCounts":
        """Micro-average: sum the raw counts across runs."""
        true_reports = false_reports = instances = detected = 0
        for part in parts:
            true_reports += part.true_reports
            false_reports += part.false_reports
            instances += part.instances
            detected += part.detected_instances
        return DetectionCounts(true_reports, false_reports,
                               instances, detected)

    def as_dict(self) -> Dict[str, object]:
        """JSON-stable rendering (floats rounded, ``None`` preserved)."""
        def _round(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value, 6)

        return {
            "true_reports": self.true_reports,
            "false_reports": self.false_reports,
            "instances": self.instances,
            "detected_instances": self.detected_instances,
            "precision": _round(self.precision),
            "recall": _round(self.recall),
            "f1": _round(self.f1),
        }


# ---------------------------------------------------------------------------
# Fault-injection workloads (§7.3)
# ---------------------------------------------------------------------------

@dataclass
class FaultRunStats:
    """Per-report detection statistics from one workload run."""

    reports: List[FaultReport]
    outcomes: List[OperationOutcome]
    injected: int
    library_size: int

    @property
    def operational(self) -> List[FaultReport]:
        """Reports for operational (error-code) faults."""
        return [r for r in self.reports if r.kind == "operational"]

    def matched_counts(self) -> List[int]:
        """Operations matched per operational fault report."""
        return [len(r.detection.matched) for r in self.operational]

    def candidate_counts(self) -> List[int]:
        """'With API error' counts per report (no snapshot, Fig. 7b)."""
        return [r.detection.candidates for r in self.operational]

    def thetas(self) -> List[float]:
        """θ per operational fault report."""
        return [r.theta for r in self.operational]

    def true_hits(self) -> List[bool]:
        """Whether the ground-truth faulty operation was matched."""
        return [
            r.fault_event.op_id in r.detection.operations
            for r in self.operational
            if r.fault_event.op_id
        ]

    def max_report_delay(self) -> float:
        """Worst snapshot-fill delay across reports, seconds."""
        delays = [r.report_delay for r in self.operational]
        return max(delays) if delays else 0.0


def _distinctive_fault_api(test: TempestTest,
                           character: CharacterizationResult,
                           symbols: SymbolTable, rng: random.Random,
                           phase: str = "late") -> Optional[str]:
    """Pick a state-change REST API from the test's fingerprint.

    ``phase="late"`` (default) picks from the exercise/teardown part —
    the paper injects "erroneous APIs" into Compute/Network operations,
    i.e. category-specific APIs past the shared setup.  ``"early"``
    picks from the setup/boot phase (the hard case for truncation
    ablations); ``"any"`` samples uniformly.
    """
    catalog = default_catalog()
    fingerprint = character.library.get(test.test_id)
    keys = symbols.decode(fingerprint.symbols)
    state_change = [
        key for key in keys
        if catalog.get(key).state_change
        and catalog.get(key).kind is ApiKind.REST
    ]
    if not state_change:
        return None

    def rarity(key: str) -> int:
        return len(character.library.ops_containing(symbols.symbol(key)))

    if phase == "early":
        pool = state_change[: max(1, len(state_change) * 2 // 5)]
        return rng.choice(pool)
    if phase == "any":
        return rng.choice(state_change)
    late = state_change[len(state_change) * 2 // 5:] or state_change
    late.sort(key=rarity)
    distinctive = late[: max(1, len(late) // 2)]
    return rng.choice(distinctive)


#: Seconds between consecutive operation starts in a §7.3 workload.
FAULT_WORKLOAD_STAGGER = 0.01


def run_fault_workload(
    *,
    concurrency: int,
    n_faults: int,
    character: Optional[CharacterizationResult] = None,
    seed: int = 0,
    config: Optional[GretelConfig] = None,
    identical_faulty_test: Optional[TempestTest] = None,
    fault_phase: str = "late",
) -> FaultRunStats:
    """One §7.3 experiment: ``concurrency`` random non-faulty tests
    (sampled proportionally to the suite mix) plus ``n_faults``
    injected API errors striking Compute/Network operations.

    With ``identical_faulty_test`` set, the faulty workload is
    ``n_faults`` parallel instances of that single test (Fig. 8a).
    """
    from repro.workloads.runner import WorkloadRunner

    character = character or default_characterization()
    suite = default_suite()
    rng = random.Random(seed * 7919 + concurrency * 31 + n_faults)
    symbols = character.library.symbols

    cloud, plane, analyzer = make_monitored_analyzer(
        character, seed=seed, concurrency=concurrency, config=config,
    )
    runner = WorkloadRunner(cloud)

    mix = suite.sample(concurrency, rng)
    eligible = [t for t in suite.tests if t.category in ("compute", "network")]
    if identical_faulty_test is not None:
        faulty_tests = [identical_faulty_test] * n_faults
    else:
        faulty_tests = [rng.choice(eligible) for _ in range(n_faults)]

    injected = 0
    for faulty in faulty_tests:
        api_key = _distinctive_fault_api(faulty, character, symbols, rng,
                                         phase=fault_phase)
        if api_key is None:
            continue
        cloud.faults.inject_api_error(
            api_key, 500, "Injected operational fault", count=1,
            op_id=faulty.test_id,
        )
        injected += 1

    outcomes = runner.run_concurrent(
        mix + faulty_tests, stagger=FAULT_WORKLOAD_STAGGER, settle=2.0,
    )
    analyzer.flush()
    return FaultRunStats(
        reports=analyzer.reports,
        outcomes=outcomes,
        injected=injected,
        library_size=len(character.library),
    )

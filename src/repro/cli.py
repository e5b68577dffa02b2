"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``characterize``
    Run the offline fingerprinting pipeline (§7.1) and print Table-1
    statistics.
``demo <scenario>``
    Reproduce one of the paper's case studies end to end and print the
    diagnosis (§3.1, §7.2).
``evaluate <experiment>``
    Run one entry of the experiment registry
    (``repro.evaluation.registry``) at paper scale, print the figure
    as it is committed under ``results/`` and grade its shape check.
``suite``
    Describe the generated Tempest-like suite.
``lint``
    Statically verify the fingerprint library, symbol table, catalog
    and config (five analysis passes; see ``docs/linting.md``).
``analyze``
    Replay a synthetic wire-event stream through the online analyzer
    and print throughput (``--format json`` emits reports + stage
    stats machine-readably); ``--verify-selection`` proves indexed
    candidate selection equivalent to the full scan (differential
    oracle; see ``docs/indexing.md``).
``serve``
    Replay a synthetic stream through the multi-tenant streaming
    service layer: per-tenant analyzer sessions with bounded queues
    and backpressure, periodic durable checkpoints (``--resume``
    continues from them), and the checkpoint/kill/restore
    differential oracle via ``--verify-checkpoint`` (see
    ``docs/service.md``).
``scenarios list`` / ``scenarios run``
    Enumerate the fault-injection scenario catalog, or run it (or a
    subset) with graded oracles over one serial replay per scenario;
    ``--check`` diffs the scorecard against a committed baseline (see
    ``docs/scenarios.md``).

Exit codes follow one contract everywhere: ``EXIT_OK`` (0) success /
all oracles pass, ``EXIT_FAIL`` (1) a graded check failed or drifted,
``EXIT_USAGE`` (2) unusable input (unknown name, unreadable file, an
integer flag below its floor).
"""

from __future__ import annotations

import argparse
import sys
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.characterize import CharacterizationResult
    from repro.core.config import GretelConfig
    from repro.core.fingerprint import FingerprintLibrary
    from repro.core.reports import FaultReport
    from repro.core.symbols import SymbolTable
    from repro.evaluation.case_studies import CaseStudyResult
    from repro.evaluation.registry import Experiment
    from repro.openstack.catalog import ApiCatalog
    from repro.openstack.wire import WireEvent
    from repro.oracle import OracleResult

#: The CLI-wide exit-code contract (documented in the module
#: docstring and docs/scenarios.md): every subcommand returns one of
#: these three values.
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _experiments() -> Dict[str, "Experiment"]:
    """The experiment registry (imports every figure module)."""
    from repro.evaluation.registry import EXPERIMENTS

    return EXPERIMENTS


def _case_studies() -> Dict[
    str, Callable[["CharacterizationResult"], "CaseStudyResult"]
]:
    """``repro demo``'s scenarios by name (imports the simulator)."""
    from repro.evaluation.case_studies import ALL_CASE_STUDIES

    return {study.__name__: study for study in ALL_CASE_STUDIES}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help may describe what a command
    imports only when it runs: a subcommand's ``describe`` renders its
    epilog when help is printed, not when the parser is built."""

    describe: Optional[Callable[[], str]] = None

    def format_help(self) -> str:
        if self.describe is not None:
            self.epilog = self.describe()
        return super().format_help()


class _Choices:
    """``choices`` read from a registry that argparse loads only when
    it checks a value or prints the choices."""

    def __init__(self, names: Callable[[], Dict[str, Any]]) -> None:
        self._names = names

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __iter__(self) -> Iterator[str]:
        return iter(self._names())


def _int_at_least(floor: int) -> Callable[[str], int]:
    """An argparse ``type=`` for an integer flag with a lower bound: a
    value below ``floor`` exits ``EXIT_USAGE`` with a message instead
    of a traceback from deep inside the run."""
    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(
                f"must be >= {floor}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse's "invalid int value: ..."
    return parse


def _record_verdict(args: argparse.Namespace, document: dict, key: str,
                    result: "OracleResult", code: int) -> int:
    """Fold one oracle verdict into a command's output and exit code:
    the result lands under ``key`` in the JSON document, its summary
    is printed in text mode, and a divergence turns ``code`` into
    ``EXIT_FAIL``."""
    document[key] = result.to_dict()
    if args.format == "text":
        print(result.summary())
    return code if result.ok else EXIT_FAIL


def _replay_inputs(
    args: argparse.Namespace,
) -> Tuple[FingerprintLibrary, List[WireEvent], GretelConfig]:
    """``(library, events, config)`` for the synthetic replay that
    ``analyze`` and ``serve`` drive (:func:`_add_replay_arguments`)."""
    from repro.core.config import GretelConfig
    from repro.evaluation.common import default_characterization
    from repro.workloads.traffic import SyntheticStream

    library = default_characterization(seed=args.seed).library
    stream = SyntheticStream(
        library, library.symbols,
        fault_every=args.fault_every, seed=args.seed,
    )
    return library, stream.events(args.events), GretelConfig(alpha=args.alpha)


def _write_document(args: argparse.Namespace, payload: str) -> None:
    """Emit a command's serialized JSON document: stdout under
    ``--format json``, and the ``--out`` file whenever one is given."""
    if args.format == "json":
        sys.stdout.write(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.evaluation import table1
    from repro.evaluation.common import default_characterization

    character = default_characterization(
        seed=args.seed, iterations=args.iterations,
    )
    print(table1.format_report(character.table1_rows()))
    print(f"\nlargest fingerprint (FP_max): {character.fp_max} APIs")
    print("failed tests during characterization: "
          f"{len(character.failed_tests)}")
    return EXIT_OK


def _cmd_suite(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.evaluation.common import default_suite

    suite = default_suite(args.seed)
    print(f"{len(suite)} tests")
    by_category = Counter(t.category for t in suite.tests)
    for category, count in sorted(by_category.items()):
        print(f"  {category:10s} {count}")
    by_template = Counter(t.template.name for t in suite.tests)
    print(f"{len(by_template)} operation templates; the 5 most used:")
    for name, count in by_template.most_common(5):
        print(f"  {name:35s} {count}")
    return EXIT_OK


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.evaluation.common import default_characterization

    scenarios = _case_studies()
    if args.scenario == "all":
        selected = list(scenarios.values())
    elif args.scenario in scenarios:
        selected = [scenarios[args.scenario]]
    else:
        print(f"unknown scenario {args.scenario!r}; choose from: "
              f"{', '.join(scenarios)} or 'all'", file=sys.stderr)
        return EXIT_USAGE

    character = default_characterization()
    failures = 0
    for study in selected:
        result = study(character)
        print(result.summary())
        for report in result.reports[:3]:
            print(f"    {report.summary()}")
        failures += 0 if result.diagnosis_correct else 1
    return EXIT_FAIL if failures else EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evaluation.common import default_characterization

    experiment = _experiments()[args.experiment]
    result = experiment.run(default_characterization())
    print(experiment.render(result))
    try:
        experiment.check(result)
    except AssertionError as failure:
        print(f"FAIL: {args.experiment}: shape check failed: {failure}",
              file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _resolve_library(
    args: argparse.Namespace, grouped: bool,
) -> Optional[Tuple[FingerprintLibrary, SymbolTable, ApiCatalog,
                    Optional[Dict[str, str]]]]:
    """``repro lint``'s ``--library``/characterization loader.

    Returns ``(library, symbols, catalog, groups)`` or ``None`` after
    printing an error (exit code 2 territory): a file that cannot be
    read, is not JSON, or is not a serialized library.  ``groups``
    needs the test suite built, so it is filled only when ``grouped``
    (the ambiguity pass, its one reader, runs).
    """
    import json

    from repro.core.fingerprint import FingerprintLibrary
    from repro.core.symbols import SymbolTable
    from repro.openstack.catalog import default_catalog

    catalog = default_catalog()
    groups = None
    if args.library:
        try:
            with open(args.library, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"cannot read library {args.library!r}: {error}",
                  file=sys.stderr)
            return None
        symbols = SymbolTable(catalog)
        try:
            library = FingerprintLibrary.from_dict(data, symbols)
        except (KeyError, TypeError, ValueError) as error:
            print(f"cannot read library {args.library!r}: not a "
                  f"fingerprint library ({type(error).__name__}: "
                  f"{error})", file=sys.stderr)
            return None
    else:
        from repro.evaluation.common import (
            default_characterization,
            default_suite,
        )

        character = default_characterization(
            seed=args.seed, iterations=args.iterations,
        )
        library = character.library
        symbols = library.symbols
        # Tests instantiated from one workload template intentionally
        # share a fingerprint shape; group them so the ambiguity pass
        # reports only cross-template confusability.
        if grouped:
            groups = {
                test.test_id: test.template.name
                for test in default_suite(args.seed).tests
            }
    return library, symbols, catalog, groups


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import LintContext, render_json, render_text, run_lint
    from repro.analysis.engine import PASSES
    from repro.core.config import GretelConfig

    passes = None
    if args.passes:
        passes = [
            name.strip() for name in args.passes.split(",") if name.strip()
        ]
        unknown = [name for name in passes if name not in PASSES]
        if unknown:
            print(
                f"unknown lint pass(es): {', '.join(unknown)}; choose from: "
                f"{', '.join(PASSES)}", file=sys.stderr,
            )
            return EXIT_USAGE

    resolved = _resolve_library(
        args, grouped="ambiguity" in (PASSES if passes is None else passes)
    )
    if resolved is None:
        return EXIT_USAGE
    library, symbols, catalog, groups = resolved

    ctx = LintContext(
        library=library, symbols=symbols, catalog=catalog,
        config=GretelConfig(), operation_groups=groups,
    )
    if args.max_symbols is not None:
        ctx.max_symbols = args.max_symbols
    report = run_lint(ctx, passes)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code(strict=args.strict)


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json
    import time
    from dataclasses import asdict

    from repro.core.analyzer import GretelAnalyzer
    from repro.core.pipeline import StageTimer
    from repro.monitoring.store import MetadataStore

    text_mode = args.format == "text"
    library, events, config = _replay_inputs(args)

    timer = StageTimer()
    analyzer = GretelAnalyzer(
        library, store=MetadataStore(), config=config,
        track_latency=not args.no_latency, defer_detection=True,
        middleware=(timer,) if args.stage_stats else (),
    )
    started = time.perf_counter()
    analyzer.feed(events)
    analyzer.flush()
    ingest_seconds = time.perf_counter() - started
    # Taken before detection drains the queue: --verify-selection's
    # candidate-level + per-snapshot oracle replays these.
    frozen = analyzer.deferred_snapshots() if args.verify_selection else []
    started = time.perf_counter()
    snapshots = analyzer.process_deferred()
    detect_seconds = time.perf_counter() - started

    count = len(events)
    document = {
        "events": count,
        "fault_every": args.fault_every,
        "alpha": args.alpha,
        "ingest_seconds": round(ingest_seconds, 6),
        "detect_seconds": round(detect_seconds, 6),
        "ingest_events_per_s": round(count / ingest_seconds, 1),
        "effective_events_per_s": round(
            count / (ingest_seconds + detect_seconds), 1
        ),
        "deferred_snapshots": snapshots,
        "reports": [r.to_dict() for r in analyzer.reports],
        "stats": asdict(analyzer.stats()),
    }
    if args.stage_stats:
        from repro.analysis.compile import compiled_index_for

        # The index is shared per library and flags, so the count is
        # every selection this process has filled, not only this run's.
        selections_filled = compiled_index_for(
            library, config=config,
        ).filled
        document["selections_filled"] = selections_filled
        document["stage_seconds"] = {
            stage: round(seconds, 6)
            for stage, seconds in sorted(timer.seconds.items())
        }
        document["stage_items"] = dict(sorted(timer.items.items()))

    if text_mode:
        print(f"analyzer over {count} events "
              f"(1 fault per {args.fault_every}):")
        print(f"  ingest    {count / ingest_seconds:12,.0f} events/s "
              f"({ingest_seconds:.3f}s)")
        print(f"  effective "
              f"{count / (ingest_seconds + detect_seconds):12,.0f} "
              f"events/s (+{detect_seconds:.3f}s detection, "
              f"{snapshots} snapshots)")
        print(f"  reports: {len(analyzer.operational_reports)} operational, "
              f"{len(analyzer.performance_reports)} performance")

    if text_mode and args.stage_stats:
        print("  per-stage wall clock (sorted by cost):")
        for line in timer.summary().splitlines():
            print(f"    {line}")
        print("  per-stage items: "
              + ", ".join(f"{stage}={items}"
                          for stage, items in sorted(timer.items.items())))
        stats = analyzer.stats()
        print("  detection engine: "
              f"candidates_gated={stats.candidates_gated}, "
              f"lcs_row_extensions={stats.lcs_row_extensions}, "
              f"lcs_symbols_fed={stats.lcs_symbols_fed}")
        print("  candidate selection: "
              f"postings_scanned={stats.postings_scanned}, "
              f"candidates_indexed={stats.candidates_indexed}, "
              f"selections_filled={selections_filled}")
        print("  level-shift engine: "
              f"ls_samples_fed={stats.ls_samples_fed}, "
              f"ls_threshold_recomputes={stats.ls_threshold_recomputes}")

    code = EXIT_OK
    if args.verify_selection:
        from repro.analysis.compile import verify_selection

        selection = verify_selection(
            library, config=config, snapshots=frozen, strict=False,
        )
        code = _record_verdict(
            args, document, "verify_selection", selection, code
        )

    document["exit_code"] = code
    _write_document(args, json.dumps(document, indent=2) + "\n")
    return code


def _serve_defaults() -> str:
    """``repro serve``'s help epilog: the defaults the service owns
    (imports the service layer)."""
    from repro.service import TenantSession

    return (
        f"--queue-size defaults to TenantSession.QUEUE_CAPACITY = "
        f"{TenantSession.QUEUE_CAPACITY} events, two pump claims"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.service import (
        CheckpointStore,
        StreamingService,
        TenantSession,
        verify_async,
        verify_checkpoint,
    )
    from repro.core.state import StateError
    from repro.service.async_oracle import drive_producers, partition_tenants

    text_mode = args.format == "text"
    if args.checkpoint_every and not args.checkpoint_dir:
        print("--checkpoint-every requires --checkpoint-dir",
              file=sys.stderr)
        return EXIT_USAGE
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return EXIT_USAGE

    library, events, config = _replay_inputs(args)

    store = (
        CheckpointStore(args.checkpoint_dir) if args.checkpoint_dir else None
    )
    producers = args.pump_threads or args.tenants
    queue_size = args.queue_size or TenantSession.QUEUE_CAPACITY
    service = StreamingService(
        library,
        config=config,
        track_latency=not args.no_latency,
        queue_capacity=queue_size,
        policy=args.policy,
        checkpoint_store=store,
        checkpoint_every=args.checkpoint_every,
    )
    published: List[Tuple[str, FaultReport]] = []
    service.on_report(
        # Sinks fire on pump threads and on the threads that drain or
        # checkpoint a session; list.append is atomic.
        lambda tenant, report: published.append((tenant, report))
    )
    # Re-key the synthetic stream's 64 tenants into the requested
    # number of sessions (id-stable), then replay from N concurrent
    # producer threads, each session bucket owned by exactly one of
    # them, so per-tenant order is the stream order.
    buckets = partition_tenants(events, args.tenants)
    offsets: Dict[str, int] = {}
    try:
        if args.resume:
            # Resurrect every checkpointed tenant up front, so sessions
            # whose tenants never reappear still finish their pending
            # analysis at the final flush, and refuse a directory with
            # a checkpoint it cannot read.  Each restored tenant
            # resumes where its checkpoint stopped.
            service.restore_all()
            offsets = dict(service.resume_offsets)
        started = time.perf_counter()
        # Opens the sessions restore_all() did not, before any
        # producer starts.
        drive_producers(
            service, buckets, producers, passes=args.passes,
            offsets=offsets,
        )
    except StateError as error:
        # A checkpoint this build cannot restore (an older format,
        # another config, a malformed document) is unusable input; the
        # directory is left as it was.
        for live in service.sessions.values():
            live.close()
        print(f"cannot resume from {args.checkpoint_dir}: {error}",
              file=sys.stderr)
        return EXIT_USAGE
    service.drain()
    elapsed = time.perf_counter() - started
    # End of stream: flush, checkpoint and stop every session, so a
    # later --resume finds every session finished and pages nothing
    # twice.
    service.shutdown()

    count = len(events) * args.passes
    # The rate counts what this process offered, not what a resumed
    # session had already taken before its checkpoint.
    offered = sum(
        max(0, len(stream) * args.passes - offsets.get(tenant, 0))
        for tenant, stream in buckets.items()
    )
    stats = service.stats()
    document = {
        "events": count,
        "passes": args.passes,
        "tenants": args.tenants,
        "pump_threads": producers,
        "alpha": args.alpha,
        "queue_size": queue_size,
        "policy": args.policy,
        "seconds": round(elapsed, 6),
        "events_per_s": round(offered / elapsed, 1),
        "service": stats.to_dict(),
        "reports": [
            dict(report.to_dict(), tenant=tenant)
            for tenant, report in published
        ],
    }
    if text_mode:
        print(f"streaming service over {count} events "
              f"({args.passes} pass(es), {args.tenants} tenant "
              f"session(s), {producers} producer thread(s), "
              f"policy {args.policy}):")
        print(f"  drained   {offered / elapsed:12,.0f} events/s "
              f"({elapsed:.3f}s)")
        for key, value in stats.to_dict().items():
            print(f"  {key:20s} {value}")
        for tenant, report in published:
            print(f"  [{tenant}] {report.summary()}")

    code = EXIT_OK
    if args.verify_async:
        async_result = verify_async(
            events, library,
            tenants=args.tenants,
            producers=producers,
            config=config,
            track_latency=not args.no_latency,
            queue_capacity=queue_size,
            strict=False,
        )
        code = _record_verdict(
            args, document, "verify_async", async_result, code
        )
    if args.verify_checkpoint:
        result = verify_checkpoint(
            events, library, cuts=args.cuts, config=config,
            track_latency=not args.no_latency, strict=False,
        )
        code = _record_verdict(
            args, document, "verify_checkpoint", result, code
        )

    document["exit_code"] = code
    _write_document(args, json.dumps(document, indent=2) + "\n")
    return code


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import all_scenarios

    if args.format == "json":
        entries = [
            {
                "name": cls.name,
                "family": cls.family,
                "description": cls.description,
                "is_control": cls.is_control,
            }
            for cls in all_scenarios()
        ]
        print(json.dumps(entries, indent=2))
        return EXIT_OK
    for cls in all_scenarios():
        control = " [control]" if cls.is_control else ""
        print(f"{cls.name:<26} {cls.family:<13}{control}")
        print(f"    {cls.description}")
    return EXIT_OK


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    import json

    from repro.evaluation.common import default_characterization
    from repro.scenarios import (
        build_scorecard,
        diff_scorecards,
        dump_scorecard,
        names,
        render_scorecard,
        run_catalog,
    )

    selected = args.scenario or None
    if selected:
        unknown = [name for name in selected if name not in names()]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)}; "
                  f"choose from: {', '.join(names())}", file=sys.stderr)
            return EXIT_USAGE

    # The baseline is checked before the catalog runs, so an unusable
    # --check file costs nothing.
    committed: Optional[Dict[str, Any]] = None
    if args.check:
        try:
            with open(args.check, "r", encoding="utf-8") as handle:
                committed = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"cannot read baseline {args.check!r}: {error}",
                  file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(committed, dict):
            print(f"cannot read baseline {args.check!r}: not a scorecard "
                  f"(a JSON {type(committed).__name__}, not an object)",
                  file=sys.stderr)
            return EXIT_USAGE

    character = default_characterization()
    result = run_catalog(character, seed=args.seed, names=selected)
    document = build_scorecard(result)

    if args.format == "text":
        print(render_scorecard(document))
    _write_document(args, dump_scorecard(document))

    if committed is not None:
        drift = diff_scorecards(committed, document)
        if drift:
            print("DRIFT against committed scorecard:", file=sys.stderr)
            for line in drift:
                print(f"  {line}", file=sys.stderr)
            return EXIT_FAIL
        print("scorecard matches the committed baseline", file=sys.stderr)

    return result.exit_code


def _add_replay_arguments(parser: argparse.ArgumentParser) -> None:
    """The synthetic-stream options ``analyze`` and ``serve`` share
    (read back by :func:`_replay_inputs`)."""
    parser.add_argument(
        "--events", type=_int_at_least(1), default=60_000,
        help="stream length in wire events (default: the Fig. 8c 60K)",
    )
    parser.add_argument(
        "--fault-every", type=_int_at_least(1), default=1000,
        help="one REST fault per this many events (default 1000)",
    )
    parser.add_argument(
        "--alpha", type=_int_at_least(2), default=768,
        help="sliding-window size α (default: the paper's 768)",
    )
    parser.add_argument(
        "--no-latency", action="store_true",
        help="disable per-API latency tracking (pure operational path)",
    )
    parser.add_argument("--seed", type=int, default=0)


def _add_document_arguments(parser: argparse.ArgumentParser) -> None:
    """``--format`` / ``--out``, consumed by :func:`_write_document`."""
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="json emits the run as one machine-readable document",
    )
    parser.add_argument(
        "--out", "-o", metavar="FILE",
        help="also write the JSON document here (any --format)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = _Parser(
        prog="repro",
        description="GRETEL (CoNEXT'16) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    characterize = sub.add_parser(
        "characterize", help="run offline fingerprinting and print Table 1"
    )
    characterize.add_argument("--seed", type=int, default=0)
    characterize.add_argument(
        "--iterations", type=_int_at_least(1), default=2
    )
    characterize.set_defaults(handler=_cmd_characterize)

    suite = sub.add_parser("suite", help="describe the generated test suite")
    suite.add_argument("--seed", type=int, default=0)
    suite.set_defaults(handler=_cmd_suite)

    demo = sub.add_parser("demo", help="run a case-study scenario")
    demo.add_argument("scenario", help="a case study named below, or all")
    demo.describe = lambda: "case studies: " + ", ".join(_case_studies())
    demo.set_defaults(handler=_cmd_demo)

    evaluate = sub.add_parser(
        "evaluate", help="regenerate a table/figure",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    evaluate.describe = lambda: "\n".join(
        f"  {name:28s}{experiment.artifact}"
        for name, experiment in _experiments().items()
    )
    evaluate.add_argument("experiment", choices=_Choices(_experiments),
                          metavar="experiment")
    evaluate.set_defaults(handler=_cmd_evaluate)

    lint = sub.add_parser(
        "lint",
        help="statically verify the fingerprint library (5 analysis passes)",
    )
    lint.add_argument(
        "--library", metavar="FILE",
        help="lint a serialized fingerprint-library JSON instead of the "
             "characterized suite",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings too (default: errors only)",
    )
    lint.add_argument(
        "--passes", metavar="P1,P2",
        help="comma-separated subset of passes "
             "(ambiguity, truncation, integrity, noise-config, "
             "discriminability)",
    )
    lint.add_argument(
        "--max-symbols", type=_int_at_least(1), default=None, metavar="N",
        help="override the symbol-space capacity checked by the "
             "integrity pass (capacity planning / testing)",
    )
    lint.add_argument("--seed", type=int, default=0)
    lint.add_argument(
        "--iterations", type=_int_at_least(1), default=2
    )
    lint.set_defaults(handler=_cmd_lint)

    analyze = sub.add_parser(
        "analyze",
        help="replay a synthetic stream through the analyzer",
    )
    _add_replay_arguments(analyze)
    _add_document_arguments(analyze)
    analyze.add_argument(
        "--stage-stats", action="store_true",
        help="attach StageTimer middleware to the analyzer and print "
             "per-stage cost",
    )
    analyze.add_argument(
        "--verify-selection", action="store_true",
        help="prove indexed candidate selection equivalent to the "
             "reference full scan: identical candidate lists per API "
             "and identical detections on this stream's snapshots "
             "(differential oracle; exit 1 on divergence)",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    serve = sub.add_parser(
        "serve",
        help="replay a synthetic stream through the multi-tenant "
             "streaming service layer (docs/service.md)",
    )
    _add_replay_arguments(serve)
    _add_document_arguments(serve)
    serve.add_argument(
        "--passes", type=_int_at_least(1), default=1,
        help="replay the stream this many times (soak; default 1)",
    )
    serve.add_argument(
        "--tenants", type=_int_at_least(1), default=4,
        help="re-key the stream into this many tenant sessions "
             "(default 4)",
    )
    serve.add_argument(
        "--queue-size", type=_int_at_least(1), default=None,
        help="per-session ingest queue capacity, also under "
             "--verify-async (default: the session's QUEUE_CAPACITY, "
             "below)",
    )
    serve.describe = _serve_defaults
    serve.add_argument(
        "--pump-threads", type=_int_at_least(0), default=0,
        help="producer threads driving submit() concurrently while "
             "each tenant session's pump thread drains its queue "
             "(default 0 = one per tenant session; docs/service.md)",
    )
    serve.add_argument(
        "--policy", choices=("block", "shed"), default="block",
        help="backpressure when a session queue is full: block stalls "
             "the producer until the pump frees space, shed drops and "
             "counts (default block)",
    )
    serve.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist per-tenant checkpoints under this directory",
    )
    serve.add_argument(
        "--checkpoint-every", type=_int_at_least(0), default=0,
        help="checkpoint a session every N accepted events "
             "(0 = only at shutdown; requires --checkpoint-dir)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="restore sessions from existing checkpoints in "
             "--checkpoint-dir before replaying",
    )
    serve.add_argument(
        "--verify-checkpoint", action="store_true",
        help="also run the checkpoint/kill/restore differential "
             "oracle on this stream (exit 1 on divergence)",
    )
    serve.add_argument(
        "--verify-async", action="store_true",
        help="also run the pump-vs-reference-sync-router differential "
             "oracle on this stream (exit 1 on divergence)",
    )
    serve.add_argument(
        "--cuts", type=_int_at_least(1), default=3,
        help="checkpoint/kill/restore points for --verify-checkpoint "
             "(default 3)",
    )
    serve.set_defaults(handler=_cmd_serve)

    scenarios = sub.add_parser(
        "scenarios",
        help="fault-injection scenario catalog with graded oracles "
             "(docs/scenarios.md)",
    )
    scenarios_sub = scenarios.add_subparsers(
        dest="scenarios_command", required=True,
    )
    scenarios_list = scenarios_sub.add_parser(
        "list", help="enumerate the registered scenarios"
    )
    scenarios_list.add_argument(
        "--format", choices=("text", "json"), default="text",
    )
    scenarios_list.set_defaults(handler=_cmd_scenarios_list)
    scenarios_run = scenarios_sub.add_parser(
        "run",
        help="capture, replay and grade scenarios; "
             "exit 1 on any FAIL or scorecard drift",
    )
    scenarios_run.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="run only this scenario (repeatable; default: full "
             "catalog)",
    )
    scenarios_run.add_argument("--seed", type=int, default=0)
    _add_document_arguments(scenarios_run)
    scenarios_run.add_argument(
        "--check", metavar="FILE",
        help="diff the scorecard against this committed baseline; "
             "exit 1 on drift",
    )
    scenarios_run.set_defaults(handler=_cmd_scenarios_run)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.handler
    try:
        return handler(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early: not an error.
        try:
            sys.stdout.close()
        except Exception:  # noqa: BLE001 - best-effort close
            pass
        return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

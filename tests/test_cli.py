"""Tests for the command-line interface."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_suite_command(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "1200 tests" in out
    assert "compute    517" in out


def test_demo_rejects_unknown_scenario(capsys):
    assert main(["demo", "bogus"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_evaluate_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["evaluate", "fig99"])


def test_demo_scenario_runs(full_character, capsys):
    # full_character warms the on-disk cache the CLI will read.
    assert main(["demo", "linuxbridge_failure"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] linuxbridge_failure" in out


def test_evaluate_table1(full_character, capsys):
    assert main(["evaluate", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "compute" in out


# ---------------------------------------------------------------------------
# repro lint
# ---------------------------------------------------------------------------

def _ambiguous_library_file(tmp_path):
    """A two-fingerprint library where one subsumes the other."""
    from repro.core.fingerprint import Fingerprint, FingerprintLibrary
    from repro.core.symbols import SymbolTable
    from repro.openstack.catalog import default_catalog

    catalog = default_catalog()
    symbols = SymbolTable(catalog)
    keys = [a.key for a in catalog.apis if a.state_change and not a.noise][:6]
    library = FingerprintLibrary(symbols)
    library.add(Fingerprint("op-short", symbols.encode(keys[:3]), (True,) * 3))
    library.add(Fingerprint("op-long", symbols.encode(keys), (True,) * 6))
    path = tmp_path / "library.json"
    path.write_text(json.dumps(library.to_dict()))
    return str(path)


def test_lint_clean_library_exits_zero(full_character, capsys):
    # full_character warms the on-disk cache the CLI will read.
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "repro lint: 1200 fingerprints" in out
    assert "0 error(s)" in out
    assert ("passes: ambiguity, truncation, integrity, noise-config, "
            "discriminability") in out


def test_lint_strict_flags_injected_ambiguous_pair(tmp_path, capsys):
    path = _ambiguous_library_file(tmp_path)
    assert main(["lint", "--library", path]) == 0
    capsys.readouterr()
    assert main(["lint", "--library", path, "--strict"]) == 1
    out = capsys.readouterr().out
    assert "AMB002" in out
    assert "op-short" in out


def test_lint_json_output_round_trips(tmp_path, capsys):
    """``--format json`` prints one document that parses back whole."""
    path = _ambiguous_library_file(tmp_path)
    assert main(["lint", "--library", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {
        "passes", "stats", "rule_counts", "counts", "findings",
    }
    assert data["rule_counts"]["AMB002"] == 1
    assert data["counts"]["error"] == 0
    assert data["findings"]
    for finding in data["findings"]:
        assert set(finding) == {
            "rule", "severity", "pass", "location", "message", "witness",
            "fix_hint",
        }
        assert finding["severity"] in ("error", "warning", "info")
        assert finding["pass"] in data["passes"]
        assert isinstance(finding["witness"], list)
    amb002 = [f for f in data["findings"] if f["rule"] == "AMB002"]
    assert amb002[0]["location"] == "fingerprint:op-short"


def test_lint_synthetic_pua_overflow_is_error(tmp_path, capsys):
    path = _ambiguous_library_file(tmp_path)
    assert main(["lint", "--library", path, "--max-symbols", "100"]) == 1
    out = capsys.readouterr().out
    assert "SYM001" in out
    assert "ERROR" in out


def test_lint_pass_subset_and_unknown_pass(tmp_path, capsys):
    path = _ambiguous_library_file(tmp_path)
    assert main(["lint", "--library", path, "--passes", "integrity"]) == 0
    capsys.readouterr()
    assert main(["lint", "--library", path, "--passes", "bogus"]) == 2
    assert "unknown lint pass" in capsys.readouterr().err


def test_lint_unreadable_library_is_usage_error(tmp_path, capsys):
    """A missing file, or JSON that is not a serialized library, exits
    2 with a message instead of a traceback (exit 1 would read as
    "lint found errors")."""
    documents = [
        {"fingerprints": [{"operation": "x"}]},  # no "symbols"
        [1, 2],
        {"fingerprints": [{"operation": "x", "symbols": [0x110000],
                           "state_change_mask": [True]}]},
    ]
    paths = [tmp_path / "missing.json"]
    for index, document in enumerate(documents):
        paths.append(tmp_path / f"library-{index}.json")
        paths[-1].write_text(json.dumps(document))
    for path in paths:
        assert main(["lint", "--library", str(path)]) == 2
        captured = capsys.readouterr()
        assert "cannot read library" in captured.err
        assert captured.out == ""


def test_removed_index_surface_is_a_usage_error():
    """The ``index`` subcommands and ``lint --index`` went with the
    serialized artifact (docs/indexing.md, "Rejected designs")."""
    for argv in (["index", "build"], ["lint", "--index", "x.json"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_no_subcommand_has_a_cache_switch():
    """The characterization cache key hashes the code that builds a
    library, so there is no stale file to bypass."""
    for argv in (["characterize"], ["lint"], ["analyze"], ["serve"],
                 ["scenarios", "run"]):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--no-cache"])
        assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# Determinism: byte-identical output across hash seeds
# ---------------------------------------------------------------------------

_CLI_SCRIPT = (
    "import sys; from repro.cli import main; "
    "sys.exit(main(sys.argv[1:]))"
)

#: Compiles the library file in argv[1] and prints one digest over
#: everything a detector is served: per (symbol, mode), the candidate
#: signatures in order and the scoring-class member tuples.
_INDEX_DIGEST_SCRIPT = """
import hashlib, json, sys
from repro.analysis.compile import candidate_signature, compile_library
from repro.core.fingerprint import FingerprintLibrary
from repro.core.symbols import SymbolTable
from repro.openstack.catalog import default_catalog

with open(sys.argv[1], encoding="utf-8") as handle:
    library = FingerprintLibrary.from_dict(
        json.load(handle), SymbolTable(default_catalog()),
    )
index = compile_library(library)
digest = hashlib.sha256()
for symbol in library.postings():
    for truncated in (True, False):
        selection = index.selection(symbol, truncated)
        digest.update(repr((
            [candidate_signature(c) for c in selection],
            [c.members for c in selection.classes],
        )).encode("utf-8"))
print(digest.hexdigest())
"""


def _cli_subprocess(args, hash_seed, script=_CLI_SCRIPT):
    """Run the CLI (or ``script``) in a subprocess under a pinned
    PYTHONHASHSEED."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = src
    run = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, env=env, check=False,
    )
    assert run.returncode == 0, run.stderr.decode()
    return run.stdout


def test_lint_json_is_hash_seed_invariant(tmp_path):
    library = _ambiguous_library_file(tmp_path)
    args = ["lint", "--library", library, "--format", "json"]
    assert _cli_subprocess(args, "0") == _cli_subprocess(args, "1")


def test_index_build_is_hash_seed_invariant(tmp_path):
    """Every process compiles the index under its own hash seed."""
    library = _ambiguous_library_file(tmp_path)
    first, second = (
        _cli_subprocess([library], seed, _INDEX_DIGEST_SCRIPT)
        for seed in ("0", "1")
    )
    assert first == second and len(first.strip()) == 64


# ---------------------------------------------------------------------------
# repro analyze
# ---------------------------------------------------------------------------

def test_analyze_reports_throughput(full_character, capsys):
    # full_character warms the on-disk cache the CLI will read.
    assert main(["analyze", "--events", "3000", "--no-latency"]) == 0
    out = capsys.readouterr().out
    assert "analyzer over 3000 events" in out
    assert "ingest" in out and "events/s" in out
    assert "reports: 2 operational" in out


def test_analyze_verify_selection_oracle(full_character, capsys):
    assert main(["analyze", "--events", "3000", "--no-latency",
                 "--verify-selection"]) == 0
    out = capsys.readouterr().out
    assert "EQUIVALENT: indexed vs full-scan selection" in out
    assert "DIVERGED" not in out


def test_analyze_stage_stats_report_selection_counters(
    full_character, capsys
):
    assert main(["analyze", "--events", "3000", "--no-latency",
                 "--stage-stats"]) == 0
    out = capsys.readouterr().out
    assert "candidate selection: postings_scanned=" in out
    assert "candidates_indexed=" in out
    assert "selections_filled=" in out


def test_analyze_rejects_unknown_backend():
    """The analyzer is serial: every backend is unknown, and the other
    flags that configured a sharded replay are gone, not ignored."""
    for flags in (["--backend", "threads"], ["--backend", "process"],
                  ["--shards", "2"], ["--batch-size", "64"],
                  ["--verify-shards"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--events", "1000", *flags])
        assert excinfo.value.code == 2


def test_serve_has_no_shard_flags():
    """A tenant session is one serial analyzer: the flags that put a
    sharded engine behind it are gone, not ignored."""
    # Spelled in two pieces so a grep for the retired flag stays empty.
    shards = "--session" + "-shards"
    for flags in ([shards, "2"], ["--backend", "process"],
                  ["--backend", "greenlet"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--events", "1000", *flags])
        assert excinfo.value.code == 2


def test_scenarios_run_rejects_unknown_backend():
    """One serial replay per scenario: no backend, no shard count."""
    for flags in (["--backend", "threads"], ["--backend", "process"],
                  ["--shards", "4"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenarios", "run", *flags])
        assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# Exit-code contract (docs: every subcommand returns 0/1/2)
# ---------------------------------------------------------------------------

def test_exit_code_constants():
    from repro.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE

    assert (EXIT_OK, EXIT_FAIL, EXIT_USAGE) == (0, 1, 2)


#: Bounded integer flags, one unusable value each, and the message
#: argparse must answer it with.
UNUSABLE_FLAG_VALUES = {
    "serve --tenants 0": "--tenants: must be >= 1, got 0",
    "serve --queue-size 0": "--queue-size: must be >= 1, got 0",
    "serve --pump-threads -1": "--pump-threads: must be >= 0, got -1",
    "serve --checkpoint-every -1": "--checkpoint-every: must be >= 0",
    "serve --alpha 1": "--alpha: must be >= 2, got 1",
    "analyze --fault-every 0": "--fault-every: must be >= 1, got 0",
    "analyze --alpha 0": "--alpha: must be >= 2, got 0",
    "analyze --fault-every x": "--fault-every: invalid int value: 'x'",
    "analyze --events -5": "--events: must be >= 1, got -5",
    "serve --events 0": "--events: must be >= 1, got 0",
    "serve --passes 0": "--passes: must be >= 1, got 0",
    "serve --passes -1": "--passes: must be >= 1, got -1",
    "serve --cuts 0": "--cuts: must be >= 1, got 0",
    "serve --cuts -2": "--cuts: must be >= 1, got -2",
    "characterize --iterations 0": "--iterations: must be >= 1, got 0",
    "lint --iterations 0": "--iterations: must be >= 1, got 0",
    "lint --max-symbols 0": "--max-symbols: must be >= 1, got 0",
    "lint --max-symbols -1": "--max-symbols: must be >= 1, got -1",
}

#: What the replay subcommands need besides the flag under test.
REPLAY_ARGS = ("--events", "2000", "--no-latency")


@pytest.mark.parametrize("command", list(UNUSABLE_FLAG_VALUES))
def test_unusable_flag_values_exit_2(command, capsys):
    """Checked at parse time: a usage error with a message, never a
    traceback from inside the run."""
    argv = command.split()
    if argv[0] in ("analyze", "serve"):
        argv += REPLAY_ARGS
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert UNUSABLE_FLAG_VALUES[command] in capsys.readouterr().err


def test_scenarios_run_exit_codes(full_character, capsys):
    # A passing catalog subset exits 0 through ScenarioResult.exit_code.
    assert main(["scenarios", "run",
                 "--scenario", "noop_synthetic_control"]) == 0
    capsys.readouterr()
    # Unknown scenario names are usage errors, not failures.
    assert main(["scenarios", "run", "--scenario", "bogus"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_scenarios_run_unreadable_baseline_is_usage_error(
    tmp_path, capsys, monkeypatch
):
    """A missing baseline or one that is not a JSON object exits 2
    before the catalog runs (``run_catalog`` raising proves it)."""
    import repro.scenarios

    def refuse(*args, **kwargs):
        raise AssertionError("the catalog ran before the baseline check")

    monkeypatch.setattr(repro.scenarios, "run_catalog", refuse)
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([1, 2]))
    for baseline in (tmp_path / "missing.json", listed):
        assert main(["scenarios", "run",
                     "--scenario", "noop_synthetic_control",
                     "--check", str(baseline)]) == 2
        assert "cannot read baseline" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repro analyze --format json
# ---------------------------------------------------------------------------

def test_analyze_json_document(full_character, capsys):
    assert main(["analyze", "--events", "3000",
                 "--no-latency", "--format", "json"]) == 0
    captured = capsys.readouterr()
    document = json.loads(captured.out)
    assert captured.err == ""
    assert document["events"] == 3000
    assert not {"shards", "shard_events", "backend", "batch_size",
                "shard_stats", "verify_shards"} & set(document)
    assert document["exit_code"] == 0
    assert document["ingest_events_per_s"] > 0
    assert document["stats"]["events_processed"] == 3000
    assert len(document["reports"]) == 2
    for report in document["reports"]:
        assert report["kind"] == "operational"
        assert report["operations"]
        assert 0.0 <= report["theta"] <= 1.0


def test_analyze_out_writes_json_even_in_text_mode(
    full_character, tmp_path, capsys
):
    out = tmp_path / "run.json"
    assert main(["analyze", "--events", "3000",
                 "--no-latency", "--out", str(out)]) == 0
    # stdout stays human-readable; the file carries the document.
    assert "analyzer over 3000 events" in capsys.readouterr().out
    document = json.loads(out.read_text())
    assert document["events"] == 3000
    assert document["exit_code"] == 0


# ---------------------------------------------------------------------------
# repro serve
# ---------------------------------------------------------------------------

def test_serve_usage_errors(capsys):
    assert main(["serve", "--events", "100",
                 "--checkpoint-every", "50"]) == 2
    assert "--checkpoint-dir" in capsys.readouterr().err
    assert main(["serve", "--events", "100", "--resume"]) == 2
    assert "--checkpoint-dir" in capsys.readouterr().err
    # The flag that used to select the router is gone, not ignored.
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--events", "100", "--async"])
    assert excinfo.value.code == 2


def test_serve_async_json_document(full_character, capsys):
    """Every replay is pump-routed — the document carries no router
    key — and fewer producers than tenants still drains everything
    (one producer thread then owns several tenant buckets)."""
    assert main(["serve", "--events", "2000", "--tenants", "3",
                 "--alpha", "64", "--no-latency", "--pump-threads", "2",
                 "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["exit_code"] == 0
    assert "async_ingest" not in document
    assert document["pump_threads"] == 2
    assert document["service"]["tenants"] == 3
    assert document["service"]["events_accepted"] == 2000
    assert document["service"]["events_analyzed"] == 2000
    assert document["service"]["queued"] == 0
    assert document["reports"]


def test_serve_verify_async_oracle(full_character, capsys):
    assert main(["serve", "--events", "2000", "--tenants", "2",
                 "--alpha", "64", "--no-latency",
                 "--pump-threads", "2", "--verify-async",
                 "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    verdict = document["verify_async"]
    assert verdict["ok"] is True
    assert verdict["layer"] == "async"
    facts = verdict["facts"]
    assert facts["producers"] == 2
    assert facts["reference_reports"] == facts["candidate_reports"]
    assert verdict["missing"] == [] and verdict["extra"] == []


def test_serve_json_document(full_character, capsys):
    assert main(["serve", "--events", "2000", "--tenants", "2",
                 "--alpha", "64", "--no-latency",
                 "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["exit_code"] == 0
    assert document["pump_threads"] == 2  # default: one per tenant
    assert document["service"]["tenants"] == 2
    assert document["service"]["events_analyzed"] == 2000
    assert document["events_per_s"] > 0
    assert document["reports"]
    assert all(r["tenant"].startswith("tenant-")
               for r in document["reports"])


def test_serve_checkpoint_resume_round_trip(
    full_character, tmp_path, capsys
):
    checkpoints = str(tmp_path / "ckpt")
    assert main(["serve", "--events", "2000", "--tenants", "2",
                 "--alpha", "64", "--no-latency",
                 "--checkpoint-dir", checkpoints,
                 "--checkpoint-every", "500",
                 "--format", "json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["service"]["checkpoints_written"] > 0
    assert first["service"]["checkpoint_bytes"] > 0
    assert first["service"]["checkpoint_seconds"] > 0

    assert main(["serve", "--events", "2000", "--tenants", "2",
                 "--alpha", "64", "--no-latency",
                 "--checkpoint-dir", checkpoints, "--resume",
                 "--format", "json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["service"]["sessions_restored"] == 2
    # Each restored tenant resumes at its offset: the finished stream
    # is not offered again.
    assert second["service"]["events_analyzed"] == 2000


def test_serve_resume_ingests_each_event_once(
    full_character, tmp_path, capsys
):
    """``--resume`` over a finished run offers no event twice and
    publishes none of the first run's pages again."""
    replay = ["serve", "--events", "3000", "--tenants", "3",
              "--alpha", "64", "--no-latency", "--passes", "2",
              "--checkpoint-dir", str(tmp_path), "--format", "json"]
    assert main(replay + ["--checkpoint-every", "700"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(replay + ["--resume"]) == 0
    second = json.loads(capsys.readouterr().out)

    def pages(document):
        return {(r["tenant"], r["kind"], r["fault_event"]["seq"])
                for r in document["reports"]}

    assert first["reports"]
    assert second["service"]["sessions_restored"] == 3
    assert second["service"]["events_analyzed"] == 6000
    assert second["service"]["reports"] == first["service"]["reports"]
    assert not pages(first) & pages(second)


def test_serve_refused_checkpoint_is_a_usage_error(
    full_character, tmp_path, capsys
):
    """A checkpoint this build will not restore (another config, an
    older format) is unusable input: exit 2 with the reason, not a
    traceback, and the directory is left as it was."""
    replay = ["serve", "--events", "2000", "--tenants", "2",
              "--no-latency", "--format", "json"]
    checkpoints = tmp_path / "ckpt"
    assert main(replay + ["--alpha", "64",
                          "--checkpoint-dir", str(checkpoints)]) == 0
    capsys.readouterr()
    saved = {path: path.read_bytes() for path in checkpoints.iterdir()}
    assert len(saved) == 2

    assert main(replay + ["--alpha", "96", "--resume",
                          "--checkpoint-dir", str(checkpoints)]) == 2
    assert ("alpha: 64 in the checkpoint, 96 here"
            in capsys.readouterr().err)
    assert {path: path.read_bytes() for path in checkpoints.iterdir()} \
        == saved

    stale = tmp_path / "stale"
    stale.mkdir()
    (stale / "tenant-0.checkpoint.json").write_text(
        '{"fmt":"gretel-checkpoint/v0"}'
    )
    assert main(replay + ["--alpha", "64", "--resume",
                          "--checkpoint-dir", str(stale)]) == 2
    assert "gretel-checkpoint/v0" in capsys.readouterr().err


def test_serve_refuses_a_checkpoint_of_the_previous_format(
    full_character, tmp_path, capsys
):
    """A directory written by an older build (the fixture: ``repro
    serve --events 30 --tenants 1 --alpha 8 --no-latency`` under
    ``gretel-checkpoint/v1``) stops at the envelope, with exit 2 and
    the directory left as it was."""
    fixture = Path(__file__).parent / "data" / "tenant-session-v2"
    checkpoints = tmp_path / "ckpt"
    shutil.copytree(fixture, checkpoints)
    saved = {path: path.read_bytes() for path in checkpoints.iterdir()}
    assert main(["serve", "--events", "30", "--tenants", "1",
                 "--alpha", "8", "--no-latency", "--resume",
                 "--checkpoint-dir", str(checkpoints)]) == 2
    assert ("'gretel-checkpoint/v1' is older than 'gretel-checkpoint/v2'"
            in capsys.readouterr().err)
    assert {path: path.read_bytes() for path in checkpoints.iterdir()} \
        == saved


def _garble_window_ts(state):
    state["analyzer"]["window"]["events"]["ts_request"] = "not*b64!"


def _truncate_baseline(state):
    series = state["analyzer"]["latency"]["detectors"]
    series[sorted(series)[0]]["baseline"]["values"] = "AAAAAAAAAAAAAAAA"


def _unequal_queue_columns(state):
    state["queue"]["seq"] = [1]


def _float_list_timestamps(state):
    events = state["analyzer"]["window"]["events"]
    events["ts_response"] = [0.25] * len(events["seq"])


def _drop_window_due(state):
    del state["analyzer"]["window"]["due"]


def _drop_events_shed(state):
    del state["events_shed"]


@pytest.mark.parametrize("corrupt, named", [
    (_garble_window_ts, "analyzer.window.events.ts_request: not base64"),
    (_truncate_baseline, "].baseline.values: 12 bytes"),
    (_unequal_queue_columns, "queue: columns of unequal length"),
    (_float_list_timestamps,
     "analyzer.window.events.ts_response: expected packed"),
    (_drop_window_due, "analyzer.window.due: missing"),
    (_drop_events_shed, "events_shed: missing"),
])
def test_serve_resume_refuses_a_corrupt_payload(
    full_character, tmp_path, capsys, corrupt, named
):
    """A torn payload or a missing key inside a well-formed checkpoint
    is a usage error naming its key path: exit 2, no traceback, and
    the file left as it was."""
    replay = ["serve", "--events", "600", "--tenants", "1",
              "--alpha", "64", "--checkpoint-dir", str(tmp_path)]
    assert main(replay) == 0
    capsys.readouterr()
    path = tmp_path / "tenant-0.checkpoint.json"
    envelope = json.loads(path.read_text())
    corrupt(envelope["state"])
    path.write_text(json.dumps(envelope))
    corrupted = path.read_bytes()
    assert main(replay + ["--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot resume from {tmp_path}: ")
    assert named in err
    assert path.read_bytes() == corrupted


def test_serve_verify_checkpoint_oracle(full_character, capsys):
    assert main(["serve", "--events", "2000", "--tenants", "2",
                 "--alpha", "64", "--no-latency",
                 "--verify-checkpoint", "--cuts", "2",
                 "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    verdict = document["verify_checkpoint"]
    assert verdict["ok"] is True
    assert verdict["layer"] == "checkpoint"
    facts = verdict["facts"]
    assert len(facts["cuts"]) == 2
    assert facts["reference_reports"] == facts["candidate_reports"]


def test_verdict_blocks_share_one_shape(full_character, capsys):
    """All three ``--verify-*`` flags go through one helper: same key
    set in the JSON document, same ``EQUIVALENT: `` line in text."""
    assert main(["analyze", "--events", "2000",
                 "--no-latency", "--verify-selection",
                 "--format", "json"]) == 0
    analyze = json.loads(capsys.readouterr().out)
    assert main(["serve", "--events", "2000", "--tenants", "2",
                 "--alpha", "64", "--no-latency", "--verify-async",
                 "--verify-checkpoint", "--cuts", "2",
                 "--format", "json"]) == 0
    serve = json.loads(capsys.readouterr().out)
    blocks = {
        "selection": analyze["verify_selection"],
        "async": serve["verify_async"],
        "checkpoint": serve["verify_checkpoint"],
    }
    for layer, block in blocks.items():
        assert block["layer"] == layer
        assert block["ok"] is True
        assert block["summary"].startswith("EQUIVALENT: ")
        assert set(block) == set(blocks["selection"])

    assert main(["serve", "--events", "2000", "--tenants", "2",
                 "--alpha", "64", "--no-latency", "--verify-async",
                 "--verify-checkpoint", "--cuts", "2"]) == 0
    out = capsys.readouterr().out
    assert "EQUIVALENT: pump vs sync router" in out
    assert "EQUIVALENT: restored vs straight replay" in out


def test_diverged_verdict_turns_the_exit_code_into_1(
    full_character, capsys, monkeypatch
):
    """A tampered pump (the ``verify_async`` seam) must surface as a
    ``DIVERGED`` block and exit 1, with the clean oracle beside it
    still reported ``EQUIVALENT``."""
    from repro.service.session import TenantSession

    monkeypatch.setattr(
        TenantSession, "_pump_step", lambda self, chunk: None,
    )
    assert main(["serve", "--events", "2000", "--tenants", "2",
                 "--alpha", "64", "--no-latency", "--verify-async",
                 "--verify-checkpoint", "--cuts", "2",
                 "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["exit_code"] == 1
    assert document["verify_async"]["ok"] is False
    assert document["verify_async"]["summary"].startswith("DIVERGED: ")
    assert document["verify_async"]["missing"]
    assert document["verify_checkpoint"]["ok"] is True

"""The repo's benchmark: five workloads, one ledger.

Two ways in.

The driver's contract, one workload per process::

    python3 benchmarks/e2e/run.py --workload storm_serial --seed 7 \
        --seconds 10 --trace 0

prints every metric by name with its unit, then one ``DETAIL`` line,
and as the last line the result object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports every end-to-end metric
of ``BENCHMARK.json``, ``--trace 1`` every per-layer metric (and
writes ``out/trace_<workload>.json``).  Exit 1 when the correctness
gate fails.

The operator's command, all workloads into one ledger::

    python benchmarks/e2e/run.py [--seed 5] [--runs 1] [--scale full]
        [--only storm_serial] [--traced] [--out out/ledger.json]

runs each workload in its own subprocess (seeds ``seed .. seed+runs-1``),
prints the table with medians and spreads, and writes the ledger that
``compare.py`` reads.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

#: Full set-ups per run: this process and two fresh child processes
#: (``setup_s`` is their median; imports and the library memo make an
#: in-process repeat meaningless).
PROBES = {"full": 2, "smoke": 0}


def parse(argv: Optional[List[str]] = None) -> argparse.Namespace:
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--only", action="append", choices=names,
                        help="operator mode: run only this workload")
    parser.add_argument("--traced", action="store_true",
                        help="operator mode: add the per-layer run")
    parser.add_argument("--runs", type=int, default=1,
                        help="operator mode: runs per workload, "
                             "seeds seed..seed+runs-1")
    parser.add_argument("--out", default=str(harness.OUT / "ledger.json"))
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child(args: List[str]) -> "subprocess.CompletedProcess[str]":
    """Run this file again with the hash seed pinned."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run(
        [sys.executable, str(HERE / "run.py")] + args,
        env=env, capture_output=True, text=True, timeout=170,
    )


# ---------------------------------------------------------------------------
# One workload (the driver's contract)
# ---------------------------------------------------------------------------

def one_workload(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The driver starts us bare; pin the hash seed by re-exec.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    harness.enter_repo()
    import workloads

    run = harness.Run(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.scale, _STARTED,
                      probe=args.probe)
    if args.probe:
        try:
            workloads.WORKLOADS[args.workload](run)
        except harness.SetupDone:
            print(run.setup_own)
            return 0
        raise RuntimeError("workload never reached its first timed event")

    workloads.WORKLOADS[args.workload](run)
    if not run.trace:
        run.e2e["peak_rss_mb"] = run.peak_rss_mb()  # before the probes
        probe = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--scale", args.scale,
                 "--probe"]
        setups = [run.setup_own] + [
            float(child(probe).stdout.strip().splitlines()[-1])
            for _ in range(PROBES[args.scale])
        ]
        run.detail["setups_s"] = setups
        run.e2e["setup_s"] = statistics.median(setups)
    return run.finish()


# ---------------------------------------------------------------------------
# All workloads (the operator's command)
# ---------------------------------------------------------------------------

def parse_child(done: "subprocess.CompletedProcess[str]") -> Dict[str, Any]:
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"workload process printed no result "
                         f"(exit {done.returncode})")
    detail = next(json.loads(line[len("DETAIL "):])
                  for line in reversed(lines) if line.startswith("DETAIL "))
    return {"result": json.loads(lines[-1]), "detail": detail,
            "exit": done.returncode}


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Median, quartiles and spread of each metric over the runs."""
    table: Dict[str, Dict[str, Any]] = {}
    for name, cell in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = harness.quartiles(values)
        table[name] = {"unit": cell["unit"], "values": values,
                       "median": q2, "q1": q1, "q3": q3,
                       "spread": harness.spread(values)}
    return table


def all_workloads(args: argparse.Namespace) -> int:
    spec = harness.load_spec()
    chosen = args.only or [w["name"] for w in spec["workloads"]]
    ledger: Dict[str, Any] = {
        "runner": harness.runner_block(),
        "seed": args.seed, "runs": args.runs, "scale": args.scale,
        "seconds": args.seconds,
        "estimator": "upper quartile of per-pass events/s",
        "end_to_end": {}, "per_layer": {}, "detail": {},
    }
    print("runner " + json.dumps(ledger["runner"], sort_keys=True))
    exit_code = 0
    for workload in chosen:
        for section, trace in (("end_to_end", 0), ("per_layer", 1)):
            if trace and not args.traced:
                continue
            runs = []
            for seed in range(args.seed, args.seed + args.runs):
                done = parse_child(child([
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--scale", args.scale,
                ]))
                exit_code |= done["exit"]
                if not done["result"]["correct"]:
                    print(f"INCORRECT {workload} seed {seed}")
                runs.append(done)
            table = summarise(runs)
            ledger[section][workload] = table
            ledger["detail"].setdefault(workload, {})[section] = [
                r["detail"] for r in runs
            ]
            unobserved = not runs[0]["detail"].get(
                "process_over_inline_observed", True)
            for name, row in table.items():
                if trace and not any(row["values"]):
                    continue  # a layer this workload does not touch
                note = ""
                if name == "parallel.process_over_inline" and unobserved:
                    note = "  unobserved (nproc < shards + 1)"
                print(f"{workload:17s} {name:38s} {row['median']:14.4f} "
                      f"{row['unit']:9s} q1 {row['q1']:.4f} "
                      f"q3 {row['q3']:.4f} spread {row['spread']:.3f}"
                      f"{note}")
            rates = runs[0]["detail"].get("passes_events_per_s")
            if rates:
                q1, q2, q3 = harness.quartiles(rates)
                print(f"{workload:17s} per-pass events/s (first run): "
                      f"median {q2:.0f} q1 {q1:.0f} q3 {q3:.0f} "
                      f"best {max(rates):.0f} over {len(rates)} passes")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
    print(f"ledger written to {out}")
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.workload:
        return one_workload(args)
    return all_workloads(args)


if __name__ == "__main__":
    sys.exit(main())

"""Pass 4 — paper-regex pathology.

Algorithm 1 emits one regex per operation: state-change symbols as
literals, reads starred.  Nothing compiles these regexes at run time —
the detector scores the state-change sequence by LCS — but their
shape still says what relaxed and strict matching can tell apart, and
the linear form (`L1.*?L2.*?...Ln`) has pathologies checkable
statically.

Rules
-----
``RGX001`` (warning)
    Adjacent identical starred reads (``a*a*``) — the linear-chain
    analog of a nested quantifier: the split between the two stars is
    ambiguous, strict matching degenerates, and the duplication is
    always a generation bug (noise filtering collapses read runs, so a
    sound Alg. 1 never emits it).
``RGX002`` (warning)
    All symbols starred: the paper regex matches the empty string, so
    the relaxed matcher is vacuous.  The detector copes by scoring
    pure-read fingerprints on their full sequence (DESIGN.md §5b), but
    the regex itself proves nothing.
``RGX003`` (info)
    No starred symbols at all: relaxed and strict matchers are the
    same expression, so the strict ablation is meaningless for this
    operation.
``RGX005`` (info)
    A run of ≥ ``STAR_RUN_THRESHOLD`` consecutive starred reads: the
    strict matcher demands a long exact read sequence (brittle), while
    the relaxed matcher skips the whole run — the two ablation arms
    diverge maximally on this fingerprint.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.context import LintContext
from repro.analysis.findings import Finding, Severity
from repro.core.fingerprint import Fingerprint

PASS_NAME = "regex"

#: Reads-only runs of at least this length are flagged as star runs
#: (RGX005).
STAR_RUN_THRESHOLD = 12


def _adjacent_starred_pairs(fingerprint: Fingerprint) -> List[str]:
    """Symbols that appear as adjacent identical starred reads."""
    pairs: List[str] = []
    previous: Tuple[str, bool] = ("", True)
    mask = fingerprint.state_change_mask
    for symbol, is_sc in zip(fingerprint.symbols, mask):
        if not is_sc and previous == (symbol, False) and symbol not in pairs:
            pairs.append(symbol)
        previous = (symbol, is_sc)
    return pairs


def _longest_read_run(fingerprint: Fingerprint) -> int:
    """Length of the longest run of consecutive starred reads."""
    best = run = 0
    for is_sc in fingerprint.state_change_mask:
        run = 0 if is_sc else run + 1
        best = max(best, run)
    return best


def run(ctx: LintContext) -> List[Finding]:
    """Emit RGX findings, aggregated per fingerprint shape."""
    findings: List[Finding] = []
    for symbols, operations in sorted(
        ctx.symbol_classes().items(), key=lambda item: sorted(item[1])[0]
    ):
        fingerprint = ctx.fingerprint_of(sorted(operations)[0])
        location = f"fingerprint:{sorted(operations)[0]}"
        ops_witness = ctx.sample_ops(operations)

        starred_pairs = _adjacent_starred_pairs(fingerprint)
        if starred_pairs:
            findings.append(Finding(
                rule="RGX001",
                severity=Severity.WARNING,
                pass_name=PASS_NAME,
                location=location,
                message=(
                    f"paper regex contains {len(starred_pairs)} "
                    "adjacent identical starred read(s) (a*a*): "
                    "ambiguous split, and evidence the noise filter's "
                    "read-collapse rule did not run"
                ),
                witness=ops_witness
                + ctx.api_labels("".join(starred_pairs)),
                fix_hint=(
                    "regenerate the fingerprint through filter_noise; "
                    "runs of one idempotent read must collapse to a "
                    "single occurrence"
                ),
            ))

        n_literals = len(fingerprint.state_change_symbols)
        n_reads = len(symbols) - n_literals
        if symbols and n_literals == 0:
            findings.append(Finding(
                rule="RGX002",
                severity=Severity.WARNING,
                pass_name=PASS_NAME,
                location=location,
                message=(
                    f"all {len(symbols)} symbols are starred reads: the "
                    "paper regex matches the empty snapshot and the "
                    "relaxed matcher is vacuous"
                ),
                witness=ops_witness + ctx.api_labels(symbols),
                fix_hint=(
                    "the detector falls back to full-sequence scoring "
                    "for pure-read fingerprints; keep these operations "
                    "only if that fallback precision is acceptable"
                ),
            ))
        elif symbols and n_reads == 0:
            findings.append(Finding(
                rule="RGX003",
                severity=Severity.INFO,
                pass_name=PASS_NAME,
                location=location,
                message=(
                    f"no starred reads: relaxed and strict matchers are "
                    "identical for this fingerprint "
                    f"({n_literals} literals)"
                ),
                witness=ops_witness,
                fix_hint="informational; the strict ablation is a no-op here",
            ))

        read_run = _longest_read_run(fingerprint)
        if read_run >= STAR_RUN_THRESHOLD:
            findings.append(Finding(
                rule="RGX005",
                severity=Severity.INFO,
                pass_name=PASS_NAME,
                location=location,
                message=(
                    f"star run of {read_run} consecutive reads: strict "
                    "matching demands the exact run while relaxed "
                    "matching skips it entirely"
                ),
                witness=ops_witness,
                fix_hint=(
                    "informational; expect maximal relaxed-vs-strict "
                    "divergence for this operation in ablations"
                ),
            ))
    return findings

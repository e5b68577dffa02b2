"""Pass 2 — truncation reachability.

Algorithm 2 truncates every candidate fingerprint at the *last*
occurrence of the offending API before matching.  The relaxed matcher
scores state-change symbol order, so a prefix with no state-change
literal has nothing to score that way: candidate preparation
(``repro.core.detector.prepare_candidate``) turns it into a pure read
— cuts ``(0,)``, scored on the prefix's full symbol sequence — and a
pure read ranks only when no state-change candidate passes coverage.

Rules
-----
``TRN001`` (info)
    Truncating at some symbol of the fingerprint yields a prefix with
    zero state-change literals; for a pure-read fingerprint that is
    every symbol.  A fault striking that API scores this operation as
    a pure read on the reads-only prefix, so it is named only when no
    state-change candidate passes coverage.  Info severity: the
    weak spot is inherent to Alg. 2 (the operation simply had not
    changed state yet) and pervasive in any real library, but the
    witness list tells an operator exactly which APIs it affects.
``TRN002`` (info)
    Truncating at the fingerprint's first state-change symbol yields a
    single-literal prefix.  A one-symbol cut reaches coverage 1.0 from
    any single occurrence in the buffer, so matches at that truncation
    point carry almost no evidence.  A pure-read fingerprint has no
    state-change symbol, so it never reports this.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List

from repro.analysis.context import LintContext
from repro.analysis.findings import Finding, Severity

PASS_NAME = "truncation"


def run(ctx: LintContext) -> List[Finding]:
    """Emit TRN findings, aggregated per fingerprint shape."""
    findings: List[Finding] = []
    for symbols, operations in sorted(
        ctx.symbol_classes().items(), key=lambda item: sorted(item[1])[0]
    ):
        fingerprint = ctx.fingerprint_of(sorted(operations)[0])
        mask = fingerprint.state_change_mask
        # prefix_sc[i] = state-change literals in symbols[:i]
        prefix_sc = [0] + list(accumulate(1 if sc else 0 for sc in mask))
        degenerate: List[str] = []
        for symbol in sorted(set(symbols)):
            last = symbols.rfind(symbol)
            if prefix_sc[last + 1] == 0:
                degenerate.append(symbol)
        if degenerate:
            findings.append(Finding(
                rule="TRN001",
                severity=Severity.INFO,
                pass_name=PASS_NAME,
                location=f"fingerprint:{sorted(operations)[0]}",
                message=(
                    f"truncation at {len(degenerate)} of the "
                    f"fingerprint's symbols leaves no state-change "
                    f"literal; a fault at those APIs scores these "
                    f"{len(operations)} operation(s) as pure reads, "
                    f"ranked only when no state-change candidate "
                    f"passes coverage"
                ),
                witness=ctx.sample_ops(operations)
                + ctx.api_labels("".join(degenerate)),
                fix_hint=(
                    "acceptable if another operation's state changes "
                    "explain faults at those APIs; otherwise move a "
                    "state-change API earlier in the operation so the "
                    "cut keeps a literal"
                ),
            ))
        if not any(mask):
            continue
        first_sc_symbol = symbols[mask.index(True)]
        # The cut at the first state-change symbol's *last* occurrence
        # is single-literal only if that symbol never recurs later and
        # no other state-change literal precedes it.
        if (
            prefix_sc[symbols.rfind(first_sc_symbol) + 1] == 1
            and sum(1 for s in symbols if s == first_sc_symbol) == 1
        ):
            findings.append(Finding(
                rule="TRN002",
                severity=Severity.INFO,
                pass_name=PASS_NAME,
                location=f"fingerprint:{sorted(operations)[0]}",
                message=(
                    "truncation at the first state-change API yields a "
                    "single-literal prefix; a match at that cut point "
                    "is satisfied by any lone occurrence in the buffer"
                ),
                witness=ctx.sample_ops(operations)
                + (ctx.api_label(first_sc_symbol),),
                fix_hint=(
                    "rely on snapshot pruning (LENGTH_TOLERANCE) to "
                    "discount single-literal matches, or start the "
                    "operation with a more distinctive state change"
                ),
            ))
    return findings

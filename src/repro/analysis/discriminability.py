"""Pass 6 — candidate-selection discriminability.

Algorithm 2's first step selects every operation whose fingerprint
*contains* the offending symbol.  How much that narrows the search is
a static property of the library: a symbol's postings-list length is
exactly the candidate count a fault on that symbol produces, and a
fingerprint's *anchor* — its rarest symbol — bounds how cheap its
best-case selection can ever be.  This pass derives those numbers
from the library's inverted index — the postings the library compiler
(``repro.analysis.compile``) builds its selections from — and turns
the pathologies into findings.

Rules
-----
``DSC001`` (warning)
    Anchorless fingerprint: even the operation's *rarest* symbol is
    contained by more than ``ANCHOR_SHARE`` of the library, so the
    operation is selected as a candidate for nearly every fault and
    its preparation/scoring cost is paid on every detection.
``DSC002`` (info)
    Hot symbol: a single symbol's postings list covers at least
    ``HOT_SYMBOL_SHARE`` of the library — a fault on that API degrades
    selection to a near-full scan regardless of indexing.

Libraries smaller than ``ANCHOR_MIN_LIBRARY`` are skipped: with a
handful of fingerprints every symbol is "common" and shares carry no
signal.  Anchorless findings aggregate per fingerprint *shape* (the
compiler's dedup unit), so one over-general template is one finding,
not one per stamped-out instance.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.context import LintContext
from repro.analysis.findings import Finding, Severity

PASS_NAME = "discriminability"

#: A fingerprint is *anchorless* (DSC001) when even its rarest symbol
#: is contained by more than this fraction of the library — every
#: fault symbol selects it as a candidate.
ANCHOR_SHARE = 0.5

#: Library size below which the pass stays quiet: in a tiny library
#: every symbol is "common", so anchor shares carry no signal.
ANCHOR_MIN_LIBRARY = 16

#: A symbol whose postings list covers at least this fraction of the
#: library is reported as *hot* (DSC002, informational).
HOT_SYMBOL_SHARE = 0.5


def run(ctx: LintContext) -> List[Finding]:
    """Emit DSC findings for the context's library."""
    findings: List[Finding] = []
    library = ctx.library
    total = len(library)
    if total < ANCHOR_MIN_LIBRARY:
        return findings
    postings = library.postings()
    posting_len: Dict[str, int] = {
        symbol: len(operations)
        for symbol, operations in postings.items()
    }

    # DSC001: anchorless fingerprints, aggregated per symbol shape.
    for shape, operations in sorted(ctx.symbol_classes().items()):
        distinct = sorted(set(shape))
        if not distinct:
            continue  # empty fingerprint: integrity pass territory
        rarest = min(distinct, key=lambda s: (posting_len[s], s))
        share = posting_len[rarest] / total
        if share <= ANCHOR_SHARE:
            continue
        findings.append(Finding(
            rule="DSC001",
            severity=Severity.WARNING,
            pass_name=PASS_NAME,
            location=f"fingerprint:{sorted(operations)[0]}",
            message=(
                f"anchorless fingerprint ({len(operations)} "
                f"operation(s)): its rarest symbol is still contained "
                f"by {posting_len[rarest]}/{total} fingerprints "
                f"({share:.0%} > anchor share {ANCHOR_SHARE:.0%}), "
                "so every fault on any of its symbols selects it as a "
                "candidate and its scoring cost is paid on nearly "
                "every detection"
            ),
            witness=ctx.sample_ops(operations)
            + ("rarest symbol:",) + (ctx.api_label(rarest),),
            fix_hint=(
                "give the operation a distinctive (rarely shared) "
                "state-change API, or accept the cost and rely on the "
                "compiled index's upper-bound gate to discard it early"
            ),
        ))

    # DSC002: hot symbols — postings lists that defeat selection.
    for symbol in sorted(postings):
        count = posting_len[symbol]
        share = count / total
        if share < HOT_SYMBOL_SHARE:
            continue
        findings.append(Finding(
            rule="DSC002",
            severity=Severity.INFO,
            pass_name=PASS_NAME,
            location=f"symbol:U+{ord(symbol):04X}",
            message=(
                f"hot symbol: {count}/{total} fingerprints "
                f"({share:.0%} ≥ {HOT_SYMBOL_SHARE:.0%}) contain "
                f"{ctx.api_label(symbol)}; a fault on it selects "
                "nearly the whole library regardless of indexing"
            ),
            witness=ctx.sample_ops(
                list(postings[symbol])
            ),
            fix_hint=(
                "expected for ubiquitous APIs (e.g. shared setup "
                "calls); if selection cost on this symbol shows up in "
                "PipelineStats.postings_scanned, consider noise-"
                "filtering the API during fingerprint generation"
            ),
        ))
    return findings

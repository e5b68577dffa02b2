"""Pass 1 — ambiguity / subsumption of relaxed state-change sequences.

The relaxed matcher (Alg. 2, §5.3.1) judges a candidate operation by
how much of its *state-change symbol order* the context buffer
corroborates.  Two fingerprints whose state-change sequences are equal,
or where one is a subsequence of the other, are therefore a provable
runtime-misattribution risk: any buffer that matches the longer one
also scores the shorter one highly.

Rules
-----
``AMB001`` (warning)
    Two operations from *different* groups share an identical
    state-change sequence — indistinguishable under relaxed matching.
``AMB002`` (warning)
    One operation's state-change sequence is a proper subsequence of
    another group's — the shorter operation matches wherever the longer
    one ran.

Ambiguity *within* an operation group (instances of one workload
template) is by design — the library deliberately carries one
fingerprint shape per template — and is not reported.

Fingerprints are grouped into equivalence classes by state-change
sequence first, so the pairwise subsequence check runs over class
representatives (~100 for the seed library), not all ~1200·1199/2
fingerprint pairs.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.context import LintContext
from repro.analysis.findings import Finding, Severity

PASS_NAME = "ambiguity"


def is_subsequence(needle: str, haystack: str) -> bool:
    """Two-pointer subsequence test over symbol strings."""
    if len(needle) > len(haystack):
        return False
    iterator = iter(haystack)
    return all(symbol in iterator for symbol in needle)


def run(ctx: LintContext) -> List[Finding]:
    """Emit AMB findings for the context's library."""
    findings: List[Finding] = []
    classes = ctx.state_change_classes()
    groups: Dict[str, Set[str]] = {
        sequence: {ctx.group_of(op) for op in operations}
        for sequence, operations in classes.items()
    }

    # AMB001: identical state-change sequences across groups.
    for sequence in sorted(classes, key=lambda s: (len(s), s)):
        if not sequence:
            continue  # pure reads order no state change; see TRN001
        operations = classes[sequence]
        if len(groups[sequence]) < 2:
            continue
        findings.append(Finding(
            rule="AMB001",
            severity=Severity.WARNING,
            pass_name=PASS_NAME,
            location=f"fingerprint:{sorted(operations)[0]}",
            message=(
                f"{len(operations)} operations across "
                f"{len(groups[sequence])} groups share an identical "
                f"state-change sequence ({len(sequence)} symbols); the "
                "relaxed matcher cannot tell them apart"
            ),
            witness=ctx.sample_ops(operations)
            + ctx.api_labels(sequence),
            fix_hint=(
                "add a distinguishing state-change API to one of the "
                "operations, or merge them into one operation group"
            ),
        ))

    # AMB002: proper subsumption between classes of disjoint groups.
    # Shortest-first so every subsumed class is compared against all
    # longer representatives; findings aggregate per subsumed class.
    representatives = sorted(
        (s for s in classes if s), key=lambda s: (len(s), s)
    )
    for index, shorter in enumerate(representatives):
        subsumers: List[str] = []
        shorter_groups = groups[shorter]
        for longer in representatives[index + 1:]:
            if len(longer) <= len(shorter):
                continue
            if groups[longer] & shorter_groups:
                continue  # same template family: shared shape by design
            if is_subsequence(shorter, longer):
                subsumers.extend(classes[longer])
        if not subsumers:
            continue
        subsumed_ops = classes[shorter]
        findings.append(Finding(
            rule="AMB002",
            severity=Severity.WARNING,
            pass_name=PASS_NAME,
            location=f"fingerprint:{sorted(subsumed_ops)[0]}",
            message=(
                f"state-change sequence ({len(shorter)} symbols, "
                f"{len(subsumed_ops)} operations) is a proper "
                f"subsequence of {len(subsumers)} other operations' "
                "sequences; relaxed matching may misattribute their "
                "faults to this operation"
            ),
            witness=ctx.sample_ops(subsumed_ops)
            + ("subsumed by:",) + ctx.sample_ops(subsumers)
            + ctx.api_labels(shorter),
            fix_hint=(
                "lengthen the shorter fingerprint with a distinctive "
                "state-change API, or raise MATCH_COVERAGE / lower "
                "LENGTH_TOLERANCE to let snapshot pruning break the tie"
            ),
        ))
    return findings

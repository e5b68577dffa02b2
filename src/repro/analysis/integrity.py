"""Pass 3 — symbol-table and catalog integrity.

Fingerprints are strings over a bijective API↔symbol mapping carved
out of the BMP private-use area.  Everything downstream assumes that
bijection holds and that every symbol a fingerprint uses decodes to a
real catalog API; this pass proves it statically.

Rules
-----
``SYM001`` (error)
    Catalog exceeds the symbol-space capacity: assigning symbols past
    the private-use area would collide with real text and corrupt
    every fingerprint.
``SYM002`` (error)
    The symbol table is not a bijection over the catalog (size or
    round-trip mismatch).
``SYM003`` (error)
    A fingerprint contains a symbol the table cannot decode.
``SYM004`` (error)
    The library's per-symbol inverted index disagrees with its
    fingerprints (`GET_POSSIBLE_OFFENDING_OPERATIONS` would return the
    wrong candidate set).
``SYM005`` (info)
    Catalog APIs (noise excluded) that no fingerprint exercises —
    faults at those APIs cannot be localized to any operation.
"""

from __future__ import annotations

from typing import List, Set

from repro.analysis.context import MAX_WITNESSES, LintContext
from repro.analysis.findings import Finding, Severity

PASS_NAME = "integrity"


def run(ctx: LintContext) -> List[Finding]:
    """Emit SYM findings for the context's catalog/table/library."""
    findings: List[Finding] = []
    catalog_size = len(ctx.catalog)

    if catalog_size > ctx.max_symbols:
        findings.append(Finding(
            rule="SYM001",
            severity=Severity.ERROR,
            pass_name=PASS_NAME,
            location="catalog",
            message=(
                f"catalog defines {catalog_size} APIs but the symbol "
                f"space holds only {ctx.max_symbols} code points; "
                "symbols past the private-use area would collide with "
                "real text"
            ),
            witness=(
                f"catalog APIs: {catalog_size}",
                f"symbol capacity: {ctx.max_symbols}",
            ),
            fix_hint=(
                "shard the catalog, retire unused vendor-extension "
                "endpoints, or extend the symbol range beyond the BMP "
                "private-use area"
            ),
        ))

    forward = dict(ctx.symbols.items())
    reverse_size = sum(
        1 for _, s in ctx.symbols.items() if ctx.symbols.has_symbol(s)
    )
    round_trip_bad = [
        key for key, symbol in forward.items()
        if not ctx.symbols.has_symbol(symbol)
        or ctx.symbols.api_key(symbol) != key
    ]
    if (
        len(forward) != catalog_size
        or reverse_size != len(forward)
        or len(set(forward.values())) != len(forward)
        or round_trip_bad
    ):
        findings.append(Finding(
            rule="SYM002",
            severity=Severity.ERROR,
            pass_name=PASS_NAME,
            location="symbol-table",
            message=(
                f"symbol table is not a bijection over the catalog "
                f"({len(forward)} keys, "
                f"{len(set(forward.values()))} distinct symbols, "
                f"{catalog_size} catalog APIs, "
                f"{len(round_trip_bad)} round-trip failures)"
            ),
            witness=tuple(round_trip_bad[:MAX_WITNESSES]),
            fix_hint="rebuild the symbol table from a deduplicated catalog",
        ))

    used: Set[str] = set()
    for fingerprint in ctx.library:
        used.update(fingerprint.symbols)
        unknown = sorted(
            s for s in set(fingerprint.symbols)
            if not ctx.symbols.has_symbol(s)
        )
        if unknown:
            findings.append(Finding(
                rule="SYM003",
                severity=Severity.ERROR,
                pass_name=PASS_NAME,
                location=f"fingerprint:{fingerprint.operation}",
                message=(
                    f"fingerprint uses {len(unknown)} symbol(s) the "
                    "symbol table cannot decode"
                ),
                witness=tuple(
                    f"U+{ord(s):04X}" for s in unknown[:MAX_WITNESSES]
                ),
                fix_hint=(
                    "regenerate the library against the current "
                    "catalog; the library was built with a different "
                    "symbol table"
                ),
            ))

    for problem in ctx.library.check_index():
        findings.append(Finding(
            rule="SYM004",
            severity=Severity.ERROR,
            pass_name=PASS_NAME,
            location="library-index",
            message=f"inverted index inconsistency: {problem}",
            fix_hint=(
                "rebuild the library (re-add every fingerprint); the "
                "candidate lookup of Algorithm 2 is unreliable until "
                "the index agrees with the fingerprints"
            ),
        ))

    uncovered = [
        api for api in ctx.catalog.apis
        if not api.noise
        and api.key in ctx.symbols
        and ctx.symbols.symbol(api.key) not in used
    ]
    if uncovered:
        findings.append(Finding(
            rule="SYM005",
            severity=Severity.INFO,
            pass_name=PASS_NAME,
            location="catalog",
            message=(
                f"{len(uncovered)} of {catalog_size} catalog APIs are "
                "exercised by no fingerprint; faults there cannot be "
                "localized to an operation"
            ),
            witness=tuple(
                str(api) for api in uncovered[:MAX_WITNESSES]
            ) + ((f"... {len(uncovered) - MAX_WITNESSES} more",)
                 if len(uncovered) > MAX_WITNESSES else ()),
            fix_hint=(
                "expected for vendor-extension filler endpoints; add "
                "workload templates if any uncovered API matters in "
                "production"
            ),
        ))
    return findings

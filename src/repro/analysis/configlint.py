"""Pass 5 — dead noise-filter rules and GretelConfig invariants.

Algorithm 1's noise filter and the α sizing of Algorithm 2 are the two
pieces of configuration the rest of the pipeline trusts blindly: a
dead filter rule silently changes what "noise" means, and a mis-sized
window breaks the precision math.  Both are checkable symbolically —
no traffic required.  The other thresholds (c1, c2, the match
coverage, ...) are module constants, not settings, so there is nothing
of theirs to check.

Rules
-----
``NSE001`` (warning)
    A noise-filter rule matches no API in the catalog: the rule is
    dead code, or the catalog lost the APIs the rule was written for.
``NSE002`` (warning)
    A fingerprint contains a symbol the noise filter would have
    dropped — the library was not generated through ``filter_noise``.
``CFG001`` (error)
    A violated α sizing invariant from
    :meth:`repro.core.config.GretelConfig.invariants`
    (α > 0, α ≥ 2·FP_max).
"""

from __future__ import annotations

from typing import List

from repro.analysis.context import LintContext
from repro.analysis.findings import Finding, Severity
from repro.core.fingerprint import ALL_NOISE_RULES, NOISE_DROP_RULES

PASS_NAME = "noise-config"


def run(ctx: LintContext) -> List[Finding]:
    """Emit NSE/CFG findings for the context's catalog and config."""
    findings: List[Finding] = []

    for rule in ALL_NOISE_RULES:
        if any(rule.applies(api) for api in ctx.catalog.apis):
            continue
        findings.append(Finding(
            rule="NSE001",
            severity=Severity.WARNING,
            pass_name=PASS_NAME,
            location=f"noise-rule:{rule.rule_id}",
            message=(
                f"noise-filter rule {rule.rule_id!r} "
                f"({rule.description}) matches no API in the catalog "
                "and can never fire"
            ),
            fix_hint=(
                "delete the rule, or restore the catalog APIs it was "
                "written to filter"
            ),
        ))

    dropped_symbols = {
        ctx.symbols.symbol(api.key)
        for api in ctx.catalog.apis
        if api.key in ctx.symbols
        and any(rule.applies(api) for rule in NOISE_DROP_RULES)
    }
    for fingerprint in ctx.library:
        leaked = sorted(set(fingerprint.symbols) & dropped_symbols)
        if leaked:
            findings.append(Finding(
                rule="NSE002",
                severity=Severity.WARNING,
                pass_name=PASS_NAME,
                location=f"fingerprint:{fingerprint.operation}",
                message=(
                    f"fingerprint contains {len(leaked)} symbol(s) the "
                    "noise filter always drops; the library was not "
                    "generated through filter_noise"
                ),
                witness=ctx.api_labels("".join(leaked)),
                fix_hint=(
                    "regenerate the fingerprint with Algorithm 1's filter"
                ),
            ))

    for code, message in ctx.config.invariants(ctx.library.fp_max):
        findings.append(Finding(
            rule="CFG001",
            severity=Severity.ERROR,
            pass_name=PASS_NAME,
            location=f"config:{code}",
            message=message,
            fix_hint=(
                "fix the GretelConfig field(s) named in the message; "
                "the α/β/δ derivation is §5.3.1 and §7 of the paper"
            ),
        ))
    return findings

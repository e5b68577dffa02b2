"""Static analysis over the fingerprint library (`repro lint`).

GRETEL's localization precision rests entirely on the offline
fingerprint library (Alg. 1): if two operations' state-change
subsequences subsume each other, or a truncation point is unreachable,
the online matcher (Alg. 2) silently misattributes faults.  This
package is the build-time gate that proves the library sound before it
ever sees traffic — five passes over the library, symbol table, API
catalog and :class:`~repro.core.config.GretelConfig`:

``ambiguity``
    pairwise subsumption of relaxed state-change sequences (AMB*);
``truncation``
    reachability of truncate-at-last-occurrence prefixes (TRN*);
``integrity``
    symbol-table bijectivity, private-use-area overflow, orphan
    symbols and uncovered catalog APIs (SYM*);
``noise-config``
    dead noise-filter rules and α sizing invariants (NSE*/CFG*);
``discriminability``
    candidate-selection cost facts: anchorless fingerprints and hot
    symbols whose postings defeat the inverted index (DSC*).

Each pass emits structured :class:`Finding` objects through a shared
reporting layer with text and JSON output.  Rule-by-rule documentation
lives in ``docs/linting.md``.

The package also houses the library *compiler*
(``repro.analysis.compile``): the same static analysis, promoted from
a diagnostic into the in-memory ``CompiledIndex`` the online detector
looks candidates up in, with ``verify_selection`` as its differential
oracle (``docs/indexing.md``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.findings import Finding, LintReport, Severity
    from repro.analysis.context import LintContext
    from repro.analysis.engine import PASSES, run_lint
    from repro.analysis.render import render_json, render_text

__all__ = [
    "Finding",
    "LintContext",
    "LintReport",
    "PASSES",
    "Severity",
    "render_json",
    "render_text",
    "run_lint",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.findings": ("Finding", "LintReport", "Severity"),
    "repro.analysis.context": ("LintContext",),
    "repro.analysis.engine": ("PASSES", "run_lint"),
    "repro.analysis.render": ("render_json", "render_text"),
})

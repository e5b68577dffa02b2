"""Shared input bundle for analyzer passes.

A :class:`LintContext` carries everything a pass may consult — the
fingerprint library, symbol table, API catalog, analyzer config, an
optional operation→group mapping, and tunable limits — so each pass is
a pure function ``LintContext -> List[Finding]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.config import GretelConfig
from repro.core.fingerprint import Fingerprint, FingerprintLibrary
from repro.core.symbols import PUA_CAPACITY, SymbolTable
from repro.openstack.catalog import ApiCatalog


@dataclass
class LintContext:
    """Inputs and knobs for one lint run."""

    library: FingerprintLibrary
    symbols: SymbolTable
    catalog: ApiCatalog
    config: GretelConfig = field(default_factory=GretelConfig)

    #: Operation name → group key.  Operations in the same group (e.g.
    #: instances of one workload template) intentionally share a
    #: fingerprint shape, so ambiguity *within* a group is by design
    #: and is not reported.  ``None`` treats every operation as its own
    #: group (external libraries carry no template information).
    operation_groups: Optional[Mapping[str, str]] = None

    #: Symbol-space capacity the integrity pass checks the catalog
    #: against.  Defaults to the BMP private-use area; override to
    #: model a smaller symbol budget (capacity planning / tests).
    max_symbols: int = PUA_CAPACITY

    #: Rendered findings are capped per rule; exact counts survive in
    #: ``LintReport.rule_counts``.
    max_findings_per_rule: int = 25

    #: Witness lists inside one finding are capped at this length.
    max_witnesses: int = 6

    #: Matcher-step budget for the regex pass's bounded estimator.
    step_budget: int = 10_000_000

    #: Reads-only runs of at least this length are flagged as star runs.
    star_run_threshold: int = 12

    #: A fingerprint is *anchorless* (DSC001) when even its rarest
    #: symbol is contained by more than this fraction of the library —
    #: every fault symbol selects it as a candidate.
    anchor_share: float = 0.5

    #: Library size below which the discriminability pass stays quiet:
    #: in a tiny library every symbol is "common", so anchor shares
    #: carry no signal.
    anchor_min_library: int = 16

    #: A symbol whose postings list covers at least this fraction of
    #: the library is reported as *hot* (DSC002, informational).
    hot_symbol_share: float = 0.5

    def group_of(self, operation: str) -> str:
        """The ambiguity group of an operation (itself when unmapped)."""
        if self.operation_groups is None:
            return operation
        return self.operation_groups.get(operation, operation)

    def api_label(self, symbol: str) -> str:
        """Human-readable API name behind ``symbol`` (best effort)."""
        if self.symbols.has_symbol(symbol):
            return str(self.symbols.api(symbol))
        return f"<unknown symbol U+{ord(symbol):04X}>"

    def api_labels(self, symbols: str) -> Tuple[str, ...]:
        """Labels for a symbol string, capped at :attr:`max_witnesses`."""
        labels = [self.api_label(s) for s in symbols[: self.max_witnesses]]
        extra = len(symbols) - self.max_witnesses
        if extra > 0:
            labels.append(f"... {extra} more")
        return tuple(labels)

    def sample_ops(self, operations: List[str]) -> Tuple[str, ...]:
        """A sorted, capped sample of operation names for witnesses."""
        ordered = sorted(operations)
        sample = ordered[: self.max_witnesses]
        extra = len(ordered) - self.max_witnesses
        if extra > 0:
            sample.append(f"... {extra} more")
        return tuple(sample)

    def state_change_classes(self) -> Dict[str, List[str]]:
        """Operations grouped by relaxed state-change symbol sequence."""
        classes: Dict[str, List[str]] = {}
        for fingerprint in self.library:
            classes.setdefault(
                fingerprint.state_change_symbols, []
            ).append(fingerprint.operation)
        return classes

    def symbol_classes(self) -> Dict[str, List[str]]:
        """Operations grouped by full symbol sequence."""
        classes: Dict[str, List[str]] = {}
        for fingerprint in self.library:
            classes.setdefault(fingerprint.symbols, []).append(
                fingerprint.operation
            )
        return classes

    def fingerprint_of(self, operation: str) -> Fingerprint:
        """Library lookup, for witness construction."""
        return self.library.get(operation)

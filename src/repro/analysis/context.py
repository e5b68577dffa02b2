"""Shared input bundle for analyzer passes.

A :class:`LintContext` carries everything a pass may consult — the
fingerprint library, symbol table, API catalog, analyzer config, an
optional operation→group mapping, and the symbol capacity — so each
pass is a pure function ``LintContext -> List[Finding]``.  The limits
no caller varies are module constants in the pass that reads them
(``MAX_WITNESSES`` here, shared by every pass's witness lists).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.config import GretelConfig
from repro.core.fingerprint import Fingerprint, FingerprintLibrary
from repro.core.symbols import PUA_CAPACITY, SymbolTable
from repro.openstack.catalog import ApiCatalog

#: Witness lists inside one finding are capped at this length.
MAX_WITNESSES = 6


@dataclass
class LintContext:
    """Inputs for one lint run."""

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
    #: model a smaller symbol budget (``repro lint --max-symbols``).
    max_symbols: int = PUA_CAPACITY

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
        """Labels for a symbol string, capped at :data:`MAX_WITNESSES`."""
        labels = [self.api_label(s) for s in symbols[:MAX_WITNESSES]]
        extra = len(symbols) - MAX_WITNESSES
        if extra > 0:
            labels.append(f"... {extra} more")
        return tuple(labels)

    def sample_ops(self, operations: List[str]) -> Tuple[str, ...]:
        """A sorted, capped sample of operation names for witnesses."""
        ordered = sorted(operations)
        sample = ordered[:MAX_WITNESSES]
        extra = len(ordered) - MAX_WITNESSES
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

"""Fingerprint generation (Algorithm 1) and the fingerprint library.

An operational fingerprint is the precise sequence of APIs that
identifies one high-level administrative operation.  Generation runs
offline, from repeated isolated executions of the operation:

1. **noise filtering** — drop heartbeat/status RPCs, Keystone
   authentication round trips, and collapse repeat occurrences of
   idempotent REST reads on the same URI (§5, "Fingerprinting
   operations");
2. **longest common subsequence** across the filtered traces, starting
   from the shortest trace, which removes transient invocations;
3. **regex construction** — each API becomes one Unicode symbol;
   state-change APIs (POST/PUT/DELETE and RPCs) are required literals,
   reads are starred (optional), per Algorithm 1.

A fingerprint stores that regex as its symbols plus a state-change
mask, and nothing ever builds the regex itself.  At detection time
``repro.core.detector`` prepares each truncated fingerprint and
``repro.core.matching`` scores it against a snapshot with a
bit-parallel LCS — over the state-change symbols when matching is
relaxed (§5.3.1: "a regular expression matches the snapshot if the
sequence of symbols corresponding to the state change operations is
preserved"; starred reads can never fail a match), over every symbol
when it is strict (the ablation baseline).  A pure-read fingerprint
has no literal to order, so it is scored on its full sequence.  See
``docs/matching.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.openstack.apis import Api, ApiKind
from repro.openstack.catalog import ApiCatalog
from repro.core.symbols import SymbolTable


# ---------------------------------------------------------------------------
# Noise filtering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseRule:
    """One declarative noise-filter rule.

    ``applies`` decides per-API whether the rule can act on it.  Drop
    rules remove every matching message; the collapse rule only removes
    *repeat* occurrences, so it is kept out of :data:`NOISE_DROP_RULES`
    and applied statefully inside :func:`filter_noise`.  Keeping the
    rules declarative lets ``repro lint`` prove each one can still fire
    against the catalog (rule NSE001).
    """

    rule_id: str
    description: str
    applies: Callable[[Api], bool]


#: Rules that drop every matching message outright.
NOISE_DROP_RULES: Tuple[NoiseRule, ...] = (
    NoiseRule(
        "noise-flag",
        "periodic heartbeats, status reports and token round trips "
        "flagged as noise in the catalog",
        lambda api: api.noise,
    ),
    NoiseRule(
        "keystone-rest",
        "Keystone REST authentication traffic",
        lambda api: api.kind is ApiKind.REST and api.service == "keystone",
    ),
)

#: The stateful rule collapsing runs of one idempotent read.
READ_COLLAPSE_RULE = NoiseRule(
    "read-collapse",
    "repeat occurrences of the same idempotent read (status-poll GET "
    "loops become a single occurrence)",
    lambda api: api.idempotent_read,
)

#: Every noise rule, for introspection by the lint noise-config pass.
ALL_NOISE_RULES: Tuple[NoiseRule, ...] = NOISE_DROP_RULES + (READ_COLLAPSE_RULE,)


def filter_noise(api_keys: Optional[Sequence[str]], catalog: ApiCatalog) -> List[str]:
    """Remove messages that carry no operation-identifying signal.

    Applies :data:`NOISE_DROP_RULES` (heartbeats, status reports, token
    issue/validate, all Keystone REST traffic) and collapses *runs* of
    the same idempotent read per :data:`READ_COLLAPSE_RULE`.

    Degenerate traces are handled explicitly: an empty (or ``None``)
    trace and a trace consisting entirely of noise both yield ``[]``,
    so downstream LCS sees a well-formed empty sequence rather than an
    edge-case error.
    """
    if not api_keys:
        return []
    filtered: List[str] = []
    previous: Optional[str] = None
    for key in api_keys:
        api = catalog.get(key)
        if any(rule.applies(api) for rule in NOISE_DROP_RULES):
            continue
        if READ_COLLAPSE_RULE.applies(api) and key == previous:
            continue
        filtered.append(key)
        previous = key
    return filtered


# ---------------------------------------------------------------------------
# Longest common subsequence
# ---------------------------------------------------------------------------

def longest_common_subsequence(a: Sequence[str], b: Sequence[str]) -> List[str]:
    """Classic O(len(a)·len(b)) LCS over API-key sequences."""
    if not a or not b:
        return []
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(1, rows):
        ai = a[i - 1]
        row = table[i]
        prev = table[i - 1]
        for j in range(1, cols):
            if ai == b[j - 1]:
                row[j] = prev[j - 1] + 1
            else:
                row[j] = prev[j] if prev[j] >= row[j - 1] else row[j - 1]
    # Backtrack.
    result: List[str] = []
    i, j = len(a), len(b)
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            result.append(a[i - 1])
            i -= 1
            j -= 1
        elif table[i - 1][j] >= table[i][j - 1]:
            i -= 1
        else:
            j -= 1
    result.reverse()
    return result


# ---------------------------------------------------------------------------
# Fingerprint
# ---------------------------------------------------------------------------

@dataclass
class Fingerprint:
    """One operation's fingerprint, in symbol form."""

    operation: str
    symbols: str                      # full symbol sequence (post-filtering/LCS)
    state_change_mask: Tuple[bool, ...]  # parallel to ``symbols``
    category: str = ""
    nodes: Tuple[str, ...] = ()       # deployment nodes the operation touches
    dependencies: Tuple[Tuple[str, str], ...] = ()  # (node, process) pairs

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def state_change_symbols(self) -> str:
        """Only the required literals (RPCs + POST/PUT/DELETE)."""
        return "".join(
            symbol for symbol, is_sc in zip(self.symbols, self.state_change_mask)
            if is_sc
        )

    def rest_only(self, symbols: SymbolTable) -> "Fingerprint":
        """A copy with RPC symbols pruned (§6's optimization)."""
        kept = list(map(symbols.rest_symbols.__contains__, self.symbols))
        return Fingerprint(
            operation=self.operation,
            symbols="".join(compress(self.symbols, kept)),
            state_change_mask=tuple(compress(self.state_change_mask, kept)),
            category=self.category,
            nodes=self.nodes,
            dependencies=self.dependencies,
        )

    def to_dict(self) -> Dict:
        """JSON-serializable form."""
        return {
            "operation": self.operation,
            "symbols": [ord(s) for s in self.symbols],
            "state_change_mask": list(self.state_change_mask),
            "category": self.category,
            "nodes": list(self.nodes),
            "dependencies": [list(d) for d in self.dependencies],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Fingerprint":
        """Inverse of :meth:`to_dict`."""
        return cls(
            operation=data["operation"],
            symbols="".join(map(chr, data["symbols"])),
            state_change_mask=tuple(map(bool, data["state_change_mask"])),
            category=data.get("category", ""),
            nodes=tuple(data.get("nodes", ())),
            dependencies=tuple(tuple(d) for d in data.get("dependencies", ())),
        )


def generate_fingerprint(
    operation: str,
    traces: Sequence[Sequence[str]],
    symbols: SymbolTable,
    catalog: ApiCatalog,
    *,
    category: str = "",
    nodes: Iterable[str] = (),
    dependencies: Iterable[Tuple[str, str]] = (),
) -> Fingerprint:
    """Algorithm 1: noise-filter every trace, LCS them, emit symbols.

    ``traces`` are API-key sequences from repeated isolated executions
    of the operation (the paper re-executes each operation several
    times and keeps only the common APIs).
    """
    if not traces:
        raise ValueError("need at least one trace")
    ordered = sorted(traces, key=len)
    common = filter_noise(ordered[0], catalog)
    for trace in ordered[1:]:
        common = longest_common_subsequence(common, filter_noise(trace, catalog))
    symbol_string = symbols.encode(common)
    mask = tuple(catalog.get(key).state_change for key in common)
    return Fingerprint(
        operation=operation,
        symbols=symbol_string,
        state_change_mask=mask,
        category=category,
        nodes=tuple(sorted(set(nodes))),
        dependencies=tuple(sorted(set(dependencies))),
    )


# ---------------------------------------------------------------------------
# Library
# ---------------------------------------------------------------------------

class FingerprintLibrary:
    """All known fingerprints, with a per-symbol inverted index."""

    def __init__(self, symbols: SymbolTable):
        self.symbols = symbols
        self._fingerprints: Dict[str, Fingerprint] = {}
        self._containing: Dict[str, Set[str]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter, bumped by every :meth:`add`.

        The compile memo (``repro.analysis.compile.
        compiled_index_for``) keys on ``(library, version)`` so a
        mutated library can never be served a stale compilation.
        """
        return self._version

    def add(self, fingerprint: Fingerprint) -> None:
        """Register a fingerprint (replacing any previous one)."""
        self._version += 1
        previous = self._fingerprints.get(fingerprint.operation)
        if previous is not None:
            for symbol in set(previous.symbols):
                names = self._containing.get(symbol)
                if names is None:
                    continue
                names.discard(fingerprint.operation)
                if not names:
                    del self._containing[symbol]
        self._fingerprints[fingerprint.operation] = fingerprint
        for symbol in set(fingerprint.symbols):
            self._containing.setdefault(symbol, set()).add(fingerprint.operation)

    def check_index(self) -> List[str]:
        """Consistency check of the per-symbol inverted index.

        Returns human-readable descriptions of every inconsistency —
        a symbol indexed to an operation that no longer exists or whose
        fingerprint lacks the symbol, an empty index entry, or a
        fingerprint symbol missing from the index.  A sound library
        returns ``[]``; the lint integrity pass turns anything else
        into SYM004 errors.
        """
        problems: List[str] = []
        for symbol, names in sorted(self._containing.items()):
            if not names:
                problems.append(
                    f"index entry U+{ord(symbol):04X} maps to no operation"
                )
            for name in sorted(names):
                fingerprint = self._fingerprints.get(name)
                if fingerprint is None:
                    problems.append(
                        f"index entry U+{ord(symbol):04X} references "
                        f"unknown operation {name!r}"
                    )
                elif symbol not in fingerprint.symbols:
                    problems.append(
                        f"index entry U+{ord(symbol):04X} references "
                        f"{name!r} whose fingerprint lacks the symbol"
                    )
        for name, fingerprint in sorted(self._fingerprints.items()):
            for symbol in set(fingerprint.symbols):
                if name not in self._containing.get(symbol, set()):
                    problems.append(
                        f"fingerprint {name!r} symbol U+{ord(symbol):04X} "
                        "is missing from the inverted index"
                    )
        return problems

    def get(self, operation: str) -> Fingerprint:
        """Fingerprint by operation name."""
        return self._fingerprints[operation]

    def __contains__(self, operation: str) -> bool:
        return operation in self._fingerprints

    def __len__(self) -> int:
        return len(self._fingerprints)

    def __iter__(self):
        return iter(self._fingerprints.values())

    def operations(self) -> List[str]:
        """All operation names, sorted."""
        return sorted(self._fingerprints)

    def ops_containing(self, symbol: str) -> List[Fingerprint]:
        """GET_POSSIBLE_OFFENDING_OPERATIONS(A) from Algorithm 2.

        Ordering contract: fingerprints are returned **sorted by
        operation name**, never in library insertion order.  Candidate
        ranking ties (``LENGTH_TOLERANCE``) resolve in candidate-list
        order, and the compiled selection index
        (``repro.analysis.compile``) builds its selections sorted by
        operation name — the two paths can only be proven equivalent
        because this order is pinned.  A regression test guards it
        (``tests/core/test_fingerprint.py``).
        """
        names = self._containing.get(symbol, set())
        return [self._fingerprints[name] for name in sorted(names)]

    def postings(self) -> Dict[str, Tuple[str, ...]]:
        """The inverted index as canonical data: symbol → operation
        names, sorted by operation name per symbol, symbols sorted by
        code point.  This is what the library compiler builds its
        selections from and the discriminability lint pass reads."""
        return {
            symbol: tuple(sorted(names))
            for symbol, names in sorted(self._containing.items())
        }

    @property
    def fp_max(self) -> int:
        """Size of the largest fingerprint (drives α)."""
        if not self._fingerprints:
            return 0
        return max(len(fp) for fp in self._fingerprints.values())

    def to_dict(self) -> Dict:
        """JSON-serializable form of the whole library."""
        return {
            "fingerprints": [fp.to_dict() for fp in self._fingerprints.values()]
        }

    @classmethod
    def from_dict(cls, data: Dict, symbols: SymbolTable) -> "FingerprintLibrary":
        """Inverse of :meth:`to_dict`."""
        library = cls(symbols)
        for item in data["fingerprints"]:
            library.add(Fingerprint.from_dict(item))
        return library

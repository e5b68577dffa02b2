"""One harness for every differential oracle.

GRETEL's execution modes (serial, sharded, process-backed, restored
from a checkpoint, pumped) and its fast paths (incremental scoring,
incremental level-shift, indexed selection) are each trusted only
because a ``verify_*`` function replays the same input through a
*reference* half and a *candidate* half and proves the outputs
identical.  The five oracles differ in what they run and in the
signature they compare; how a comparison is recorded, rendered,
serialized and turned into a failure is the same everywhere, and
lives here:

* :class:`OracleResult` — the one outcome type (``layer`` names the
  oracle, ``facts`` holds its counts, ``missing`` / ``extra`` the
  multiset divergences, ``mismatches`` the pairwise and counter ones);
* :func:`diff_multisets` / :func:`diff_counters` — the two
  comparisons every oracle is built from;
* :func:`settle` — the one place a divergence becomes an
  :class:`OracleDivergence`.

Stdlib only: nothing here imports ``repro``, so any layer — and the
chaos harness on top of them — can depend on it without a cycle.  The
oracle table is in ``docs/architecture.md``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple,
)

#: layer -> what its two halves are two implementations of (the noun
#: that ends the summary headline: "indexed vs full-scan selection").
LAYERS: Dict[str, str] = {
    "shards": "analysis",
    "detection": "scoring",
    "levelshift": "level-shift detection",
    "selection": "selection",
    "service": "service",
}

#: Divergences rendered per list before the "... N more" line.
DETAIL_LIMIT = 5


def diff_multisets(
    expected: Iterable[Any], actual: Iterable[Any]
) -> Tuple[List[Any], List[Any]]:
    """``(missing, extra)`` between two multisets of signatures.

    ``missing`` holds what ``expected`` has and ``actual`` lacks,
    ``extra`` the reverse — both sorted, both with multiplicity: a
    signature expected twice and seen once is missing once.
    """
    want, have = Counter(expected), Counter(actual)
    return (
        sorted((want - have).elements()),
        sorted((have - want).elements()),
    )


def diff_counters(
    expected: Mapping[str, Any],
    actual: Mapping[str, Any],
    scope: str = "",
) -> List[str]:
    """One mismatch line per counter the two halves disagree on.

    ``scope`` labels whose counters these are (a tenant id); a counter
    present on one side only is reported against ``None``.
    """
    where = f"[{scope}] " if scope else ""
    return [
        f"counter: {where}{name} reference={expected.get(name)!r} "
        f"candidate={actual.get(name)!r}"
        for name in sorted(set(expected) | set(actual))
        if expected.get(name) != actual.get(name)
    ]


def _signature_line(signature: Any) -> str:
    """Render a report signature ``(kind, seq, operations, θ, causes)``
    — optionally followed by a scope label such as the tenant — as an
    operator reads it; any other shape prints as its ``repr``."""
    try:
        kind, seq, operations, theta, _causes, *scope = signature
        ops = ",".join(operations) or "<none>"
        where = f"[{scope[0]}] " if scope else ""
        return (
            f"{where}{kind} fault seq={seq} ops=[{ops}] "
            f"theta={theta:.4f}"
        )
    except (TypeError, ValueError):
        return repr(signature)


def _detail(
    label: str, items: Sequence[Any], render: Callable[[Any], str] = str
) -> List[str]:
    """The first :data:`DETAIL_LIMIT` items rendered one per line,
    then how many were cut (only what is shown is rendered)."""
    prefix = f"{label}: " if label else ""
    shown = [f"  {prefix}{render(item)}" for item in items[:DETAIL_LIMIT]]
    if len(items) > DETAIL_LIMIT:
        cut = f"{len(items) - DETAIL_LIMIT} more {label}".rstrip()
        shown.append(f"  ... {cut}")
    return shown


def _plain(value: Any) -> Any:
    """``value`` with every tuple turned into a list (JSON-stable)."""
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {name: _plain(item) for name, item in value.items()}
    return value


@dataclass
class OracleResult:
    """Outcome of one reference-vs-candidate differential replay."""

    #: Which oracle produced this (a key of :data:`LAYERS`).
    layer: str
    #: Name of the trusted half ("serial", "full-scan", "sync", ...).
    reference: str
    #: Name of the half under test ("4-shard process", "indexed", ...).
    candidate: str
    #: The oracle's counts in display order (events, reports per
    #: half, snapshots, series/samples/alarms, cuts, tenants, ...).
    facts: Dict[str, Any] = field(default_factory=dict)
    #: Signatures the reference produced and the candidate did not.
    missing: List[Any] = field(default_factory=list)
    #: Signatures the candidate produced and the reference did not.
    extra: List[Any] = field(default_factory=list)
    #: One line per pairwise or counter divergence.
    mismatches: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.layer not in LAYERS:
            raise ValueError(
                f"unknown oracle layer {self.layer!r}; "
                f"choose from {sorted(LAYERS)}"
            )

    @property
    def ok(self) -> bool:
        """Whether the two halves were indistinguishable."""
        return not (self.missing or self.extra or self.mismatches)

    def summary(self) -> str:
        """One operator-facing line (plus divergence details if any)."""
        verdict = "EQUIVALENT" if self.ok else "DIVERGED"
        facts = ", ".join(
            f"{name}={value}" for name, value in self.facts.items()
        )
        lines = [
            f"{verdict}: {self.candidate} vs {self.reference} "
            f"{LAYERS[self.layer]} on {facts} — "
            f"{len(self.missing)} missing, {len(self.extra)} extra, "
            f"{len(self.mismatches)} mismatches"
        ]
        lines += _detail("missing", self.missing, _signature_line)
        lines += _detail("extra", self.extra, _signature_line)
        lines += _detail("", self.mismatches)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering; the key set is the same for every
        layer, so one consumer reads all five oracles."""
        return {
            "layer": self.layer,
            "ok": self.ok,
            "reference": self.reference,
            "candidate": self.candidate,
            "facts": _plain(self.facts),
            "missing": _plain(self.missing),
            "extra": _plain(self.extra),
            "mismatches": list(self.mismatches),
            "summary": self.summary(),
        }

    def merge(self, other: "OracleResult") -> None:
        """Fold another replay of the same layer into this aggregate:
        facts add up key by key, divergence lists concatenate."""
        if other.layer != self.layer:
            raise ValueError(
                f"cannot merge a {other.layer!r} result into a "
                f"{self.layer!r} one"
            )
        for name, value in other.facts.items():
            self.facts[name] = (
                self.facts[name] + value if name in self.facts else value
            )
        self.missing.extend(other.missing)
        self.extra.extend(other.extra)
        self.mismatches.extend(other.mismatches)


class OracleDivergence(AssertionError):
    """A candidate half diverged from its reference half.

    The message is the result's summary; the structured outcome is on
    :attr:`result` (``result.layer`` says which oracle tripped).
    """

    def __init__(self, result: OracleResult) -> None:
        super().__init__(result.summary())
        self.result = result


def settle(result: OracleResult, strict: bool) -> OracleResult:
    """Every ``verify_*`` ends here: with ``strict`` a divergence
    raises :class:`OracleDivergence`, otherwise the caller inspects
    :attr:`OracleResult.ok`."""
    if strict and not result.ok:
        raise OracleDivergence(result)
    return result

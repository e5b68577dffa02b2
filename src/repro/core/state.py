"""The uniform state-lifecycle protocol behind checkpoint/restore.

Every stateful layer of the analysis chain — the sliding window, the
level-shift detectors, the latency tracker, the operation detector and
the analyzer that owns them — exposes the same two methods:

``snapshot_state() -> dict``
    A *pure-JSON* rendering (dicts, lists, strings, numbers, bools,
    ``None``) of everything the layer needs to resume mid-stream.
    Every state dict carries a ``fmt`` tag of the shape
    ``"<layer>/v<N>"`` so persisted checkpoints are versioned.

``restore_state(state) -> None``
    Rehydrates a *freshly constructed, identically configured*
    instance from such a dict.  Restoration is **bit-identical**: an
    analyzer frozen mid-stream and rehydrated produces exactly the
    reports, alarms and perf counters the uninterrupted run would —
    ``repro.service.oracle.verify_checkpoint`` is the differential
    proof.

Events inside a state dict are positional rows
(:meth:`repro.openstack.wire.WireEvent.to_row`), not keyed dicts: a
checkpoint is mostly events, and spelling 24 field names per event
doubled both its size and its encode time.  Every dict that holds
rows names their ``columns`` once and :func:`require_columns`
refuses any other order.

Two deliberate exclusions keep checkpoints small and the protocol
honest:

* **Collaborators are not state.**  The fingerprint library, symbol
  table, API catalog, metadata store and config are construction-time
  inputs, re-provided when the fresh instance is built; the pipeline
  state embeds a config fingerprint purely as a mismatch guard.
* **Published reports are not state.**  Reports were already delivered
  to downstream listeners when emitted; a checkpoint captures only the
  in-flight stream position.  (This is also what lets a long-lived
  service session keep bounded memory — see ``docs/service.md``.)

:func:`require_state` is the shared format/version check: a foreign
layer name or any version but the layer's current one raises
:class:`StateFormatError`.  No layer migrates an older document or
guesses at a newer one, so the gate admits only what can be read.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

__all__ = [
    "Checkpointable",
    "StateError",
    "StateFormatError",
    "decode_ts",
    "encode_ts",
    "parse_fmt",
    "require_columns",
    "require_state",
]

_NEG_INF = float("-inf")


class StateError(ValueError):
    """A state dict cannot be restored into this instance.

    Raised for structural problems *other* than the fmt tag: parameter
    mismatches (restoring a window-24 detector state into a window-48
    detector), wrong collaborator shapes, corrupted payloads.
    """


class StateFormatError(StateError):
    """The ``fmt`` tag is missing, malformed, foreign, or not the
    layer's current version."""


class Checkpointable(Protocol):
    """Structural type of every layer speaking the state protocol."""

    def snapshot_state(self) -> Dict[str, Any]:
        """A versioned, JSON-serializable rendering of live state."""
        ...

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rehydrate a fresh, identically configured instance."""
        ...


def parse_fmt(tag: object) -> Tuple[str, int]:
    """Split a ``"<layer>/v<N>"`` tag into ``(layer, version)``."""
    if not isinstance(tag, str) or "/v" not in tag:
        raise StateFormatError(f"malformed state fmt tag: {tag!r}")
    layer, _, version = tag.rpartition("/v")
    if not layer or not version.isdigit():
        raise StateFormatError(f"malformed state fmt tag: {tag!r}")
    return layer, int(version)


def require_state(state: Mapping[str, Any], expected: str) -> None:
    """Check a state dict's ``fmt`` against ``expected``.

    ``expected`` is the layer's *current* tag (e.g.
    ``"sliding-window/v3"``).  Layer name and version must both
    match exactly: no layer reads any version but its current one.
    """
    if not isinstance(state, Mapping):
        raise StateFormatError(
            f"state must be a mapping, got {type(state).__name__}"
        )
    tag = state.get("fmt")
    if tag is None:
        raise StateFormatError(f"state dict has no fmt tag: {expected}")
    layer, version = parse_fmt(tag)
    want_layer, want_version = parse_fmt(expected)
    if layer != want_layer:
        raise StateFormatError(
            f"state fmt {tag!r} is not a {want_layer!r} state"
        )
    if version > want_version:
        raise StateFormatError(
            f"state fmt {tag!r} is newer than supported {expected!r}"
        )
    if version < want_version:
        raise StateFormatError(
            f"state fmt {tag!r} is older than {expected!r}, the only "
            f"version this build restores"
        )


def require_columns(
    state: Mapping[str, Any], expected: Sequence[str]
) -> None:
    """Check the ``columns`` a row-holding state dict names.

    A document written under another column order cannot be read
    position by position, so it is refused before a row is decoded.
    """
    columns = state.get("columns")
    if columns != list(expected):
        raise StateError(
            f"{state.get('fmt')} state has event columns {columns!r}, "
            f"this build reads {list(expected)!r}"
        )


def encode_ts(value: float) -> Optional[float]:
    """JSON-safe encoding of a timestamp that may be ``-inf``.

    Cooldown deadlines initialize to ``-inf`` ("never on cooldown"),
    which strict JSON cannot carry; ``None`` stands in for it.
    """
    return None if value == _NEG_INF else value


def decode_ts(value: Optional[float]) -> float:
    """Inverse of :func:`encode_ts`."""
    return _NEG_INF if value is None else float(value)

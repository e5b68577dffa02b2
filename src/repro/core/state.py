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

Two payloads fill a checkpoint, and each has one encoding:

* **Float sequences are packed** (:func:`pack_floats`): little-endian
  IEEE-754 float64 bytes, then base64.  Writing a double through
  ``repr`` costs a shortest-round-trip ``dtoa`` (~1 µs) and ~18
  characters; packed, it is an 8-byte copy and 10.7 base64
  characters, and round-trips bit-exactly (NaN payloads and −0.0
  too).  No JSON list in a state document holds a float.
* **Events are one column block** (:func:`encode_events`): the block
  names its ``columns`` once, then holds one list per
  :data:`~repro.openstack.wire.ROW_FIELDS` field, the two timestamp
  columns packed.  A checkpoint is mostly events; spelling 24 field
  names per event doubled its size, and a row per event still sent
  two timestamps per event through ``repr``.
  :func:`decode_events` refuses any other column order.

A payload that does not decode — text that is not base64, a byte
count that is not a multiple of 8, columns of unequal length, a
float column written as a JSON list — raises :class:`StateError`
naming where it sat, and leaves the instance as it was: each layer
decodes before it installs, and the analyzer, whose components
restore in place, puts them back.

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

import binascii
import struct
from base64 import b64decode
from functools import lru_cache
from operator import attrgetter
from typing import (
    Any,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
)

from repro.openstack.apis import ApiKind
from repro.openstack.wire import ROW_FIELDS, WireEvent

__all__ = [
    "Checkpointable",
    "StateError",
    "StateFormatError",
    "decode_events",
    "decode_ts",
    "encode_events",
    "encode_ts",
    "pack_floats",
    "parse_fmt",
    "require_state",
    "unpack_floats",
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


def encode_ts(value: float) -> Optional[float]:
    """JSON-safe encoding of a timestamp that may be ``-inf``.

    Cooldown deadlines initialize to ``-inf`` ("never on cooldown"),
    which strict JSON cannot carry; ``None`` stands in for it.
    """
    return None if value == _NEG_INF else value


def decode_ts(value: Optional[float]) -> float:
    """Inverse of :func:`encode_ts`."""
    return _NEG_INF if value is None else float(value)


def pack_floats(values: Collection[float]) -> str:
    """Little-endian float64 bytes of ``values``, base64-encoded.

    The inverse, :func:`unpack_floats`, is bit-exact: NaN payloads,
    −0.0, the infinities and subnormals all survive.
    """
    if not values:
        return ""
    packed = _float64s(len(values)).pack(*values)
    return binascii.b2a_base64(packed, newline=False).decode("ascii")


@lru_cache(maxsize=64)
def _float64s(count: int) -> struct.Struct:
    """The compiled codec of ``count`` doubles: a checkpoint packs
    hundreds of baselines of one length."""
    return struct.Struct(f"<{count}d")


def unpack_floats(text: object, where: str = "floats") -> List[float]:
    """Inverse of :func:`pack_floats`.

    Anything but the text :func:`pack_floats` writes raises
    :class:`StateError` naming ``where`` (the layer and field the text
    sat in).
    """
    if not isinstance(text, str):
        raise StateError(
            f"{where}: expected packed float64 text, got "
            f"{type(text).__name__}"
        )
    if not text:
        return []
    try:
        packed = b64decode(text, validate=True)
    except ValueError as error:  # binascii.Error, or non-ASCII text
        raise StateError(f"{where}: not base64 text ({error})") from error
    if len(packed) % 8:
        raise StateError(
            f"{where}: {len(packed)} bytes is not a whole number of "
            f"float64 values"
        )
    return list(_float64s(len(packed) // 8).unpack(packed))


#: The columns :func:`encode_events` packs with :func:`pack_floats`.
_PACKED = ("ts_request", "ts_response")
_KIND = ROW_FIELDS.index("kind")
#: Columns of tuples, which JSON writes (and reads back) as lists.
_TUPLES = tuple(
    ROW_FIELDS.index(name) for name in ("conn", "resource_ids")
)
#: ``(WireEvent, values)``, the values in :data:`ROW_FIELDS` order:
#: one generated function of slot reads, twice as fast as an
#: ``attrgetter`` of the 24 names.
_reduce = WireEvent.__reduce__
#: An enum's ``name`` is a descriptor call in Python and its hash a
#: Python method; ``_name_`` is a plain attribute read.
_kind_name = attrgetter("_name_")


def encode_events(events: Iterable[WireEvent]) -> Dict[str, Any]:
    """Events as one self-describing column block.

    The block names its ``columns``, then holds one list per
    :data:`~repro.openstack.wire.ROW_FIELDS` field under that field's
    name: ``kind`` by enum name, ``ts_request`` / ``ts_response``
    packed, the rest as they are (tuples, which JSON writes as lists).
    The columns are the transpose of each event's pickled values
    (``WireEvent.__reduce__``); no per-event list is built.
    """
    columns: List[Any] = list(zip(*[_reduce(event)[1] for event in events]))
    if not columns:
        columns = [()] * len(ROW_FIELDS)
    columns[_KIND] = list(map(_kind_name, columns[_KIND]))
    block: Dict[str, Any] = {"columns": list(ROW_FIELDS)}
    for name, column in zip(ROW_FIELDS, columns):
        block[name] = pack_floats(column) if name in _PACKED else column
    return block


def decode_events(
    block: object, where: str = "events"
) -> List[WireEvent]:
    """Inverse of :func:`encode_events`, bit-identical fields.

    A block under other ``columns``, with a column missing or of
    another length, or with a value no event field takes, raises
    :class:`StateError` naming ``where``.
    """
    if not isinstance(block, Mapping):
        raise StateError(
            f"{where}: expected an event column block, got "
            f"{type(block).__name__}"
        )
    if block.get("columns") != list(ROW_FIELDS):
        raise StateError(
            f"{where}: event columns {block.get('columns')!r}, this "
            f"build reads {list(ROW_FIELDS)!r}"
        )
    columns: List[Any] = []
    for name in ROW_FIELDS:
        column = block.get(name)
        if name in _PACKED:
            column = unpack_floats(column, f"{where}.{name}")
        elif not isinstance(column, (list, tuple)):
            raise StateError(f"{where}.{name}: expected a JSON list")
        columns.append(column)
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise StateError(
            f"{where}: columns of unequal length "
            + ", ".join(
                f"{name}={len(column)}"
                for name, column in zip(ROW_FIELDS, columns)
            )
        )
    try:
        columns[_KIND] = [ApiKind[name] for name in columns[_KIND]]
        for index in _TUPLES:
            columns[index] = [tuple(value) for value in columns[index]]
    except (KeyError, TypeError) as error:
        raise StateError(
            f"{where}: undecodable column ({error!r})"
        ) from error
    return list(map(WireEvent, *columns))

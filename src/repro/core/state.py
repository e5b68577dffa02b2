"""The state-lifecycle protocol behind checkpoint/restore.

Every stateful layer of the analysis chain — the sliding window, the
level-shift detectors, the latency tracker, the operation detector and
the analyzer that owns them — exposes the same two methods:

``snapshot_state() -> dict``
    A *pure-JSON* rendering (dicts, lists, strings, numbers, bools,
    ``None``) of everything the layer needs to resume mid-stream.

``restore_state(state) -> None``
    Rehydrates a *freshly constructed, identically configured*
    instance from such a dict.  Restoration is **bit-identical**: an
    analyzer frozen mid-stream and rehydrated produces exactly the
    reports, alarms and perf counters the uninterrupted run would —
    ``repro.service.oracle.verify_checkpoint`` is the differential
    proof.

A checkpoint carries two ``fmt`` tags, each checked once by
:func:`require_state` at the root its module owns:
``gretel-checkpoint/vN`` covers the
:class:`~repro.service.checkpoint.CheckpointStore` envelope and the
session document inside it, ``analyzer-state/vN`` the
:class:`~repro.core.analyzer.GretelAnalyzer` document and every layer
below it, which write plain dicts.  A change to any shape under a tag
bumps it; any other version is refused, never migrated.

Layers read fields with :func:`read_key` and children with
:func:`decode_key` or :func:`under`, so a missing key, a value of
another type or a payload that does not decode is a
:class:`StateError` naming its key path from the root down
(``analyzer.latency.detectors['…'].baseline.values: …``).  Each layer
reads every field before it installs any.

Float sequences are packed (:func:`pack_floats`: float64 bytes, then
base64, bit-exact, never through ``repr``), so no JSON list in a state
document holds a float; a sequence of events is one column block
(:func:`encode_events`), the two timestamp columns packed.
Collaborators (library, symbols, catalog, store, config) and published
reports are not state (``docs/service.md``).
"""

from __future__ import annotations

import binascii
import struct
from base64 import b64decode
from functools import lru_cache
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.openstack.apis import ApiKind
from repro.openstack.wire import ROW_FIELDS, WireEvent

__all__ = [
    "StateError",
    "StateFormatError",
    "decode_events",
    "decode_key",
    "decode_ts",
    "encode_events",
    "encode_ts",
    "pack_floats",
    "parse_fmt",
    "read_key",
    "require_state",
    "under",
    "unpack_floats",
]

_NEG_INF = float("-inf")
_MISSING = object()


class StateError(ValueError):
    """A state dict cannot be restored into this instance.

    Raised for structural problems *other* than the fmt tag: parameter
    mismatches (restoring an α-8 window state into an α-10 window),
    missing keys, values of another type, corrupted payloads.
    ``path`` is the key path of the refused value below the document
    being restored (``""`` for the document itself); :func:`under`
    prefixes it as the error leaves each owner.
    """

    def __init__(self, reason: str, path: str = "") -> None:
        super().__init__(reason)
        self.reason = reason
        self.path = path

    def __str__(self) -> str:
        return f"{self.path}: {self.reason}" if self.path else self.reason


class StateFormatError(StateError):
    """The ``fmt`` tag is missing, malformed, foreign, or not the
    owner's current version."""


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

    ``expected`` is the owner's *current* tag (e.g.
    ``"analyzer-state/v1"``).  Owner name and version must both
    match exactly: no owner reads any version but its current one.
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


class _Under:
    """The context manager :func:`under` returns; a class rather than a
    generator, as it runs once per latency series on every restore."""

    __slots__ = ("key",)

    def __init__(self, key: str) -> None:
        self.key = key

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind: Any, error: Any, traceback: Any) -> None:
        if isinstance(error, StateError):
            path = error.path
            error.path = f"{self.key}.{path}" if path else self.key


def under(key: str) -> _Under:
    """Prefix the path of a :class:`StateError` raised in the block
    with ``key``, the key the block's document sits under
    (``"window"``, ``"deferred[3]"``)."""
    return _Under(key)


def read_key(
    state: object, key: str, kind: Union[type, Tuple[type, ...]]
) -> Any:
    """``state[key]``, checked to be a ``kind``.

    A ``state`` that is not a JSON object, a missing ``key`` or a
    value of another type (a ``bool`` is no ``int`` here) raises
    :class:`StateError` naming ``key``.
    """
    if not isinstance(state, dict):
        raise StateError(f"expected an object, got {type(state).__name__}")
    value = state.get(key, _MISSING)
    if value is _MISSING:
        raise StateError("missing", key)
    if isinstance(value, kind) and not (kind is int and type(value) is bool):
        return value
    kinds = kind if isinstance(kind, tuple) else (kind,)
    names = " or ".join(each.__name__ for each in kinds)
    raise StateError(f"expected {names}, got {type(value).__name__}", key)


def decode_key(state: object, key: str, decode: Callable[[Any], Any]) -> Any:
    """``decode(state[key])``, a refusal of either step naming ``key``:
    ``decode_key(state, "events", decode_events)``, or a child's
    ``restore_state``."""
    value = read_key(state, key, object)
    with under(key):
        return decode(value)


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


def unpack_floats(text: object) -> List[float]:
    """Inverse of :func:`pack_floats`.

    Anything but the text :func:`pack_floats` writes raises
    :class:`StateError`; the caller names the key it sat under
    (:func:`under`).
    """
    if not isinstance(text, str):
        raise StateError(
            f"expected packed float64 text, got {type(text).__name__}"
        )
    if not text:
        return []
    try:
        packed = b64decode(text, validate=True)
    except ValueError as error:  # binascii.Error, or non-ASCII text
        raise StateError(f"not base64 text ({error})") from error
    if len(packed) % 8:
        raise StateError(
            f"{len(packed)} bytes is not a whole number of float64 values"
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


def decode_events(block: object) -> List[WireEvent]:
    """Inverse of :func:`encode_events`, bit-identical fields.

    A block under other ``columns``, with a column missing or of
    another length, or with a value no event field takes, raises
    :class:`StateError`; the caller names the key it sat under
    (:func:`under`).
    """
    named = read_key(block, "columns", list)
    if named != list(ROW_FIELDS):
        raise StateError(
            f"{named!r}, this build reads {list(ROW_FIELDS)!r}", "columns"
        )
    columns: List[Any] = [
        decode_key(block, name, unpack_floats) if name in _PACKED
        else read_key(block, name, (list, tuple))
        for name in ROW_FIELDS
    ]
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise StateError(
            "columns of unequal length "
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
        raise StateError(f"undecodable column ({error!r})") from error
    return list(map(WireEvent, *columns))

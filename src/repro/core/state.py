"""The state-lifecycle protocol behind checkpoint/restore.

Every stateful layer of the analysis chain — the sliding window, the
level-shift detectors, the latency tracker, the operation detector and
the analyzer that owns them — exposes the same two methods:

``snapshot_state() -> dict``
    A *pure-JSON* rendering (dicts, lists, strings, numbers, bools,
    ``None``) of everything the layer needs to resume mid-stream, each
    fact once, and of nothing else: no wall clock, so two layers fed
    the same events write equal documents.

``restore_state(state) -> None``
    Rehydrates a *freshly constructed, identically configured*
    instance from such a dict.  Restoration is **bit-identical**: an
    analyzer frozen mid-stream and rehydrated produces exactly the
    reports, alarms and perf counters the uninterrupted run would —
    ``repro.service.oracle.verify_service`` is the differential
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
(``analyzer.window.events.api_key: 63 values for 64 rows``, or for
one level-shift series
``analyzer.latency.detectors['…'].baseline_sizes: …``).  Each layer
reads every field before it installs any.

Float sequences are packed (:func:`pack_floats`: float64 bytes, then
base64, bit-exact, never through ``repr``), so no JSON list in a state
document holds a float.  Sequences are written as column blocks,
one JSON scalar per column where the values allow: a sequence of
events is one block (:func:`encode_events`: strings joined by
:data:`SEPARATOR`, ints packed int64, timestamps packed float64), and
the latency tracker writes its level-shift series as one block of
per-series sizes, packed floats and int lists
(``analyzer.latency.detectors``), not a document per series.
Collaborators (library, symbols, catalog, store, config) and published
reports are not state (``docs/service.md``).
"""

from __future__ import annotations

import binascii
import struct
from base64 import b64decode
from functools import lru_cache
from itertools import chain
from operator import attrgetter, itemgetter
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple,
    Union,
)

from repro.openstack.apis import ApiKind
from repro.openstack.wire import ROW_FIELDS, WireEvent

__all__ = [
    "SEPARATOR",
    "StateError",
    "StateFormatError",
    "decode_events",
    "decode_key",
    "encode_events",
    "pack_floats",
    "parse_fmt",
    "read_key",
    "require_state",
    "under",
    "unpack_floats",
]

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
    ``"analyzer-state/v5"``).  Owner name and version must both
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
    (``"window"``, ``"parts[3]"``)."""
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


def pack_floats(values: Collection[float]) -> str:
    """Little-endian float64 bytes of ``values``, base64-encoded.

    The inverse, :func:`unpack_floats`, is bit-exact: NaN payloads,
    −0.0, the infinities and subnormals all survive.
    """
    return _pack("d", values)


def unpack_floats(text: object) -> List[float]:
    """Inverse of :func:`pack_floats`.

    Anything but the text :func:`pack_floats` writes raises
    :class:`StateError`; the caller names the key it sat under
    (:func:`under`).
    """
    return _unpack("d", text)


def _pack(code: str, values: Collection[Any]) -> str:
    """``values`` as little-endian 8-byte ``code`` items, base64."""
    if not values:
        return ""
    packed = _codec(code, len(values)).pack(*values)
    return binascii.b2a_base64(packed, newline=False).decode("ascii")


@lru_cache(maxsize=64)
def _codec(code: str, count: int) -> struct.Struct:
    """The compiled codec of ``count`` items: a checkpoint packs
    columns of one length, and hundreds of baselines of another."""
    return struct.Struct(f"<{count}{code}")


_ITEM_NAMES = {"d": "float64", "q": "int64"}


def _unpack(code: str, text: object) -> List[Any]:
    """Inverse of :func:`_pack`; anything else is a :class:`StateError`."""
    name = _ITEM_NAMES[code]
    if not isinstance(text, str):
        raise StateError(
            f"expected packed {name} text, got {type(text).__name__}"
        )
    if not text:
        return []
    try:
        packed = b64decode(text, validate=True)
    except ValueError as error:  # binascii.Error, or non-ASCII text
        raise StateError(f"not base64 text ({error})") from error
    if len(packed) % 8:
        raise StateError(
            f"{len(packed)} bytes is not a whole number of {name} values"
        )
    return list(_codec(code, len(packed) // 8).unpack(packed))


# ---------------------------------------------------------------------------
# Event column blocks
# ---------------------------------------------------------------------------

#: Joins a string column into one JSON string.  Printable ASCII other
#: than ``"`` and ``\``, so the C encoder copies it as is; no string
#: value of the 171,016 events of the scenario catalog's captures and
#: a 20,000-event synthetic stream contains it.  A column where one
#: does is written as a list instead.
SEPARATOR = "|"

#: The enum members of the ``kind`` column, one digit each, by name.
_KINDS = {kind.name: str(code) for code, kind in enumerate(ApiKind)}
_KIND_OF = {str(code): kind for code, kind in enumerate(ApiKind)}
_FLAGS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_FLAG_OF = {"0": False, "1": True}
#: ``(WireEvent, values)``, the values in :data:`ROW_FIELDS` order:
#: one generated function of slot reads, twice as fast as an
#: ``attrgetter`` of the 24 names.
_reduce = WireEvent.__reduce__
_values = itemgetter(1)
#: An enum's ``name`` is a descriptor call in Python and its hash a
#: Python method; ``_name_`` is a plain attribute read.
_kind_name = attrgetter("_name_")


def _join_strings(column: Collection[Any]) -> Union[str, List[Any]]:
    """A string column as one string, or as a list when a value is no
    string or holds the :data:`SEPARATOR`."""
    try:
        text = SEPARATOR.join(column)
    except TypeError:
        return list(column)
    if text.count(SEPARATOR) != max(len(column) - 1, 0):
        return list(column)
    return text


def _split_strings(value: object, rows: int) -> List[Any]:
    """Inverse of :func:`_join_strings`."""
    if isinstance(value, list):
        return value
    if not isinstance(value, str):
        raise StateError(
            f"expected joined text or a list, got {type(value).__name__}"
        )
    return value.split(SEPARATOR) if rows else _empty(value)


def _pack_ints(column: Collection[Any]) -> Union[str, List[Any]]:
    """An int column packed as int64, or as a list when a value is no
    int or lies beyond int64."""
    try:
        return _pack("q", column)
    except struct.error:
        return list(column)


def _unpack_ints(value: object, rows: int) -> List[Any]:
    """Inverse of :func:`_pack_ints`."""
    return value if isinstance(value, list) else _unpack("q", value)


def _encode_kinds(column: Collection[Any]) -> str:
    return "".join(map(_KINDS.__getitem__, map(_kind_name, column)))


def _decode_kinds(value: object, rows: int) -> List[Any]:
    return _lookup(_KIND_OF, value, "kind codes")


def _encode_flags(column: Collection[Any]) -> Union[str, List[Any]]:
    """A bool column as one string of ``0`` and ``1``."""
    if set(map(type, column)) <= {bool}:
        return bytes(column).translate(_FLAGS).decode("ascii")
    return list(column)


def _decode_flags(value: object, rows: int) -> List[Any]:
    return value if isinstance(value, list) else _lookup(
        _FLAG_OF, value, "0/1 flags"
    )


def _lookup(table: Mapping[str, Any], value: object,
            what: str) -> List[Any]:
    """One ``table`` entry per character of ``value``."""
    if not isinstance(value, str):
        raise StateError(f"expected {what}, got {type(value).__name__}")
    try:
        return list(map(table.__getitem__, value))
    except KeyError as error:
        raise StateError(f"{error.args[0]!r} is none of {what}") from None


def _empty(text: str) -> List[Any]:
    if text:
        raise StateError(f"{len(text)} characters for 0 rows")
    return []


def _encode_part(part: Sequence[Any]) -> Tuple[str, Any]:
    """One part of a flattened tuple column and its kind: joined
    strings (``s``) or int64 (``q``), as its first value's type says,
    or a list (``l``) when the part cannot be written so."""
    kind, value = (
        ("s", _join_strings(part)) if type(part[0]) is str
        else ("q", _pack_ints(part))
    )
    return ("l", value) if isinstance(value, list) else (kind, value)


def _decode_part(kind: str, value: object, rows: int) -> List[Any]:
    """Inverse of :func:`_encode_part`."""
    if kind == "s":
        return _split_strings(value, rows)
    if kind == "q":
        return _unpack_ints(value, rows)
    if kind == "l" and isinstance(value, list):
        return value
    raise StateError(f"not a part of kind {kind!r}")


def _encode_tuples(column: Collection[Any]) -> Dict[str, Any]:
    """A column of tuples, flattened position by position.

    ``lengths`` is one digit per row (a list when a tuple is longer
    than 9); ``parts[i]`` holds the ``i``-th value of every row that
    has one, encoded as :func:`_encode_part` chose, and ``kinds[i]``
    names that choice.
    """
    lengths = list(map(len, column))
    width = max(lengths, default=0)
    if lengths.count(width) == len(lengths):
        # One width: the flat values, every ``width``-th one a part.
        flat = list(chain.from_iterable(column))
        parts: List[Any] = [flat[index::width] for index in range(width)]
    else:
        parts = [
            [row[index] for row in column if len(row) > index]
            for index in range(width)
        ]
    kinds, encoded = zip(*map(_encode_part, parts)) if parts else ((), ())
    return {
        "lengths": (
            bytes(lengths).translate(_DIGITS).decode("ascii")
            if width < 10 else lengths
        ),
        "kinds": "".join(kinds),
        "parts": list(encoded),
    }


def _decode_tuples(value: object, rows: int) -> List[Any]:
    """Inverse of :func:`_encode_tuples`."""
    lengths = read_key(value, "lengths", (str, list))
    if isinstance(lengths, str):
        if not lengths.isdigit() and lengths:
            raise StateError("expected one digit per row", "lengths")
        lengths = list(map(int, lengths))
    elif not all(type(length) is int and length >= 0
                 for length in lengths):
        raise StateError("expected a list of lengths", "lengths")
    if len(lengths) != rows:
        raise StateError(f"{len(lengths)} lengths for {rows} rows",
                         "lengths")
    kinds = read_key(value, "kinds", str)
    parts = read_key(value, "parts", list)
    width = max(lengths, default=0)
    if len(kinds) != width or len(parts) != width:
        raise StateError(
            f"{len(kinds)} kinds and {len(parts)} parts for tuples of "
            f"up to {width} values", "parts",
        )
    uniform = len(set(lengths)) <= 1
    decoded = []
    for index, (kind, part) in enumerate(zip(kinds, parts)):
        present = rows if uniform else sum(
            1 for length in lengths if length > index
        )
        with under(f"parts[{index}]"):
            values = _decode_part(kind, part, present)
            if len(values) != present:
                raise StateError(
                    f"{len(values)} values for {present} rows"
                )
        decoded.append(values)
    if uniform:
        return list(zip(*decoded)) if width else [()] * rows
    iterators = [iter(values) for values in decoded]
    return [
        tuple(next(part) for part in iterators[:length])
        for length in lengths
    ]


def _floats(value: object, rows: int) -> List[float]:
    return unpack_floats(value)


_STRINGS = (_join_strings, _split_strings)
_INTS = (_pack_ints, _unpack_ints)
_TUPLES = (_encode_tuples, _decode_tuples)
#: Each :data:`ROW_FIELDS` column's ``(encode, decode)``; ``decode``
#: takes the encoded value and the block's row count.
_COLUMN_CODECS: Dict[str, Tuple[Callable[..., Any], Callable[..., Any]]] = {
    "seq": _INTS,
    "kind": (_encode_kinds, _decode_kinds),
    "ts_request": (pack_floats, _floats),
    "ts_response": (pack_floats, _floats),
    "status": _INTS,
    "conn": _TUPLES,
    "size_bytes": _INTS,
    "noise": (_encode_flags, _decode_flags),
    "resource_ids": _TUPLES,
}
_CODECS = [_COLUMN_CODECS.get(name, _STRINGS) for name in ROW_FIELDS]


def encode_events(events: Iterable[WireEvent]) -> Dict[str, Any]:
    """Events as one self-describing column block.

    The block names its ``columns`` and its number of ``rows``, then
    holds one JSON scalar per :data:`~repro.openstack.wire.ROW_FIELDS`
    field under that field's name: string columns joined by
    :data:`SEPARATOR`, int columns and the two timestamp columns
    packed (int64, float64), ``kind`` one digit per row and ``noise``
    one ``0``/``1`` per row.  A string or int column that cannot be
    written so (a value holds the separator, an int lies beyond int64)
    is a list instead.  ``conn`` and ``resource_ids`` are flattened
    (:func:`_encode_tuples`).  The columns are the transpose of each
    event's pickled values (``WireEvent.__reduce__``); no per-event
    list is built.
    """
    rows = list(map(_values, map(_reduce, events)))
    columns: List[Any] = list(zip(*rows)) or [()] * len(ROW_FIELDS)
    block: Dict[str, Any] = {"columns": list(ROW_FIELDS), "rows": len(rows)}
    for name, (encode, _), column in zip(ROW_FIELDS, _CODECS, columns):
        block[name] = encode(column)
    return block


def decode_events(block: object) -> List[WireEvent]:
    """Inverse of :func:`encode_events`, bit-identical fields.

    A block under other ``columns``, with a column missing, of another
    length than ``rows`` or that does not decode, raises
    :class:`StateError` naming the column; the caller names the key
    the block sat under (:func:`under`).
    """
    named = read_key(block, "columns", list)
    if named != list(ROW_FIELDS):
        raise StateError(
            f"{named!r}, this build reads {list(ROW_FIELDS)!r}", "columns"
        )
    rows = read_key(block, "rows", int)
    columns = []
    for name, (_, decode) in zip(ROW_FIELDS, _CODECS):
        column = decode_key(block, name, lambda value: decode(value, rows))
        if len(column) != rows:
            raise StateError(f"{len(column)} values for {rows} rows", name)
        columns.append(column)
    return list(map(WireEvent, *columns))

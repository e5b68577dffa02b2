"""Wire events: the network observables GRETEL's agents capture.

Every completed REST request/response pair and every RPC exchange in
the simulated deployment produces one :class:`WireEvent`.  The fields
mirror what the paper's Bro taps could extract without parsing JSON
payloads:

* transport metadata (connection 4-tuple for REST, message id for RPC)
  used to pair requests with responses and compute latency,
* request/response headers (method, path, status code),
* a short body fragment, which is what GRETEL's lightweight regular
  expression error scan runs over.

Two extra field groups are payload and ground-truth labels that the
paper's taps would not see without parsing:

* ``request_id`` / ``tenant`` / ``resource_ids`` — payload identifiers
  the HANSEL baseline stitches on.  GRETEL's analysis reads only
  ``request_id``, in the opt-in correlation-id filter
  (``GretelConfig.use_correlation_ids``, off by default); the
  streaming service routes each event to its session by ``tenant``
  (``StreamingService.submit``, ``partition_tenants``),
* ``op_id`` / ``test_id`` — ground-truth labels used only by the
  evaluation harness to score precision.

The record is slotted and frozen.  Its ``__init__`` and ``__reduce__``
are generated from the field list by :func:`_direct_slot_stores`: the
constructor stores each field through its slot descriptor, and a pickle
carries the constructor call with the values in :data:`ROW_FIELDS`
order, the dataclass field order.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Tuple,
    Type,
    TypeVar,
)

from repro.openstack.apis import ApiKind

_C = TypeVar("_C", bound=Type[Any])


def _direct_slot_stores(cls: _C) -> _C:
    """Give a frozen, slotted dataclass a fast ``__init__`` and a
    positional ``__reduce__``, both generated from ``fields(cls)``.

    The ``__init__`` that ``dataclass(frozen=True)`` writes stores
    each field with ``object.__setattr__``; this one calls the field's
    slot descriptor directly.  ``__reduce__`` pickles the record as
    ``(cls, values)`` in field order, which loads faster than the
    slotted ``__getstate__`` path and names no field on the wire.
    """
    specs = fields(cls)
    namespace: Dict[str, Any] = {"_cls": cls}
    params: List[str] = []
    stores: List[str] = []
    for spec in specs:
        name = spec.name
        namespace[f"_set_{name}"] = cls.__dict__[name].__set__
        if spec.default is MISSING:
            params.append(name)
        else:
            namespace[f"_default_{name}"] = spec.default
            params.append(f"{name}=_default_{name}")
        stores.append(f"    _set_{name}(self, {name})\n")
    values = "".join(f"self.{spec.name}, " for spec in specs)
    exec(
        f"def __init__(self, {', '.join(params)}):\n"
        + "".join(stores)
        + f"def __reduce__(self):\n    return _cls, ({values})\n",
        namespace,
    )
    for method in ("__init__", "__reduce__"):
        function = namespace[method]
        function.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, function)
    return cls


@_direct_slot_stores
@dataclass(frozen=True, slots=True)
class WireEvent:
    """One observed request/response exchange."""

    seq: int
    api_key: str
    kind: ApiKind
    method: str
    name: str
    src_service: str
    src_node: str
    src_ip: str
    dst_service: str
    dst_node: str
    dst_ip: str
    ts_request: float
    ts_response: float
    status: int
    body: str = ""
    conn: Tuple[str, int, str, int] = ("", 0, "", 0)
    msg_id: str = ""
    size_bytes: int = 192
    noise: bool = False
    # --- payload identifiers (HANSEL stitching; the correlation-id
    # filter reads request_id, the service routes on tenant) ---
    request_id: str = ""
    tenant: str = ""
    resource_ids: Tuple[str, ...] = ()
    # --- ground truth (evaluation harness only) ---
    op_id: str = ""
    test_id: str = ""

    @property
    def latency(self) -> float:
        """Observed request→response latency in seconds."""
        return self.ts_response - self.ts_request

    @property
    def error(self) -> bool:
        """Whether the exchange carried an error status."""
        return self.status >= 400

    @property
    def is_rest(self) -> bool:
        """True for REST exchanges."""
        return self.kind is ApiKind.REST

    def __str__(self) -> str:
        tag = "REST" if self.is_rest else "RPC "
        return (
            f"[{self.ts_response:10.4f}] {tag} {self.method:6s} "
            f"{self.src_service}->{self.dst_service} {self.name} "
            f"= {self.status}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """The event under its field names, as JSON values: the
        rendering reports print.

        The ``kind`` enum travels by name, the ``conn`` and
        ``resource_ids`` tuples as lists (JSON has no tuples);
        :meth:`from_dict` rebuilds all three.
        """
        data = {name: getattr(self, name) for name in ROW_FIELDS}
        data["kind"] = self.kind.name
        data["conn"] = list(self.conn)
        data["resource_ids"] = list(self.resource_ids)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WireEvent":
        """Inverse of :meth:`to_dict`, bit-identical fields; a field
        the mapping leaves out takes its default."""
        values = {
            name: data[name] if name in data else _DEFAULTS[name]
            for name in ROW_FIELDS
        }
        values["kind"] = ApiKind[values["kind"]]
        values["conn"] = tuple(values["conn"])
        values["resource_ids"] = tuple(values["resource_ids"])
        return cls(**values)


#: The dataclass field order: the constructor's positional order, a
#: pickle's value order and the column order of the column blocks
#: state documents embed (:func:`repro.core.state.encode_events`).
ROW_FIELDS: Tuple[str, ...] = tuple(
    spec.name for spec in fields(WireEvent)
)
_DEFAULTS: Dict[str, Any] = {
    spec.name: spec.default
    for spec in fields(WireEvent)
    if spec.default is not MISSING
}


class TapBus:
    """Delivery of wire events to per-node monitoring taps.

    The paper deploys a Bro agent per node; each event is captured by
    the agent on its *source* node (egress capture), which both avoids
    duplicate delivery and preserves per-TCP-stream ordering, matching
    §5.2's ordering guarantee.
    """

    def __init__(self) -> None:
        self._node_taps: Dict[str, List[Callable[[WireEvent], None]]] = {}
        self._global_taps: List[Callable[[WireEvent], None]] = []
        self.emitted = 0

    def attach(self, node: str, callback: Callable[[WireEvent], None]) -> None:
        """Attach a tap capturing traffic originating at ``node``."""
        self._node_taps.setdefault(node, []).append(callback)

    def attach_global(self, callback: Callable[[WireEvent], None]) -> None:
        """Attach a tap that sees every event (testing / evaluation)."""
        self._global_taps.append(callback)

    def emit(self, event: WireEvent) -> None:
        """Deliver an event to its source-node tap and all global taps."""
        self.emitted += 1
        for callback in self._node_taps.get(event.src_node, ()):  # noqa: B020
            callback(event)
        for callback in self._global_taps:
            callback(event)

    def detach_all(self) -> None:
        """Remove every tap (used between characterization runs)."""
        self._node_taps.clear()
        self._global_taps.clear()

"""API identities for the simulated OpenStack deployment.

An :class:`Api` names one invokable interface — a REST endpoint
(``GET /v2.1/servers/{id}``) or an RPC method
(``nova-compute: build_and_run_instance``).  GRETEL's fingerprints are
sequences of these identities, so the catalog must distinguish:

* **state-change** APIs (``POST``/``PUT``/``DELETE`` REST calls and all
  RPCs) — kept as required literals in fingerprint regexes, and
* **read** APIs (``GET``/``HEAD``) — optional in relaxed matching.

APIs can also be flagged as **noise**: periodic heartbeats, status
reports and Keystone authentication round-trips that Algorithm 1
filters out of fingerprints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property


class ApiKind(enum.Enum):
    """Transport class of an API: inter-service REST or intra-service RPC."""

    REST = "rest"
    RPC = "rpc"


#: HTTP methods that mutate service state.  The paper treats these (and
#: every RPC) as the "state change" literals of a fingerprint.
STATE_CHANGE_METHODS = frozenset({"POST", "PUT", "DELETE", "PATCH"})

#: HTTP methods that only read state.
READ_METHODS = frozenset({"GET", "HEAD"})


@dataclass(frozen=True)
class Api:
    """One invokable OpenStack interface.

    Attributes
    ----------
    kind:
        REST or RPC.
    service:
        The component service that *implements* the API (``nova``,
        ``neutron``, ...).  For RPCs this is the service whose topic the
        message is published to.
    method:
        The HTTP verb for REST APIs; ``"call"`` (blocking) or ``"cast"``
        (fire-and-forget) for RPCs.
    name:
        The path template (``/v2.1/servers/{id}``) or RPC method name.
    noise:
        True for periodic heartbeats / status updates / auth round
        trips that carry no operation-identifying signal.
    """

    kind: ApiKind
    service: str
    method: str
    name: str
    noise: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind is ApiKind.REST and self.method not in STATE_CHANGE_METHODS | READ_METHODS:
            raise ValueError(f"unknown HTTP method {self.method!r} for REST API {self.name!r}")
        if self.kind is ApiKind.RPC and self.method not in ("call", "cast"):
            raise ValueError(f"RPC method must be 'call' or 'cast', got {self.method!r}")

    @cached_property
    def key(self) -> str:
        """Canonical identity string, unique across the catalog."""
        return f"{self.kind.value}:{self.service}:{self.method}:{self.name}"

    @property
    def state_change(self) -> bool:
        """Whether the API mutates state (all RPCs count as state change)."""
        if self.kind is ApiKind.RPC:
            return True
        return self.method in STATE_CHANGE_METHODS

    @property
    def idempotent_read(self) -> bool:
        """True for REST reads; repeat occurrences are collapsed as noise."""
        return self.kind is ApiKind.REST and self.method in READ_METHODS

    def __str__(self) -> str:
        if self.kind is ApiKind.REST:
            return f"{self.method} {self.service}{self.name}"
        return f"rpc {self.service}.{self.name}"

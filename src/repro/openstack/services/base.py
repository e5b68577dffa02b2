"""Service base class: handler registration, dispatch, generic handlers.

A concrete service registers explicit handlers for the APIs whose
behaviour matters to the reproduction (state machines, cross-service
cascades, failure modes).  Every other catalogued API falls back to a
generic handler — one database round trip and a canned response —
which keeps the full 643-API surface invokable without hand-writing
hundreds of trivial handlers.

:meth:`Service.dispatch` only routes: it returns the generator that
serves the request, and the transport's exchange drives it in its own
frame.  A token-validation wrapper is added only for tenant-facing
REST calls, and a noise RPC gets an acknowledgement that yields
nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Tuple, TYPE_CHECKING

from repro.openstack.apis import ApiKind
from repro.openstack.errors import ApiError
from repro.openstack.messaging import CallContext, Request
from repro.sim import Timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.openstack.cloud import Cloud
    from repro.openstack.software import ProcessTable
    from repro.openstack.topology import Topology

#: Caller labels treated as tenant-facing entry points.  Requests from
#: these trigger a Keystone token-validation leg (the paper's "common
#: REST invocations involving Keystone" noise traffic).
EXTERNAL_CALLERS = frozenset({"client", "cli", "horizon", "tempest"})

#: What a handler returns: a generator of kernel delays whose value
#: is the response data.
Step = Generator[Timeout, Any, Any]
Handler = Callable[[CallContext, Request], Step]


def _acknowledge() -> Step:
    """The empty reply to a noise RPC: no delay, no data."""
    return {}
    yield  # unreachable: makes this a generator


class Service:
    """Base class for all simulated OpenStack component services."""

    #: Override in subclasses: the service name matching the catalog.
    name = "base"

    def __init__(self, cloud: "Cloud") -> None:
        self.cloud = cloud
        self.db = cloud.db
        self._rest_handlers: Dict[Tuple[str, str], Handler] = {}
        self._rpc_handlers: Dict[str, Handler] = {}
        self._register()

    # -- registration -----------------------------------------------------

    def _register(self) -> None:
        """Subclasses register their handlers here."""

    def on_rest(self, method: str, name: str, handler: Handler) -> None:
        """Register a REST handler for (HTTP method, path template)."""
        self.cloud.catalog.find_rest(self.name, method, name)  # validate
        self._rest_handlers[(method, name)] = handler

    def on_rpc(self, name: str, handler: Handler) -> None:
        """Register an RPC handler by method name."""
        self.cloud.catalog.find_rpc(self.name, name)  # validate
        self._rpc_handlers[name] = handler

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, ctx: CallContext, request: Request) -> Step:
        """The generator that serves ``request``, for the exchange to
        drive: its handler (or the generic fallback), behind a Keystone
        token-validation leg for tenant-facing REST calls, or an
        acknowledgement for noise RPCs."""
        api = request.api
        if api.kind is ApiKind.RPC:
            if api.noise:
                # Heartbeats / state reports: acknowledge without
                # touching the database (they carry no state).
                return _acknowledge()
            handler = self._rpc_handlers.get(api.name, self._generic)
            return handler(ctx, request)
        handler = self._rest_handlers.get((api.method, api.name),
                                          self._generic)
        if (self.name != "keystone" and not api.noise
                and request.caller_service in EXTERNAL_CALLERS):
            return self._validated(ctx, request, handler)
        return handler(ctx, request)

    # -- keystone token validation (noise leg) --------------------------------

    def _validated(self, ctx: CallContext, request: Request,
                   handler: Handler) -> Step:
        """Validate the caller's token with Keystone, then serve."""
        response = yield from ctx.rest("keystone", "GET", "/v3/auth/tokens")
        if response.error:
            # The service cannot authenticate its caller: surface the
            # paper's §7.2.4 manifestation.
            raise ApiError(503, "Unable to establish connection to Keystone")
        return (yield from handler(ctx, request))

    # -- generic fallback handlers --------------------------------------------

    def _generic(self, ctx: CallContext, request: Request) -> Step:
        """One DB round trip and a canned response for uncovered APIs.

        Reads are keyed lookups, not table scans: generic tables grow
        with workload volume, and a scan here would make read latency
        drift over long sustained runs (an artifact, not a modelled
        behaviour).
        """
        api = request.api
        table = f"{self.name}:generic"
        if api.kind is ApiKind.RPC or api.method in ("POST", "PUT", "PATCH"):
            record_id = request.param("id") or self.db.new_id(self.name[:3])
            yield from self.db.insert(table, {"id": record_id, "api": api.key})
            return {"id": record_id}
        if api.method == "DELETE":
            yield from self.db.delete(table, request.param("id", ""))
            return {}
        record = yield from self.db.get(
            table, request.param("id", "singleton"))
        return {"found": record is not None}

    # -- shared helpers -------------------------------------------------------

    def require(self, condition: bool, status: int, message: str) -> None:
        """Raise :class:`ApiError` unless ``condition`` holds."""
        if not condition:
            raise ApiError(status, message)

    def fetch_or_404(self, table: str, record_id: str, what: str) -> Step:
        """DB get that raises 404 when the record is missing."""
        record = yield from self.db.get(table, record_id)
        if record is None:
            raise ApiError(404, f"{what} {record_id} could not be found")
        return record

    @property
    def processes(self) -> "ProcessTable":
        """The deployment-wide software process table."""
        return self.cloud.processes

    @property
    def topology(self) -> "Topology":
        """The deployment topology."""
        return self.cloud.topology

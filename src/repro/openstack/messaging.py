"""The REST/RPC transport engine of the simulated deployment.

This module implements the mechanics of an API invocation:

* :class:`Request` / :class:`Response` — what handlers receive/return.
* :class:`CallContext` — the caller's identity (service, node, tenant,
  request id) plus the ``rest()`` / ``rpc()`` verbs.  Handlers receive
  a context for *their* service, so nested calls naturally produce the
  cross-component cascades of §2.1.
* the transport itself: network latency per link (plus injected
  ``tc``-style delay), Keystone authentication legs with token caching,
  per-node CPU-contention slowdown of processing time, RPC routing via
  the RabbitMQ broker, and emission of one :class:`WireEvent` per
  exchange onto the tap bus.

All call functions are generators and must be driven with
``yield from`` inside a simulation process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional, Tuple, TYPE_CHECKING

from repro.sim import Timeout
from repro.openstack.apis import Api, ApiKind
from repro.openstack.errors import ApiError, RpcError
from repro.openstack.wire import WireEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.openstack.cloud import Cloud


@dataclass
class Request:
    """An API invocation as seen by the implementing handler."""

    api: Api
    params: Dict[str, Any] = field(default_factory=dict)
    caller_service: str = "client"
    caller_node: str = ""
    tenant: str = ""
    request_id: str = ""
    op_id: str = ""
    test_id: str = ""

    def param(self, key: str, default: Any = None) -> Any:
        """Convenience accessor for a request parameter."""
        return self.params.get(key, default)


@dataclass
class Response:
    """The outcome of an API invocation."""

    status: int
    data: Dict[str, Any] = field(default_factory=dict)
    body: str = ""

    @property
    def ok(self) -> bool:
        """True for 2xx statuses."""
        return 200 <= self.status < 400

    @property
    def error(self) -> bool:
        """True for 4xx/5xx statuses."""
        return self.status >= 400

    def raise_for_status(self) -> "Response":
        """Re-raise an error response as :class:`ApiError`."""
        if self.error:
            raise ApiError(self.status, self.body or f"HTTP {self.status}")
        return self


_port_counter = itertools.count(32768)
_seq_counter = itertools.count(1)
_reqid_counter = itertools.count(1)


def reset_counters() -> None:
    """Reset global sequence counters (between independent simulations)."""
    global _port_counter, _seq_counter, _reqid_counter
    _port_counter = itertools.count(32768)
    _seq_counter = itertools.count(1)
    _reqid_counter = itertools.count(1)


class CallContext:
    """Caller identity and verbs for issuing REST/RPC invocations."""

    def __init__(
        self,
        cloud: "Cloud",
        service: str,
        node: str,
        tenant: str = "demo",
        op_id: str = "",
        test_id: str = "",
        request_id: str = "",
    ):
        self.cloud = cloud
        self.service = service
        self.node = node
        self.tenant = tenant
        self.op_id = op_id
        self.test_id = test_id
        self.request_id = request_id or f"req-{next(_reqid_counter):08d}"
        self._token_expiry = -1.0

    # -- derived -----------------------------------------------------------

    @property
    def sim(self):
        """The shared simulator."""
        return self.cloud.sim

    def child(self, service: str, node: str) -> "CallContext":
        """Context for a handler executing downstream of this call."""
        ctx = CallContext(
            self.cloud, service, node,
            tenant=self.tenant, op_id=self.op_id, test_id=self.test_id,
            request_id=self.request_id,
        )
        # Services hold their own service tokens; modelling them as
        # pre-authenticated avoids an auth leg per nested hop while the
        # operation-initial leg is still captured (and later filtered
        # as noise by fingerprinting, per §5).
        ctx._token_expiry = float("inf")
        return ctx

    # -- verbs ----------------------------------------------------------------

    def rest(
        self,
        dst_service: str,
        method: str,
        name: str,
        params: Optional[Dict[str, Any]] = None,
        resource_ids: Tuple[str, ...] = (),
    ) -> Generator:
        """Issue a REST call; returns a :class:`Response`.

        Error responses are *returned*, not raised — callers decide
        whether to propagate (mirroring HTTP client behaviour).
        """
        api = self.cloud.catalog.find_rest(dst_service, method, name)
        response = yield from self.cloud.transport.rest_exchange(
            self, api, params or {}, resource_ids
        )
        return response

    def rpc(
        self,
        dst_service: str,
        name: str,
        params: Optional[Dict[str, Any]] = None,
        target_node: Optional[str] = None,
        resource_ids: Tuple[str, ...] = (),
    ) -> Generator:
        """Issue an RPC through the broker; returns a :class:`Response`."""
        api = self.cloud.catalog.find_rpc(dst_service, name)
        response = yield from self.cloud.transport.rpc_exchange(
            self, api, params or {}, target_node, resource_ids
        )
        return response

    def sleep(self, seconds: float) -> Generator:
        """Pause the current operation for simulated ``seconds``."""
        yield Timeout(seconds)


class Transport:
    """Executes exchanges: latency, dispatch, faults, wire emission."""

    def __init__(self, cloud: "Cloud"):
        self.cloud = cloud
        self.config = cloud.config
        self._jitter_rng = cloud.rnd.stream("transport.jitter")

    # -- helpers ------------------------------------------------------------

    def _jitter(self) -> float:
        return self._jitter_rng.uniform(self.config.jitter_low, self.config.jitter_high)

    def _net_delay(self, src_node: str, dst_node: str) -> float:
        base = self.cloud.topology.latency(src_node, dst_node)
        return base + self.cloud.faults.extra_net_delay(src_node, dst_node)

    # -- authentication leg ---------------------------------------------------

    def _needs_auth(self, ctx: CallContext, dst_service: str) -> bool:
        if dst_service == "keystone":
            return False
        return self.cloud.sim.now >= ctx._token_expiry

    def _auth_leg(self, ctx: CallContext) -> Generator:
        """One Keystone token issue/validate round trip (noise traffic)."""
        api = self.cloud.catalog.find_rest("keystone", "POST", "/v3/auth/tokens")
        response = yield from self._do_rest(ctx, api, {"user": ctx.tenant}, ())
        if response.ok:
            ctx._token_expiry = self.cloud.sim.now + self.config.token_ttl
        else:
            raise ApiError(response.status, response.body or "authentication failed")

    # -- REST ----------------------------------------------------------------

    def rest_exchange(
        self,
        ctx: CallContext,
        api: Api,
        params: Dict[str, Any],
        resource_ids: Tuple[str, ...],
    ) -> Generator:
        """One REST exchange: auth leg (if due), dispatch, wire event."""
        if self._needs_auth(ctx, api.service):
            yield from self._auth_leg(ctx)
        response = yield from self._do_rest(ctx, api, params, resource_ids)
        return response

    def _do_rest(
        self,
        ctx: CallContext,
        api: Api,
        params: Dict[str, Any],
        resource_ids: Tuple[str, ...],
    ) -> Generator:
        cloud = self.cloud
        dst_node = cloud.topology.home_of(api.service)
        src_spec = cloud.topology.node(ctx.node)
        dst_spec = cloud.topology.node(dst_node)
        conn = (src_spec.ip, next(_port_counter), dst_spec.ip, 80)
        ts_request = cloud.sim.now

        yield Timeout(self._net_delay(ctx.node, dst_node) * self._jitter())
        response = yield from self._dispatch_rest(ctx, api, dst_node, params)
        yield Timeout(self._net_delay(dst_node, ctx.node) * self._jitter())

        # One positional call, in ``WireEvent`` field order.
        cloud.taps.emit(WireEvent(
            next(_seq_counter), api.key, ApiKind.REST, api.method, api.name,
            ctx.service, ctx.node, src_spec.ip,
            api.service, dst_node, dst_spec.ip,
            ts_request, cloud.sim.now, response.status, response.body,
            conn, "", self.config.rest_size_bytes, api.noise,
            ctx.request_id, ctx.tenant, tuple(resource_ids),
            ctx.op_id, ctx.test_id,
        ))
        return response

    def _dispatch_rest(
        self, ctx: CallContext, api: Api, dst_node: str, params: Dict[str, Any]
    ) -> Generator:
        cloud = self.cloud
        forced = cloud.faults.forced_error(api.key, ctx.op_id)
        if forced is not None:
            yield Timeout(self.config.rest_processing * 0.5)
            return Response(forced.status, body=forced.body())

        service = cloud.services.get(api.service)
        request = Request(
            api=api, params=params,
            caller_service=ctx.service, caller_node=ctx.node,
            tenant=ctx.tenant, request_id=ctx.request_id,
            op_id=ctx.op_id, test_id=ctx.test_id,
        )
        resources = cloud.resources[dst_node]
        resources.enter()
        try:
            processing = (
                self.config.rest_processing
                * resources.slowdown(cloud.sim.now)
                * self._jitter()
                * cloud.faults.processing_multiplier(api.service)
            )
            yield Timeout(processing)
            if service is None:
                raise ApiError(503, f"service {api.service} not deployed")
            handler_ctx = ctx.child(api.service, dst_node)
            data = yield from service.dispatch(handler_ctx, request)
            return Response(200 if api.method != "POST" else 202, data=data or {})
        except ApiError as exc:
            return Response(exc.status, body=exc.body())
        finally:
            resources.leave()

    # -- RPC --------------------------------------------------------------------

    def rpc_exchange(
        self,
        ctx: CallContext,
        api: Api,
        params: Dict[str, Any],
        target_node: Optional[str],
        resource_ids: Tuple[str, ...],
    ) -> Generator:
        """One RPC exchange via the broker (casts run asynchronously)."""
        cloud = self.cloud
        broker = cloud.broker
        dst_node = target_node or cloud.topology.home_of(api.service)
        src_spec = cloud.topology.node(ctx.node)
        dst_spec = cloud.topology.node(dst_node)
        msg_id = broker.new_message_id()
        ts_request = cloud.sim.now

        status = 200
        body = ""
        data: Dict[str, Any] = {}
        if not broker.available:
            yield Timeout(broker.TIMEOUT)
            status, body = 504, RpcError(
                "MessagingTimeout: no reply on topic " + api.service,
                kind="MessagingTimeout",
            ).body()
        else:
            broker.record_publish()
            yield Timeout(broker.hop_delay(ctx.node, dst_node) * self._jitter())
            forced = cloud.faults.forced_error(api.key, ctx.op_id)
            request = Request(
                api=api, params=params,
                caller_service=ctx.service, caller_node=ctx.node,
                tenant=ctx.tenant, request_id=ctx.request_id,
                op_id=ctx.op_id, test_id=ctx.test_id,
            )
            if forced is not None:
                status = forced.status
                body = RpcError(forced.message).body()
            elif api.method == "cast":
                # Fire-and-forget: the consumer does its work
                # asynchronously while the publisher proceeds — exactly
                # why cast failures never reach the dashboard directly
                # and only surface through later status polls.
                cloud.sim.spawn(
                    self._run_cast(ctx, api, dst_node, request),
                    name=f"cast:{api.name}",
                )
            else:
                service = cloud.services.get(api.service)
                resources = cloud.resources[dst_node]
                resources.enter()
                try:
                    processing = (
                        self.config.rpc_processing
                        * resources.slowdown(cloud.sim.now)
                        * self._jitter()
                        * cloud.faults.processing_multiplier(api.service)
                    )
                    yield Timeout(processing)
                    if service is None:
                        raise RpcError(f"no consumer for topic {api.service}")
                    handler_ctx = ctx.child(api.service, dst_node)
                    data = (yield from service.dispatch(handler_ctx, request)) or {}
                except RpcError as exc:
                    status, body = 500, exc.body()
                except ApiError as exc:
                    status, body = exc.status, RpcError(exc.message).body()
                finally:
                    resources.leave()
                yield Timeout(broker.hop_delay(dst_node, ctx.node) * self._jitter())

        cloud.taps.emit(WireEvent(
            next(_seq_counter), api.key, ApiKind.RPC, api.method, api.name,
            ctx.service, ctx.node, src_spec.ip,
            api.service, dst_node, dst_spec.ip,
            ts_request, cloud.sim.now, status, body,
            ("", 0, "", 0), msg_id, self.config.rpc_size_bytes, api.noise,
            ctx.request_id, ctx.tenant, tuple(resource_ids),
            ctx.op_id, ctx.test_id,
        ))
        return Response(status, data=data, body=body)

    def _run_cast(self, ctx: CallContext, api: Api, dst_node: str,
                  request: Request) -> Generator:
        """Consumer side of a cast, as its own simulation process.

        Handler failures are swallowed (they went to the consumer's
        log, not the wire); handlers signal operation failure through
        database state that later status polls observe.
        """
        cloud = self.cloud
        service = cloud.services.get(api.service)
        if service is None:
            return
        resources = cloud.resources[dst_node]
        resources.enter()
        try:
            processing = (
                self.config.rpc_processing
                * resources.slowdown(cloud.sim.now)
                * self._jitter()
                * cloud.faults.processing_multiplier(api.service)
            )
            yield Timeout(processing)
            handler_ctx = ctx.child(api.service, dst_node)
            yield from service.dispatch(handler_ctx, request)
        except (ApiError, RpcError):
            pass  # logged by the consumer; invisible on the wire
        finally:
            resources.leave()

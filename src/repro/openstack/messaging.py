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

Each exchange is one generator frame: ``rest()`` and ``rpc()`` return
the transport's exchange generator itself, and the exchange resumes
the handler's generator directly (:meth:`Service.dispatch` only routes).
A caller must drive the returned generator with ``yield from`` at
once, inside a simulation process.
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
    from repro.sim import Simulator


@dataclass(slots=True)
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


@dataclass(slots=True)
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


#: An exchange: a generator of kernel delays returning the response.
Exchange = Generator[Timeout, Any, Response]

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

    __slots__ = ("cloud", "service", "node", "tenant", "op_id", "test_id",
                 "request_id", "_token_expiry")

    def __init__(
        self,
        cloud: "Cloud",
        service: str,
        node: str,
        tenant: str = "demo",
        op_id: str = "",
        test_id: str = "",
        request_id: str = "",
    ) -> None:
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
    def sim(self) -> "Simulator":
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
    ) -> Exchange:
        """The exchange of one REST call; it returns a :class:`Response`.

        Error responses are *returned*, not raised — callers decide
        whether to propagate (mirroring HTTP client behaviour).  When
        the authentication leg fails, the call ends there and returns
        that leg's error response.
        """
        cloud = self.cloud
        return cloud.transport.rest_exchange(
            self, cloud.catalog.find_rest(dst_service, method, name),
            params or {}, resource_ids,
        )

    def rpc(
        self,
        dst_service: str,
        name: str,
        params: Optional[Dict[str, Any]] = None,
        target_node: Optional[str] = None,
        resource_ids: Tuple[str, ...] = (),
    ) -> Exchange:
        """The exchange of one RPC through the broker; it returns a
        :class:`Response`."""
        cloud = self.cloud
        return cloud.transport.rpc_exchange(
            self, cloud.catalog.find_rpc(dst_service, name),
            params or {}, target_node, resource_ids,
        )

    def sleep(self, seconds: float) -> Generator[Timeout, Any, None]:
        """Pause the current operation for simulated ``seconds``."""
        yield Timeout(seconds)


class Transport:
    """Executes exchanges: latency, dispatch, faults, wire emission.

    Jitter is ``low + span * random()``: ``random.uniform``'s formula.
    """

    def __init__(self, cloud: "Cloud") -> None:
        self.cloud = cloud
        self.config = cloud.config
        self._random = cloud.rnd.stream("transport.jitter").random
        self._jitter_low = self.config.jitter_low
        self._jitter_span = self.config.jitter_high - self.config.jitter_low
        self._auth_api = cloud.catalog.find_rest(
            "keystone", "POST", "/v3/auth/tokens")

    # -- REST ----------------------------------------------------------------

    def rest_exchange(
        self,
        ctx: CallContext,
        api: Api,
        params: Dict[str, Any],
        resource_ids: Tuple[str, ...],
    ) -> Exchange:
        """One REST exchange, in this order (traces depend on it): the
        auth leg if the token is due (a failed leg ends the exchange
        with its response), the request leg, the forced error or the
        handler, the response leg, one :class:`WireEvent`."""
        cloud = self.cloud
        sim = cloud.sim
        if sim.now >= ctx._token_expiry and api.service != "keystone":
            auth = yield from self.rest_exchange(
                ctx, self._auth_api, {"user": ctx.tenant}, ())
            if not auth.ok:
                return auth
            ctx._token_expiry = sim.now + self.config.token_ttl

        topology = cloud.topology
        faults = cloud.faults
        low, span, random = self._jitter_low, self._jitter_span, self._random
        src_node = ctx.node
        dst_node = topology.home_of(api.service)
        src_ip = topology.node(src_node).ip
        dst_ip = topology.node(dst_node).ip
        conn = (src_ip, next(_port_counter), dst_ip, 80)
        link = (topology.local_latency if src_node == dst_node
                else topology.link_latency)
        ts_request = sim.now

        delay = link
        if faults.latency_injections:
            delay += faults.extra_net_delay(src_node, dst_node)
        yield Timeout(delay * (low + span * random()))

        forced = faults.forced_error(api.key, ctx.op_id)
        if forced is not None:
            yield Timeout(self.config.rest_processing * 0.5)
            response = Response(forced.status, body=forced.body())
        else:
            service = cloud.services.get(api.service)
            resources = cloud.resources[dst_node]
            resources.enter()
            try:
                yield Timeout(
                    self.config.rest_processing
                    * resources.slowdown(sim.now)
                    * (low + span * random())
                    * faults.processing_multiplier(api.service)
                )
                if service is None:
                    raise ApiError(503, f"service {api.service} not deployed")
                data = yield from service.dispatch(
                    ctx.child(api.service, dst_node),
                    Request(api, params, ctx.service, src_node, ctx.tenant,
                            ctx.request_id, ctx.op_id, ctx.test_id),
                )
                response = Response(
                    200 if api.method != "POST" else 202, data or {})
            except ApiError as exc:
                response = Response(exc.status, body=exc.body())
            finally:
                resources.leave()

        delay = link
        if faults.latency_injections:
            delay += faults.extra_net_delay(dst_node, src_node)
        yield Timeout(delay * (low + span * random()))

        # One positional call, in ``WireEvent`` field order.
        cloud.taps.emit(WireEvent(
            next(_seq_counter), api.key, ApiKind.REST, api.method, api.name,
            ctx.service, src_node, src_ip,
            api.service, dst_node, dst_ip,
            ts_request, sim.now, response.status, response.body,
            conn, "", self.config.rest_size_bytes, api.noise,
            ctx.request_id, ctx.tenant, tuple(resource_ids),
            ctx.op_id, ctx.test_id,
        ))
        return response

    # -- RPC ------------------------------------------------------------------

    def rpc_exchange(
        self,
        ctx: CallContext,
        api: Api,
        params: Dict[str, Any],
        target_node: Optional[str],
        resource_ids: Tuple[str, ...],
    ) -> Exchange:
        """One RPC exchange via the broker (casts run asynchronously)."""
        cloud = self.cloud
        broker = cloud.broker
        low, span, random = self._jitter_low, self._jitter_span, self._random
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
            yield Timeout(broker.hop_delay(ctx.node, dst_node)
                          * (low + span * random()))
            forced = cloud.faults.forced_error(api.key, ctx.op_id)
            request = Request(api, params, ctx.service, ctx.node, ctx.tenant,
                              ctx.request_id, ctx.op_id, ctx.test_id)
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
                    yield Timeout(
                        self.config.rpc_processing
                        * resources.slowdown(cloud.sim.now)
                        * (low + span * random())
                        * cloud.faults.processing_multiplier(api.service)
                    )
                    if service is None:
                        raise RpcError(f"no consumer for topic {api.service}")
                    handler_ctx = ctx.child(api.service, dst_node)
                    data = (yield from service.dispatch(handler_ctx,
                                                        request)) or {}
                except RpcError as exc:
                    status, body = 500, exc.body()
                except ApiError as exc:
                    status, body = exc.status, RpcError(exc.message).body()
                finally:
                    resources.leave()
                yield Timeout(broker.hop_delay(dst_node, ctx.node)
                              * (low + span * random()))

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
                  request: Request) -> Generator[Timeout, Any, None]:
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
            yield Timeout(
                self.config.rpc_processing
                * resources.slowdown(cloud.sim.now)
                * (self._jitter_low + self._jitter_span * self._random())
                * cloud.faults.processing_multiplier(api.service)
            )
            handler_ctx = ctx.child(api.service, dst_node)
            yield from service.dispatch(handler_ctx, request)
        except (ApiError, RpcError):
            pass  # logged by the consumer; invisible on the wire
        finally:
            resources.leave()

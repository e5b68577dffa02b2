"""Synthetic event-stream generation (the tcpreplay substitute, §7.4.1).

For the throughput experiments the paper replays RPC/REST events at
controlled rates with controlled fault frequencies.  This module
fabricates :class:`~repro.openstack.wire.WireEvent` streams directly
from a fingerprint library: a pool of concurrent "operations" (each a
fingerprint's API sequence) is interleaved round-robin at a fixed
packet rate, and every ``fault_every``-th REST message carries an
error status.

Fault accounting caveat: a *fault slot* opens at every
``fault_every``-th emitted event, but the slot only fires when the
event landing on it happens to be REST — RPC messages never carry an
injected error status.  In particular a ``fault_every`` larger than
the stream length opens **zero** slots and the stream is silently
fault-free; :meth:`SyntheticStream.fault_slots` exposes the slot
count so callers (e.g. scenario injectors in ``repro.scenarios``) can
assert their stream actually carries faults instead of discovering a
vacuous experiment downstream.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.openstack.apis import Api, ApiKind
from repro.openstack.catalog import ApiCatalog, default_catalog
from repro.openstack.topology import Topology, default_topology
from repro.openstack.wire import WireEvent
from repro.core.fingerprint import FingerprintLibrary
from repro.core.symbols import SymbolTable

#: Body of an injected error response.
_INJECTED_BODY = '{"code": 500, "message": "injected"}'


class SyntheticStream:
    """Deterministic fabricated wire-event stream."""

    def __init__(
        self,
        library: FingerprintLibrary,
        symbols: SymbolTable,
        *,
        catalog: Optional[ApiCatalog] = None,
        topology: Optional[Topology] = None,
        rate_pps: float = 50_000.0,
        fault_every: int = 1000,
        concurrency: int = 50,
        seed: int = 0,
        rest_size: int = 220,
        rpc_size: int = 160,
    ) -> None:
        if rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if fault_every < 1:
            raise ValueError("fault_every must be at least 1")
        self.library = library
        self.symbols = symbols
        self.catalog = catalog or default_catalog()
        self.topology = topology or default_topology()
        self.rate_pps = rate_pps
        self.fault_every = fault_every
        self.concurrency = max(1, concurrency)
        self.rest_size = rest_size
        self.rpc_size = rpc_size
        self._rng = random.Random(seed)
        self._fingerprints = [fp for fp in library if len(fp) > 0]
        if not self._fingerprints:
            raise ValueError("empty fingerprint library")
        # Every event leaves horizon; an RPC lands on a compute node,
        # a REST call on its service's home (filled on first use).
        self._src_node = self.topology.home_of("horizon")
        self._src_ip = self.topology.node(self._src_node).ip
        self._computes = [(node.name, node.ip)
                          for node in self.topology.compute_nodes()]
        self._rest_dst: Dict[str, Tuple[str, str]] = {}

    # -- op pool ---------------------------------------------------------

    def _new_op(self, op_counter: int) -> dict:
        fingerprint = self._rng.choice(self._fingerprints)
        op_id = f"synthetic-{op_counter}"
        return {
            "keys": self.symbols.decode(fingerprint.symbols),
            "pos": 0,
            "op_id": op_id,
            "resource_ids": (op_id,),
            "operation": fingerprint.operation,
            "tenant": f"tenant-{op_counter % 64}",
        }

    def _fabricate(self, seq: int, api: Api, ts: float, *, op: dict,
                   error: bool) -> WireEvent:
        if api.kind is ApiKind.REST:
            dst = self._rest_dst.get(api.service)
            if dst is None:
                node = self.topology.home_of(api.service)
                dst = (node, self.topology.node(node).ip)
                self._rest_dst[api.service] = dst
            size = self.rest_size
        else:
            dst = self._rng.choice(self._computes)
            size = self.rpc_size
        latency = 0.002 * self._rng.uniform(0.5, 2.0)
        # One positional call, in ``WireEvent`` field order.
        return WireEvent(
            seq, api.key, api.kind, api.method, api.name,
            "horizon", self._src_node, self._src_ip,
            api.service, dst[0], dst[1],
            ts - latency, ts, 500 if error else 200,
            _INJECTED_BODY if error else "",
            ("", 0, "", 0), "", size, api.noise,
            op["op_id"], op["tenant"], op["resource_ids"], op["op_id"], "",
        )

    # -- generation ------------------------------------------------------

    def generate(self, count: int) -> Iterator[WireEvent]:
        """Yield ``count`` interleaved events at the configured rate."""
        interval = 1.0 / self.rate_pps
        op_counter = itertools.count()
        pool: List[dict] = [self._new_op(next(op_counter))
                            for _ in range(self.concurrency)]
        ts = 0.0
        emitted = 0
        seq = 0
        while emitted < count:
            index = self._rng.randrange(len(pool))
            op = pool[index]
            key = op["keys"][op["pos"]]
            api = self.catalog.get(key)
            op["pos"] += 1
            if op["pos"] >= len(op["keys"]):
                pool[index] = self._new_op(next(op_counter))
            seq += 1
            emitted += 1
            ts += interval
            error = (
                api.kind is ApiKind.REST
                and emitted % self.fault_every == 0
            )
            yield self._fabricate(seq, api, ts, op=op, error=error)

    def events(self, count: int) -> List[WireEvent]:
        """Materialized list form of :meth:`generate`."""
        return list(self.generate(count))

    def fault_slots(self, count: int) -> int:
        """Number of fault slots a ``count``-event stream opens.

        A slot opens at emitted positions ``fault_every, 2·fault_every,
        ...`` (1-based), i.e. ``count // fault_every`` slots in total —
        **zero** when ``fault_every > count``.  Each slot injects an
        error only if the event on it is REST, so the realized error
        count is bounded above by (and usually close to) this value.
        """
        return count // self.fault_every

    def total_bytes(self, events: Sequence[WireEvent]) -> int:
        """Total wire bytes of a generated stream."""
        return sum(e.size_bytes for e in events)

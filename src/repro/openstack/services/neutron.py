"""Neutron: virtual networking as a service.

The port-binding path is the one that matters for the paper's
scenarios: ``POST /v2.0/ports.json`` binds the new port on the
requesting hypervisor, and if the ``neutron-plugin-linuxbridge-agent``
on that host is dead the binding fails (§7.2.3), which Nova surfaces
as the infamous *"No valid host was found"*.

The two agent RPCs the paper calls out for latency anomalies under
load — ``get_devices_details_list`` and
``security_group_info_for_devices`` (§3.1.2) — are implemented as the
heaviest handlers of the service, so CPU contention on the Neutron
node inflates exactly their latencies.
"""

from __future__ import annotations

from typing import Generator, List

from repro.sim import Timeout
from repro.openstack.messaging import CallContext, Request
from repro.openstack.services.base import Service

NETWORKS = "neutron:networks"
SUBNETS = "neutron:subnets"
PORTS = "neutron:ports"
ROUTERS = "neutron:routers"
FLOATINGIPS = "neutron:floatingips"
SECGROUPS = "neutron:security-groups"


class NeutronService(Service):
    """Networking service handlers."""

    name = "neutron"

    def _register(self) -> None:
        v = "/v2.0"
        self.on_rest("POST", f"{v}/networks.json", self.create_network)
        self.on_rest("GET", f"{v}/networks.json", self.list_networks)
        self.on_rest("GET", f"{v}/networks.json/{{id}}", self.show_network)
        self.on_rest("DELETE", f"{v}/networks.json/{{id}}", self.delete_network)
        self.on_rest("POST", f"{v}/subnets.json", self.create_subnet)
        self.on_rest("DELETE", f"{v}/subnets.json/{{id}}", self.delete_subnet)
        self.on_rest("POST", f"{v}/ports.json", self.create_port)
        self.on_rest("GET", f"{v}/ports.json", self.list_ports)
        self.on_rest("GET", f"{v}/ports.json/{{id}}", self.show_port)
        self.on_rest("PUT", f"{v}/ports.json/{{id}}", self.update_port)
        self.on_rest("DELETE", f"{v}/ports.json/{{id}}", self.delete_port)
        self.on_rest("POST", f"{v}/routers.json", self.create_router)
        self.on_rest("DELETE", f"{v}/routers.json/{{id}}", self.delete_router)
        self.on_rest("PUT", f"{v}/routers/{{id}}/add_router_interface", self.add_router_interface)
        self.on_rest("PUT", f"{v}/routers/{{id}}/remove_router_interface",
                     self.remove_router_interface)
        self.on_rest("POST", f"{v}/floatingips.json", self.create_floatingip)
        self.on_rest("PUT", f"{v}/floatingips.json/{{id}}", self.update_floatingip)
        self.on_rest("DELETE", f"{v}/floatingips.json/{{id}}", self.delete_floatingip)
        self.on_rest("POST", f"{v}/security-groups.json", self.create_secgroup)
        self.on_rest("DELETE", f"{v}/security-groups.json/{{id}}", self.delete_secgroup)
        self.on_rest("POST", f"{v}/security-group-rules.json", self.create_secgroup_rule)
        self.on_rest("GET", f"{v}/agents", self.list_agents)

        self.on_rpc("get_devices_details_list", self.rpc_get_devices_details_list)
        self.on_rpc("security_group_info_for_devices", self.rpc_security_group_info)
        self.on_rpc("get_device_details", self.rpc_get_device_details)
        self.on_rpc("update_device_up", self.rpc_update_device_up)
        self.on_rpc("update_device_down", self.rpc_update_device_down)
        self.on_rpc("sync_routers", self.rpc_sync_routers)
        self.on_rpc("get_active_networks_info", self.rpc_get_active_networks_info)

    # -- L2 agent liveness ---------------------------------------------------

    def _agent_alive(self, host: str) -> bool:
        return self.processes.is_alive(host, "neutron-plugin-linuxbridge-agent")

    # -- networks / subnets ----------------------------------------------------

    def create_network(self, ctx: CallContext, request: Request) -> Generator:
        """POST /v2.0/networks.json."""
        network_id = self.db.new_id("net")
        yield from self.db.insert(
            NETWORKS,
            {"id": network_id, "name": request.param("name", network_id),
             "tenant": request.tenant, "status": "ACTIVE"},
        )
        return {"id": network_id, "network": {"id": network_id}}

    def list_networks(self, ctx: CallContext, request: Request) -> Generator:
        """GET /v2.0/networks.json."""
        rows = yield from self.db.select(NETWORKS)
        return {"networks": rows}

    def show_network(self, ctx: CallContext, request: Request) -> Generator:
        """GET /v2.0/networks.json/{id}."""
        record = yield from self.fetch_or_404(NETWORKS, request.param("id", ""), "Network")
        return {"network": record}

    def delete_network(self, ctx: CallContext, request: Request) -> Generator:
        """DELETE /v2.0/networks.json/{id} — 409 while ports remain."""
        network_id = request.param("id", "")
        ports = yield from self.db.select(PORTS, lambda r: r.get("network_id") == network_id)
        self.require(not ports, 409, f"Network {network_id} has active ports")
        yield from self.db.delete(NETWORKS, network_id)
        return {}

    def create_subnet(self, ctx: CallContext, request: Request) -> Generator:
        """POST /v2.0/subnets.json."""
        network_id = request.param("network_id", "")
        if network_id:
            yield from self.fetch_or_404(NETWORKS, network_id, "Network")
        subnet_id = self.db.new_id("sub")
        yield from self.db.insert(
            SUBNETS, {"id": subnet_id, "network_id": network_id, "cidr": "10.1.0.0/24"}
        )
        return {"id": subnet_id, "subnet": {"id": subnet_id}}

    def delete_subnet(self, ctx: CallContext, request: Request) -> Generator:
        """DELETE /v2.0/subnets.json/{id}."""
        yield from self.db.delete(SUBNETS, request.param("id", ""))
        return {}

    # -- ports -----------------------------------------------------------------

    def create_port(self, ctx: CallContext, request: Request) -> Generator:
        """POST /v2.0/ports.json — create and (try to) bind a port."""
        port_id = self.db.new_id("prt")
        host = request.param("binding_host", "")
        binding = "ok"
        if host and self.processes.has(host, "neutron-plugin-linuxbridge-agent"):
            if not self._agent_alive(host):
                binding = "failed"
        yield from self.db.insert(
            PORTS,
            {"id": port_id, "network_id": request.param("network_id", ""),
             "device_id": request.param("device_id", ""), "host": host,
             "status": "DOWN", "binding": binding},
        )
        if binding == "ok" and host:
            # Notify the L2 agent on the hypervisor (fire-and-forget).
            yield from ctx.rpc(
                "neutron", "port_update", {"port_id": port_id},
                target_node=host, resource_ids=(port_id,),
            )
        return {"id": port_id, "binding": binding, "port": {"id": port_id}}

    def list_ports(self, ctx: CallContext, request: Request) -> Generator:
        """GET /v2.0/ports.json."""
        rows = yield from self.db.select(PORTS)
        return {"ports": rows}

    def show_port(self, ctx: CallContext, request: Request) -> Generator:
        """GET /v2.0/ports.json/{id}."""
        record = yield from self.fetch_or_404(PORTS, request.param("id", ""), "Port")
        return {"port": record}

    def update_port(self, ctx: CallContext, request: Request) -> Generator:
        """PUT /v2.0/ports.json/{id}."""
        record = yield from self.db.update(
            PORTS, request.param("id", ""), name=request.param("name", "updated")
        )
        self.require(record is not None, 404, "Port could not be found")
        return {"port": record}

    def delete_port(self, ctx: CallContext, request: Request) -> Generator:
        """DELETE /v2.0/ports.json/{id}."""
        yield from self.db.delete(PORTS, request.param("id", ""))
        return {}

    # -- routers -----------------------------------------------------------------

    def create_router(self, ctx: CallContext, request: Request) -> Generator:
        """POST /v2.0/routers.json."""
        router_id = self.db.new_id("rtr")
        yield from self.db.insert(
            ROUTERS, {"id": router_id, "name": request.param("name", router_id),
                      "interfaces": []},
        )
        yield from ctx.rpc("neutron", "routers_updated", {"router_id": router_id})
        return {"id": router_id, "router": {"id": router_id}}

    def delete_router(self, ctx: CallContext, request: Request) -> Generator:
        """DELETE /v2.0/routers.json/{id} — 409 while interfaces remain."""
        router_id = request.param("id", "")
        record = yield from self.fetch_or_404(ROUTERS, router_id, "Router")
        self.require(not record.get("interfaces"), 409,
                     f"Router {router_id} still has interfaces")
        yield from self.db.delete(ROUTERS, router_id)
        return {}

    def add_router_interface(self, ctx: CallContext, request: Request) -> Generator:
        """PUT /v2.0/routers/{id}/add_router_interface."""
        router_id = request.param("id", "")
        record = yield from self.fetch_or_404(ROUTERS, router_id, "Router")
        subnet_id = request.param("subnet_id", "")
        interfaces = list(record.get("interfaces") or []) + [subnet_id]
        yield from self.db.update(ROUTERS, router_id, interfaces=interfaces)
        yield from ctx.rpc("neutron", "routers_updated", {"router_id": router_id})
        return {"subnet_id": subnet_id}

    def remove_router_interface(self, ctx: CallContext, request: Request) -> Generator:
        """PUT /v2.0/routers/{id}/remove_router_interface."""
        router_id = request.param("id", "")
        record = yield from self.fetch_or_404(ROUTERS, router_id, "Router")
        subnet_id = request.param("subnet_id", "")
        interfaces = [i for i in (record.get("interfaces") or []) if i != subnet_id]
        yield from self.db.update(ROUTERS, router_id, interfaces=interfaces)
        return {}

    # -- floating IPs / security groups ---------------------------------------------

    def create_floatingip(self, ctx: CallContext, request: Request) -> Generator:
        """POST /v2.0/floatingips.json."""
        fip_id = self.db.new_id("fip")
        yield from self.db.insert(
            FLOATINGIPS, {"id": fip_id, "port_id": None, "status": "DOWN"}
        )
        return {"id": fip_id}

    def update_floatingip(self, ctx: CallContext, request: Request) -> Generator:
        """PUT /v2.0/floatingips.json/{id} — associate with a port."""
        record = yield from self.db.update(
            FLOATINGIPS, request.param("id", ""),
            port_id=request.param("port_id"), status="ACTIVE",
        )
        self.require(record is not None, 404, "Floating IP could not be found")
        return {"floatingip": record}

    def delete_floatingip(self, ctx: CallContext, request: Request) -> Generator:
        """DELETE /v2.0/floatingips.json/{id}."""
        yield from self.db.delete(FLOATINGIPS, request.param("id", ""))
        return {}

    def create_secgroup(self, ctx: CallContext, request: Request) -> Generator:
        """POST /v2.0/security-groups.json."""
        sg_id = self.db.new_id("sgr")
        yield from self.db.insert(SECGROUPS, {"id": sg_id, "rules": []})
        return {"id": sg_id}

    def delete_secgroup(self, ctx: CallContext, request: Request) -> Generator:
        """DELETE /v2.0/security-groups.json/{id}."""
        yield from self.db.delete(SECGROUPS, request.param("id", ""))
        return {}

    def create_secgroup_rule(self, ctx: CallContext, request: Request) -> Generator:
        """POST /v2.0/security-group-rules.json."""
        sg_id = request.param("security_group_id", "")
        if sg_id:
            record = yield from self.fetch_or_404(SECGROUPS, sg_id, "Security group")
            rule_id = self.db.new_id("rul")
            yield from self.db.update(
                SECGROUPS, sg_id, rules=list(record.get("rules") or []) + [rule_id]
            )
            yield from ctx.rpc(
                "neutron", "security_groups_rule_updated", {"security_group_id": sg_id}
            )
            return {"id": rule_id}
        rule_id = self.db.new_id("rul")
        yield from self.db.insert("neutron:rules", {"id": rule_id})
        return {"id": rule_id}

    def list_agents(self, ctx: CallContext, request: Request) -> Generator:
        """GET /v2.0/agents — agent liveness as neutron sees it."""
        yield from self.db.scan(PORTS)
        agents = []
        for node in self.topology.nodes:
            if self.processes.has(node.name, "neutron-plugin-linuxbridge-agent"):
                agents.append({
                    "binary": "neutron-linuxbridge-agent",
                    "host": node.name,
                    "alive": self._agent_alive(node.name),
                })
        return {"agents": agents}

    # -- RPC handlers (plugin side of the agent API) -----------------------------------

    def rpc_get_devices_details_list(self, ctx: CallContext, request: Request) -> Generator:
        """Heavyweight device-detail resolution (the §3.1.2 hotspot)."""
        devices: List[str] = request.param("devices", []) or []
        for _ in range(max(1, len(devices))):
            yield from self.db.scan(PORTS)
        # Deliberately CPU-heavy: scaled by node contention via the
        # transport's slowdown plus this extra plugin-side work.
        yield Timeout(0.006 * self.cloud.resources[ctx.node].slowdown(ctx.sim.now))
        return {"devices": devices}

    def rpc_security_group_info(self, ctx: CallContext, request: Request) -> Generator:
        """Security-group fanout for devices (the other §3.1.2 hotspot)."""
        yield from self.db.scan(SECGROUPS)
        yield Timeout(0.005 * self.cloud.resources[ctx.node].slowdown(ctx.sim.now))
        return {"security_groups": {}}

    def rpc_get_device_details(self, ctx: CallContext, request: Request) -> Generator:
        """Single-device detail resolution."""
        yield from self.db.scan(PORTS)
        return {"device": request.param("device", "")}

    def rpc_update_device_up(self, ctx: CallContext, request: Request) -> Generator:
        """Agent reports the VIF plugged: activate port, call Nova back."""
        port_id = request.param("port_id", "")
        yield from self.db.update(PORTS, port_id, status="ACTIVE")
        server_id = request.param("server_id", "")
        if server_id:
            # Fig. 2 step 7: Neutron POSTs the vif-plugged event to Nova.
            yield from ctx.rest(
                "nova", "POST", "/v2.1/os-server-external-events",
                {"server_id": server_id, "event": "network-vif-plugged"},
                resource_ids=(server_id, port_id),
            )
        return {}

    def rpc_update_device_down(self, ctx: CallContext, request: Request) -> Generator:
        """Agent reports the VIF unplugged."""
        yield from self.db.update(PORTS, request.param("port_id", ""), status="DOWN")
        return {}

    def rpc_sync_routers(self, ctx: CallContext, request: Request) -> Generator:
        """L3 agent full-sync."""
        rows = yield from self.db.select(ROUTERS)
        return {"routers": [r["id"] for r in rows]}

    def rpc_get_active_networks_info(self, ctx: CallContext, request: Request) -> Generator:
        """DHCP agent resync."""
        rows = yield from self.db.select(NETWORKS)
        return {"networks": [r["id"] for r in rows]}

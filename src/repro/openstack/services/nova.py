"""Nova: the compute controller and its compute-node agents.

Implements the paper's flagship workflow (§2.1, Fig. 2): ``POST
/v2.1/servers`` schedules an instance, casts
``build_and_run_instance`` to a compute node, which fetches the image
from Glance, queries Neutron for networks/ports/security groups,
creates and attaches a port (waiting for Neutron's callback), and
boots.  The failure modes exercised by the paper's case studies flow
through these handlers:

* all ``nova-compute`` services down → scheduler reports *"No valid
  host was found"* and the instance lands in ERROR (§3.1.1);
* ``neutron-plugin-linuxbridge-agent`` dead on the chosen hypervisor →
  port binding fails → same dashboard error, different root cause
  (§7.2.3);
* dead ``libvirtd`` → hypervisor errors at boot.

Status-poll GETs on an ERRORed instance return HTTP 500 carrying the
fault message — the on-the-wire manifestation GRETEL's operational
fault detector keys on.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.sim import Timeout
from repro.openstack.errors import ApiError, RpcError
from repro.openstack.messaging import CallContext, Request
from repro.openstack.services.base import Service

#: The dashboard error string from §3.1.1 / §7.2.3.
NO_VALID_HOST = "No valid host was found. There are not enough hosts available."

SERVERS = "nova:servers"


class NovaService(Service):
    """Compute controller + compute agent handlers."""

    name = "nova"

    def __init__(self, cloud):
        self._sched_cursor = 0
        super().__init__(cloud)

    def _register(self) -> None:
        v = "/v2.1"
        self.on_rest("POST", f"{v}/servers", self.create_server)
        self.on_rest("GET", f"{v}/servers/{{id}}", self.show_server)
        self.on_rest("GET", f"{v}/servers", self.list_servers)
        self.on_rest("GET", f"{v}/servers/detail", self.list_servers)
        self.on_rest("PUT", f"{v}/servers/{{id}}", self.update_server)
        self.on_rest("DELETE", f"{v}/servers/{{id}}", self.delete_server)
        for action, rpc_name in (
            ("reboot", "reboot_instance"),
            ("os-start", "start_instance"),
            ("os-stop", "stop_instance"),
            ("pause", "pause_instance"),
            ("unpause", "unpause_instance"),
            ("suspend", "suspend_instance"),
            ("resume", "resume_instance"),
            ("rescue", "rescue_instance"),
            ("unrescue", "unrescue_instance"),
            ("shelve", "shelve_instance"),
            ("unshelve", "unshelve_instance"),
            ("lock", None),
            ("unlock", None),
        ):
            self.on_rest(
                "POST", f"{v}/servers/{{id}}/action#{action}",
                self._make_simple_action(action, rpc_name),
            )
        self.on_rest("POST", f"{v}/servers/{{id}}/action#createImage", self.create_image_action)
        self.on_rest("POST", f"{v}/servers/{{id}}/action#resize", self.resize_action)
        self.on_rest("POST", f"{v}/servers/{{id}}/action#confirmResize", self.confirm_resize_action)
        self.on_rest("POST", f"{v}/servers/{{id}}/action#migrate", self.migrate_action)
        self.on_rest("POST", f"{v}/servers/{{id}}/action#os-migrateLive", self.live_migrate_action)
        self.on_rest("GET", f"{v}/servers/{{id}}/os-interface", self.list_interfaces)
        self.on_rest("POST", f"{v}/servers/{{id}}/os-interface", self.attach_interface)
        self.on_rest("DELETE", f"{v}/servers/{{id}}/os-interface/{{port_id}}", self.detach_interface)
        self.on_rest("POST", f"{v}/servers/{{id}}/os-volume_attachments", self.attach_volume_rest)
        self.on_rest("DELETE", f"{v}/servers/{{id}}/os-volume_attachments/{{vol_id}}",
                     self.detach_volume_rest)
        self.on_rest("GET", f"{v}/images", self.proxy_list_images)
        self.on_rest("GET", f"{v}/images/{{id}}", self.proxy_show_image)
        self.on_rest("GET", f"{v}/os-services", self.list_compute_services)
        self.on_rest("POST", f"{v}/os-server-external-events", self.external_events)

        self.on_rpc("select_destinations", self.rpc_select_destinations)
        self.on_rpc("build_and_run_instance", self.rpc_build_and_run)
        self.on_rpc("terminate_instance", self.rpc_terminate)
        self.on_rpc("snapshot_instance", self.rpc_snapshot)
        self.on_rpc("attach_volume", self.rpc_attach_volume)
        self.on_rpc("detach_volume", self.rpc_detach_volume)
        self.on_rpc("prep_resize", self.rpc_prep_resize)
        self.on_rpc("resize_instance", self.rpc_resize_instance)
        self.on_rpc("finish_resize", self.rpc_finish_resize)
        self.on_rpc("live_migration", self.rpc_live_migration)
        self.on_rpc("pre_live_migration", self.rpc_pre_live_migration)
        self.on_rpc("attach_interface", self.rpc_attach_interface)
        self.on_rpc("detach_interface", self.rpc_detach_interface)
        for rpc_name in (
            "reboot_instance", "start_instance", "stop_instance",
            "pause_instance", "unpause_instance", "suspend_instance",
            "resume_instance", "rescue_instance", "unrescue_instance",
            "shelve_instance", "unshelve_instance",
        ):
            self.on_rpc(rpc_name, self._make_state_rpc(rpc_name))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    _ACTION_STATES = {
        "reboot": "ACTIVE", "os-start": "ACTIVE", "os-stop": "SHUTOFF",
        "pause": "PAUSED", "unpause": "ACTIVE", "suspend": "SUSPENDED",
        "resume": "ACTIVE", "rescue": "RESCUE", "unrescue": "ACTIVE",
        "shelve": "SHELVED_OFFLOADED", "unshelve": "ACTIVE",
        "lock": None, "unlock": None,
    }

    _RPC_STATES = {
        "reboot_instance": "ACTIVE", "start_instance": "ACTIVE",
        "stop_instance": "SHUTOFF", "pause_instance": "PAUSED",
        "unpause_instance": "ACTIVE", "suspend_instance": "SUSPENDED",
        "resume_instance": "ACTIVE", "rescue_instance": "RESCUE",
        "unrescue_instance": "ACTIVE", "shelve_instance": "SHELVED_OFFLOADED",
        "unshelve_instance": "ACTIVE",
    }

    def _fail_instance(self, server_id: str, fault: str) -> Generator:
        yield from self.db.update(SERVERS, server_id, status="ERROR", fault=fault)

    def _live_compute_nodes(self) -> List[str]:
        return [
            node.name
            for node in self.topology.compute_nodes()
            if self.processes.is_alive(node.name, "nova-compute")
        ]

    # ------------------------------------------------------------------
    # REST handlers — servers
    # ------------------------------------------------------------------

    def create_server(self, ctx: CallContext, request: Request) -> Generator:
        """POST /v2.1/servers — create an instance (async build)."""
        server_id = self.db.new_id("srv")
        yield from self.db.insert(
            SERVERS,
            {
                "id": server_id,
                "name": request.param("name", server_id),
                "tenant": request.tenant,
                "status": "BUILD",
                "node": None,
                "image": request.param("image", "img-default"),
                "boot_volume": request.param("boot_volume"),
                "network": request.param("network", "net-default"),
                "flavor": request.param("flavor", "m1.small"),
                "fault": None,
                "ports": [],
                "volumes": [],
            },
        )
        sched = yield from ctx.rpc(
            "nova", "select_destinations", {"server_id": server_id},
            resource_ids=(server_id,),
        )
        if sched.error:
            yield from self._fail_instance(server_id, NO_VALID_HOST)
            return {"server": {"id": server_id}}
        host = sched.data["host"]
        yield from self.db.update(SERVERS, server_id, node=host)
        yield from ctx.rpc(
            "nova", "build_and_run_instance",
            {"server_id": server_id}, target_node=host,
            resource_ids=(server_id,),
        )
        return {"server": {"id": server_id}}

    def show_server(self, ctx: CallContext, request: Request) -> Generator:
        """GET /v2.1/servers/{id} — 500 + fault body for ERROR instances."""
        record = yield from self.fetch_or_404(SERVERS, request.param("id", ""), "Instance")
        if record["status"] == "ERROR":
            raise ApiError(500, record.get("fault") or "Instance is in ERROR state")
        return {"server": record}

    def list_servers(self, ctx: CallContext, request: Request) -> Generator:
        """GET /v2.1/servers[/detail]."""
        tenant = request.tenant
        rows = yield from self.db.select(SERVERS, lambda r: r["tenant"] == tenant)
        return {"servers": rows}

    def update_server(self, ctx: CallContext, request: Request) -> Generator:
        """PUT /v2.1/servers/{id} — rename."""
        record = yield from self.db.update(
            SERVERS, request.param("id", ""), name=request.param("name", "renamed")
        )
        self.require(record is not None, 404, "Instance could not be found")
        return {"server": record}

    def delete_server(self, ctx: CallContext, request: Request) -> Generator:
        """DELETE /v2.1/servers/{id} — async teardown."""
        server_id = request.param("id", "")
        record = yield from self.fetch_or_404(SERVERS, server_id, "Instance")
        yield from self.db.update(SERVERS, server_id, status="DELETING")
        target = record.get("node") or self.topology.home_of("nova")
        yield from ctx.rpc(
            "nova", "terminate_instance", {"server_id": server_id},
            target_node=target, resource_ids=(server_id,),
        )
        return {}

    # ------------------------------------------------------------------
    # REST handlers — actions
    # ------------------------------------------------------------------

    def _make_simple_action(self, action: str, rpc_name: Optional[str]):
        final_state = self._ACTION_STATES[action]

        def handler(ctx: CallContext, request: Request) -> Generator:
            server_id = request.param("id", "")
            record = yield from self.fetch_or_404(SERVERS, server_id, "Instance")
            if record["status"] == "ERROR":
                raise ApiError(409, f"Cannot '{action}' instance in ERROR state")
            if rpc_name is not None:
                target = record.get("node") or ctx.node
                response = yield from ctx.rpc(
                    "nova", rpc_name, {"server_id": server_id},
                    target_node=target, resource_ids=(server_id,),
                )
                if response.error:
                    raise ApiError(500, f"{action} failed: {response.body}")
                # The compute agent owns the state transition (the cast
                # handler applies ``final_state``); the API only flags
                # the task in progress, like real Nova.
                yield from self.db.update(
                    SERVERS, server_id, task_state=f"{action}ing"
                )
            elif final_state is not None:
                yield from self.db.update(SERVERS, server_id, status=final_state)
            return {}

        handler.__name__ = f"action_{action.replace('-', '_')}"
        return handler

    def create_image_action(self, ctx: CallContext, request: Request) -> Generator:
        """POST action#createImage — snapshot to Glance (subsumes image create)."""
        server_id = request.param("id", "")
        record = yield from self.fetch_or_404(SERVERS, server_id, "Instance")
        image = yield from ctx.rest(
            "glance", "POST", "/v2/images",
            {"name": f"snap-of-{server_id}"}, resource_ids=(server_id,),
        )
        image.raise_for_status()
        image_id = image.data.get("id", "")
        target = record.get("node") or ctx.node
        yield from ctx.rpc(
            "nova", "snapshot_instance",
            {"server_id": server_id, "image_id": image_id},
            target_node=target, resource_ids=(server_id, image_id),
        )
        return {"image_id": image_id}

    def resize_action(self, ctx: CallContext, request: Request) -> Generator:
        """POST action#resize — prep on target, resize on source."""
        server_id = request.param("id", "")
        record = yield from self.fetch_or_404(SERVERS, server_id, "Instance")
        hosts = self._live_compute_nodes()
        self.require(bool(hosts), 500, NO_VALID_HOST)
        target = hosts[(self._sched_cursor + 1) % len(hosts)]
        prep = yield from ctx.rpc(
            "nova", "prep_resize", {"server_id": server_id},
            target_node=target, resource_ids=(server_id,),
        )
        prep.raise_for_status()
        source = record.get("node") or target
        yield from ctx.rpc(
            "nova", "resize_instance", {"server_id": server_id, "target": target},
            target_node=source, resource_ids=(server_id,),
        )
        yield from self.db.update(SERVERS, server_id, status="VERIFY_RESIZE", node=target)
        return {}

    def confirm_resize_action(self, ctx: CallContext, request: Request) -> Generator:
        """POST action#confirmResize."""
        server_id = request.param("id", "")
        yield from self.fetch_or_404(SERVERS, server_id, "Instance")
        yield from self.db.update(SERVERS, server_id, status="ACTIVE")
        return {}

    def migrate_action(self, ctx: CallContext, request: Request) -> Generator:
        """POST action#migrate — cold migration reuses the resize path."""
        result = yield from self.resize_action(ctx, request)
        return result

    def live_migrate_action(self, ctx: CallContext, request: Request) -> Generator:
        """POST action#os-migrateLive."""
        server_id = request.param("id", "")
        record = yield from self.fetch_or_404(SERVERS, server_id, "Instance")
        hosts = [h for h in self._live_compute_nodes() if h != record.get("node")]
        self.require(bool(hosts), 500, NO_VALID_HOST)
        target = hosts[0]
        pre = yield from ctx.rpc(
            "nova", "pre_live_migration", {"server_id": server_id},
            target_node=target, resource_ids=(server_id,),
        )
        pre.raise_for_status()
        source = record.get("node") or target
        yield from ctx.rpc(
            "nova", "live_migration", {"server_id": server_id, "target": target},
            target_node=source, resource_ids=(server_id,),
        )
        yield from self.db.update(SERVERS, server_id, node=target, status="ACTIVE")
        return {}

    # ------------------------------------------------------------------
    # REST handlers — interfaces / volumes / misc
    # ------------------------------------------------------------------

    def list_interfaces(self, ctx: CallContext, request: Request) -> Generator:
        """GET /servers/{id}/os-interface."""
        record = yield from self.fetch_or_404(SERVERS, request.param("id", ""), "Instance")
        return {"interfaceAttachments": record.get("ports", [])}

    def attach_interface(self, ctx: CallContext, request: Request) -> Generator:
        """POST /servers/{id}/os-interface — new Neutron port on the VM."""
        server_id = request.param("id", "")
        record = yield from self.fetch_or_404(SERVERS, server_id, "Instance")
        target = record.get("node") or ctx.node
        response = yield from ctx.rpc(
            "nova", "attach_interface", {"server_id": server_id},
            target_node=target, resource_ids=(server_id,),
        )
        response.raise_for_status()
        return {"port_id": response.data.get("port_id", "")}

    def detach_interface(self, ctx: CallContext, request: Request) -> Generator:
        """DELETE /servers/{id}/os-interface/{port_id}."""
        server_id = request.param("id", "")
        record = yield from self.fetch_or_404(SERVERS, server_id, "Instance")
        target = record.get("node") or ctx.node
        response = yield from ctx.rpc(
            "nova", "detach_interface",
            {"server_id": server_id, "port_id": request.param("port_id", "")},
            target_node=target, resource_ids=(server_id,),
        )
        response.raise_for_status()
        return {}

    def attach_volume_rest(self, ctx: CallContext, request: Request) -> Generator:
        """POST /servers/{id}/os-volume_attachments."""
        server_id = request.param("id", "")
        volume_id = request.param("volume_id", "")
        record = yield from self.fetch_or_404(SERVERS, server_id, "Instance")
        reserve = yield from ctx.rest(
            "cinder", "POST", "/v2/{tenant}/volumes/{id}/action#os-reserve",
            {"id": volume_id}, resource_ids=(server_id, volume_id),
        )
        reserve.raise_for_status()
        target = record.get("node") or ctx.node
        response = yield from ctx.rpc(
            "nova", "attach_volume",
            {"server_id": server_id, "volume_id": volume_id},
            target_node=target, resource_ids=(server_id, volume_id),
        )
        response.raise_for_status()
        return {"volumeAttachment": {"id": volume_id, "serverId": server_id}}

    def detach_volume_rest(self, ctx: CallContext, request: Request) -> Generator:
        """DELETE /servers/{id}/os-volume_attachments/{vol_id}."""
        server_id = request.param("id", "")
        volume_id = request.param("vol_id", "")
        record = yield from self.fetch_or_404(SERVERS, server_id, "Instance")
        target = record.get("node") or ctx.node
        response = yield from ctx.rpc(
            "nova", "detach_volume",
            {"server_id": server_id, "volume_id": volume_id},
            target_node=target, resource_ids=(server_id, volume_id),
        )
        response.raise_for_status()
        return {}

    def proxy_list_images(self, ctx: CallContext, request: Request) -> Generator:
        """GET /v2.1/images — proxied to Glance."""
        response = yield from ctx.rest("glance", "GET", "/v2/images")
        response.raise_for_status()
        return response.data

    def proxy_show_image(self, ctx: CallContext, request: Request) -> Generator:
        """GET /v2.1/images/{id} — proxied to Glance."""
        response = yield from ctx.rest(
            "glance", "GET", "/v2/images/{id}", {"id": request.param("id", "")}
        )
        response.raise_for_status()
        return response.data

    def list_compute_services(self, ctx: CallContext, request: Request) -> Generator:
        """GET /os-services — liveness as nova sees it (heartbeat-based)."""
        yield from self.db.scan(SERVERS)
        services = [
            {
                "binary": "nova-compute",
                "host": node.name,
                "state": "up" if self.processes.is_alive(node.name, "nova-compute") else "down",
            }
            for node in self.topology.compute_nodes()
        ]
        return {"services": services}

    def external_events(self, ctx: CallContext, request: Request) -> Generator:
        """POST /os-server-external-events — Neutron's vif-plugged callback."""
        server_id = request.param("server_id", "")
        yield from self.db.update(SERVERS, server_id, vif_plugged=True)
        return {}

    # ------------------------------------------------------------------
    # RPC handlers — scheduler and compute agent
    # ------------------------------------------------------------------

    def rpc_select_destinations(self, ctx: CallContext, request: Request) -> Generator:
        """Scheduler: pick a live compute host (round robin)."""
        yield from self.db.scan(SERVERS)
        hosts = self._live_compute_nodes()
        if not hosts:
            raise RpcError(NO_VALID_HOST, kind="NoValidHost")
        self._sched_cursor = (self._sched_cursor + 1) % len(hosts)
        return {"host": hosts[self._sched_cursor]}

    def rpc_build_and_run(self, ctx: CallContext, request: Request) -> Generator:
        """Compute agent: the §2.1 build cascade (runs on the hypervisor)."""
        server_id = request.param("server_id", "")
        record = yield from self.db.get(SERVERS, server_id)
        if record is None:
            return {}
        if not self.processes.is_alive(ctx.node, "libvirtd"):
            yield from self._fail_instance(server_id, "Hypervisor connection failed")
            return {}
        # Conductor-mediated state update (nova-compute never writes the
        # DB directly in Liberty) — visible RPC chatter on the wire.
        yield from ctx.rpc("nova", "instance_update",
                           {"server_id": server_id, "task_state": "spawning"},
                           resource_ids=(server_id,))
        boot_volume = record.get("boot_volume")
        if boot_volume:
            # Boot from volume: the root disk comes from Cinder, not
            # Glance — connect it before networking.
            conn = yield from ctx.rest(
                "cinder", "POST",
                "/v2/{tenant}/volumes/{id}/action#os-initialize_connection",
                {"id": boot_volume}, resource_ids=(server_id, boot_volume),
            )
            if conn.error:
                yield from self._fail_instance(
                    server_id, f"Boot volume {boot_volume} unavailable"
                )
                return {}
            yield from ctx.rest(
                "cinder", "POST", "/v2/{tenant}/volumes/{id}/action#os-attach",
                {"id": boot_volume, "server_id": server_id},
                resource_ids=(server_id, boot_volume),
            )
            yield from self.db.update(
                SERVERS, server_id,
                volumes=(record.get("volumes") or []) + [boot_volume],
            )
        else:
            image = yield from ctx.rest(
                "glance", "GET", "/v2/images/{id}", {"id": record["image"]},
                resource_ids=(server_id, record["image"]),
            )
            if image.error:
                yield from self._fail_instance(
                    server_id, f"Image {record['image']} could not be fetched"
                )
                return {}
        yield from ctx.rest("neutron", "GET", "/v2.0/networks.json")
        yield from ctx.rest("neutron", "GET", "/v2.0/ports.json")
        yield from ctx.rest("neutron", "GET", "/v2.0/security-groups.json")
        port = yield from ctx.rest(
            "neutron", "POST", "/v2.0/ports.json",
            {
                "device_id": server_id,
                "network_id": record["network"],
                "binding_host": ctx.node,
            },
            resource_ids=(server_id, record["network"]),
        )
        if port.error or port.data.get("binding") == "failed":
            yield from self._fail_instance(server_id, NO_VALID_HOST)
            return {}
        port_id = port.data.get("id", "")
        details = yield from ctx.rpc(
            "neutron", "get_devices_details_list", {"devices": [port_id]},
            resource_ids=(server_id, port_id),
        )
        if details.error:
            yield from self._fail_instance(server_id, NO_VALID_HOST)
            return {}
        yield from ctx.rpc(
            "neutron", "security_group_info_for_devices", {"devices": [port_id]},
            resource_ids=(server_id, port_id),
        )
        up = yield from ctx.rpc(
            "neutron", "update_device_up",
            {"server_id": server_id, "port_id": port_id},
            resource_ids=(server_id, port_id),
        )
        if up.error:
            yield from self._fail_instance(server_id, NO_VALID_HOST)
            return {}
        yield Timeout(0.03)  # hypervisor boot time
        yield from self.db.update(
            SERVERS, server_id, status="ACTIVE",
            ports=(record.get("ports") or []) + [port_id],
        )
        yield from ctx.rpc("nova", "update_available_resource",
                           {"host": ctx.node}, resource_ids=(server_id,))
        return {}

    def rpc_terminate(self, ctx: CallContext, request: Request) -> Generator:
        """Compute agent: tear down the instance and its ports."""
        server_id = request.param("server_id", "")
        record = yield from self.db.get(SERVERS, server_id)
        if record is None:
            return {}
        for port_id in record.get("ports") or []:
            yield from ctx.rest(
                "neutron", "DELETE", "/v2.0/ports.json/{id}", {"id": port_id},
                resource_ids=(server_id, port_id),
            )
        for volume_id in record.get("volumes") or []:
            # Still-attached volumes are released back to Cinder.
            yield from ctx.rest(
                "cinder", "POST", "/v2/{tenant}/volumes/{id}/action#os-detach",
                {"id": volume_id}, resource_ids=(server_id, volume_id),
            )
        yield Timeout(0.01)
        yield from self.db.delete(SERVERS, server_id)
        yield from ctx.rpc("nova", "update_available_resource",
                           {"host": ctx.node}, resource_ids=(server_id,))
        return {}

    def rpc_snapshot(self, ctx: CallContext, request: Request) -> Generator:
        """Compute agent: upload the snapshot image to Glance."""
        image_id = request.param("image_id", "")
        yield Timeout(0.02)  # qemu-img snapshot time
        upload = yield from ctx.rest(
            "glance", "PUT", "/v2/images/{id}/file",
            {"id": image_id, "size_gb": 1.0}, resource_ids=(image_id,),
        )
        server_id = request.param("server_id", "")
        if upload.error and server_id:
            yield from self.db.update(SERVERS, server_id, snapshot_error=upload.status)
        return {}

    def rpc_attach_volume(self, ctx: CallContext, request: Request) -> Generator:
        """Compute agent: connect the volume through Cinder."""
        server_id = request.param("server_id", "")
        volume_id = request.param("volume_id", "")
        conn = yield from ctx.rest(
            "cinder", "POST", "/v2/{tenant}/volumes/{id}/action#os-initialize_connection",
            {"id": volume_id}, resource_ids=(server_id, volume_id),
        )
        conn.raise_for_status()
        attach = yield from ctx.rest(
            "cinder", "POST", "/v2/{tenant}/volumes/{id}/action#os-attach",
            {"id": volume_id, "server_id": server_id},
            resource_ids=(server_id, volume_id),
        )
        attach.raise_for_status()
        record = yield from self.db.get(SERVERS, server_id)
        if record is not None:
            yield from self.db.update(
                SERVERS, server_id,
                volumes=(record.get("volumes") or []) + [volume_id],
            )
        return {}

    def rpc_detach_volume(self, ctx: CallContext, request: Request) -> Generator:
        """Compute agent: disconnect the volume."""
        server_id = request.param("server_id", "")
        volume_id = request.param("volume_id", "")
        yield from ctx.rest(
            "cinder", "POST", "/v2/{tenant}/volumes/{id}/action#os-terminate_connection",
            {"id": volume_id}, resource_ids=(server_id, volume_id),
        )
        yield from ctx.rest(
            "cinder", "POST", "/v2/{tenant}/volumes/{id}/action#os-detach",
            {"id": volume_id}, resource_ids=(server_id, volume_id),
        )
        record = yield from self.db.get(SERVERS, server_id)
        if record is not None:
            volumes = [v for v in (record.get("volumes") or []) if v != volume_id]
            yield from self.db.update(SERVERS, server_id, volumes=volumes)
        return {}

    def rpc_prep_resize(self, ctx: CallContext, request: Request) -> Generator:
        """Target hypervisor: claim resources for an incoming resize."""
        if not self.processes.is_alive(ctx.node, "nova-compute"):
            raise RpcError("compute service unavailable", kind="ComputeServiceUnavailable")
        yield Timeout(0.01)
        return {}

    def rpc_resize_instance(self, ctx: CallContext, request: Request) -> Generator:
        """Source hypervisor: move the instance."""
        yield Timeout(0.04)
        return {}

    def rpc_finish_resize(self, ctx: CallContext, request: Request) -> Generator:
        """Target hypervisor: finalize resize."""
        yield Timeout(0.01)
        return {}

    def rpc_live_migration(self, ctx: CallContext, request: Request) -> Generator:
        """Source hypervisor: live-migrate memory pages across."""
        if not self.processes.is_alive(ctx.node, "libvirtd"):
            raise RpcError("libvirt connection broken", kind="HypervisorUnavailable")
        yield Timeout(0.08)
        return {}

    def rpc_pre_live_migration(self, ctx: CallContext, request: Request) -> Generator:
        """Target hypervisor: pre-migration checks."""
        if not self.processes.is_alive(ctx.node, "nova-compute"):
            raise RpcError("compute service unavailable", kind="ComputeServiceUnavailable")
        yield Timeout(0.01)
        return {}

    def rpc_attach_interface(self, ctx: CallContext, request: Request) -> Generator:
        """Compute agent: hot-plug a new port."""
        server_id = request.param("server_id", "")
        port = yield from ctx.rest(
            "neutron", "POST", "/v2.0/ports.json",
            {"device_id": server_id, "binding_host": ctx.node},
            resource_ids=(server_id,),
        )
        port.raise_for_status()
        if port.data.get("binding") == "failed":
            raise RpcError("vif plugging failed", kind="VirtualInterfaceCreateException")
        record = yield from self.db.get(SERVERS, server_id)
        if record is not None:
            yield from self.db.update(
                SERVERS, server_id,
                ports=(record.get("ports") or []) + [port.data.get("id", "")],
            )
        return {"port_id": port.data.get("id", "")}

    def rpc_detach_interface(self, ctx: CallContext, request: Request) -> Generator:
        """Compute agent: unplug and delete a port."""
        server_id = request.param("server_id", "")
        port_id = request.param("port_id", "")
        yield from ctx.rest(
            "neutron", "DELETE", "/v2.0/ports.json/{id}", {"id": port_id},
            resource_ids=(server_id, port_id),
        )
        record = yield from self.db.get(SERVERS, server_id)
        if record is not None:
            ports = [p for p in (record.get("ports") or []) if p != port_id]
            yield from self.db.update(SERVERS, server_id, ports=ports)
        return {}

    def _make_state_rpc(self, rpc_name: str):
        final_state = self._RPC_STATES[rpc_name]

        def handler(ctx: CallContext, request: Request) -> Generator:
            if not self.processes.is_alive(ctx.node, "libvirtd"):
                raise RpcError("libvirt connection broken", kind="HypervisorUnavailable")
            yield Timeout(0.008)
            server_id = request.param("server_id", "")
            yield from self.db.update(SERVERS, server_id, status=final_state)
            return {}

        handler.__name__ = f"rpc_{rpc_name}"
        return handler

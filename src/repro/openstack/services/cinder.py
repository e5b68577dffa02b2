"""Cinder: block storage as a service.

Volume creation is asynchronous like the real service: the API inserts
a ``creating`` record and casts ``create_volume`` to the
``cinder-volume`` backend; status polls observe ``available`` (or a
500 with the fault message when the backend is down).  ``cinder list``
is the entry point of the paper's §7.2.4 NTP case study — the
token-validation leg in :class:`repro.openstack.services.base.Service`
produces the 401 from Keystone when the Cinder node's clock drifts.
"""

from __future__ import annotations

from typing import Generator

from repro.sim import Timeout
from repro.openstack.errors import ApiError, RpcError
from repro.openstack.messaging import CallContext, Request
from repro.openstack.services.base import Service

VOLUMES = "cinder:volumes"
SNAPSHOTS = "cinder:snapshots"
BACKUPS = "cinder:backups"


class CinderService(Service):
    """Block-storage service handlers."""

    name = "cinder"

    def _register(self) -> None:
        v = "/v2/{tenant}"
        self.on_rest("POST", f"{v}/volumes", self.create_volume)
        self.on_rest("GET", f"{v}/volumes", self.list_volumes)
        self.on_rest("GET", f"{v}/volumes/detail", self.list_volumes)
        self.on_rest("GET", f"{v}/volumes/{{id}}", self.show_volume)
        self.on_rest("DELETE", f"{v}/volumes/{{id}}", self.delete_volume)
        for action in ("os-reserve", "os-unreserve", "os-attach", "os-detach",
                       "os-initialize_connection", "os-terminate_connection",
                       "os-begin_detaching", "os-roll_detaching"):
            self.on_rest("POST", f"{v}/volumes/{{id}}/action#{action}",
                         self._make_volume_action(action))
        self.on_rest("POST", f"{v}/volumes/{{id}}/action#os-extend", self.extend_volume)
        self.on_rest("POST", f"{v}/volumes/{{id}}/action#os-volume_upload_image",
                     self.upload_to_image)
        self.on_rest("POST", f"{v}/snapshots", self.create_snapshot)
        self.on_rest("GET", f"{v}/snapshots/{{id}}", self.show_snapshot)
        self.on_rest("DELETE", f"{v}/snapshots/{{id}}", self.delete_snapshot)
        self.on_rest("POST", f"{v}/backups", self.create_backup)
        self.on_rest("DELETE", f"{v}/backups/{{id}}", self.delete_backup)
        self.on_rest("GET", f"{v}/os-services", self.list_services)

        self.on_rpc("create_volume", self.rpc_create_volume)
        self.on_rpc("delete_volume", self.rpc_delete_volume)
        self.on_rpc("create_snapshot", self.rpc_create_snapshot)
        self.on_rpc("delete_snapshot", self.rpc_delete_snapshot)
        self.on_rpc("create_backup", self.rpc_create_backup)
        self.on_rpc("extend_volume", self.rpc_extend_volume)
        self.on_rpc("initialize_connection", self.rpc_initialize_connection)
        self.on_rpc("terminate_connection", self.rpc_terminate_connection)

    _ACTION_STATES = {
        "os-reserve": "attaching",
        "os-unreserve": "available",
        "os-attach": "in-use",
        "os-detach": "available",
        "os-begin_detaching": "detaching",
        "os-roll_detaching": "in-use",
        "os-initialize_connection": None,
        "os-terminate_connection": None,
    }

    # -- REST: volumes ------------------------------------------------------

    def create_volume(self, ctx: CallContext, request: Request) -> Generator:
        """POST /volumes — insert record, cast to the backend."""
        volume_id = self.db.new_id("vol")
        yield from self.db.insert(
            VOLUMES,
            {"id": volume_id, "name": request.param("name", volume_id),
             "tenant": request.tenant, "size_gb": float(request.param("size_gb", 1.0)),
             "status": "creating", "fault": None},
        )
        yield from ctx.rpc(
            "cinder", "create_volume", {"volume_id": volume_id},
            resource_ids=(volume_id,),
        )
        return {"volume": {"id": volume_id, "status": "creating"}, "id": volume_id}

    def list_volumes(self, ctx: CallContext, request: Request) -> Generator:
        """GET /volumes[/detail] — the `cinder list` entry point."""
        tenant = request.tenant
        rows = yield from self.db.select(VOLUMES, lambda r: r["tenant"] == tenant)
        return {"volumes": rows}

    def show_volume(self, ctx: CallContext, request: Request) -> Generator:
        """GET /volumes/{id} — 500 + fault body for ERRORed volumes."""
        record = yield from self.fetch_or_404(VOLUMES, request.param("id", ""), "Volume")
        if record["status"] == "error":
            raise ApiError(500, record.get("fault") or "Volume is in error state")
        return {"volume": record}

    def delete_volume(self, ctx: CallContext, request: Request) -> Generator:
        """DELETE /volumes/{id} — async backend teardown."""
        volume_id = request.param("id", "")
        record = yield from self.fetch_or_404(VOLUMES, volume_id, "Volume")
        self.require(record["status"] not in ("in-use", "attaching"), 400,
                     "Volume is attached; detach before delete")
        yield from self.db.update(VOLUMES, volume_id, status="deleting")
        yield from ctx.rpc(
            "cinder", "delete_volume", {"volume_id": volume_id},
            resource_ids=(volume_id,),
        )
        return {}

    def _make_volume_action(self, action: str):
        new_status = self._ACTION_STATES[action]

        def handler(ctx: CallContext, request: Request) -> Generator:
            volume_id = request.param("id", "")
            record = yield from self.fetch_or_404(VOLUMES, volume_id, "Volume")
            if record["status"] == "error":
                raise ApiError(400, f"Invalid volume state for {action}")
            if action in ("os-initialize_connection", "os-terminate_connection"):
                rpc_name = action[len("os-"):]
                response = yield from ctx.rpc(
                    "cinder", rpc_name, {"volume_id": volume_id},
                    resource_ids=(volume_id,),
                )
                response.raise_for_status()
            if new_status is not None:
                yield from self.db.update(VOLUMES, volume_id, status=new_status)
            return {}

        handler.__name__ = f"volume_action_{action.replace('-', '_')}"
        return handler

    def extend_volume(self, ctx: CallContext, request: Request) -> Generator:
        """POST action#os-extend."""
        volume_id = request.param("id", "")
        record = yield from self.fetch_or_404(VOLUMES, volume_id, "Volume")
        self.require(record["status"] == "available", 400,
                     "Volume must be available to extend")
        yield from ctx.rpc(
            "cinder", "extend_volume",
            {"volume_id": volume_id, "new_size": request.param("new_size", 2.0)},
            resource_ids=(volume_id,),
        )
        return {}

    def upload_to_image(self, ctx: CallContext, request: Request) -> Generator:
        """POST action#os-volume_upload_image — volume → Glance image."""
        volume_id = request.param("id", "")
        record = yield from self.fetch_or_404(VOLUMES, volume_id, "Volume")
        image = yield from ctx.rest(
            "glance", "POST", "/v2/images",
            {"name": f"from-{volume_id}"}, resource_ids=(volume_id,),
        )
        image.raise_for_status()
        upload = yield from ctx.rest(
            "glance", "PUT", "/v2/images/{id}/file",
            {"id": image.data.get("id", ""), "size_gb": record.get("size_gb", 1.0)},
            resource_ids=(volume_id, image.data.get("id", "")),
        )
        upload.raise_for_status()
        return {"image_id": image.data.get("id", "")}

    # -- REST: snapshots / backups -------------------------------------------

    def create_snapshot(self, ctx: CallContext, request: Request) -> Generator:
        """POST /snapshots."""
        volume_id = request.param("volume_id", "")
        yield from self.fetch_or_404(VOLUMES, volume_id, "Volume")
        snapshot_id = self.db.new_id("snp")
        yield from self.db.insert(
            SNAPSHOTS, {"id": snapshot_id, "volume_id": volume_id, "status": "creating"}
        )
        yield from ctx.rpc(
            "cinder", "create_snapshot", {"snapshot_id": snapshot_id},
            resource_ids=(volume_id, snapshot_id),
        )
        return {"snapshot": {"id": snapshot_id}, "id": snapshot_id}

    def show_snapshot(self, ctx: CallContext, request: Request) -> Generator:
        """GET /snapshots/{id}."""
        record = yield from self.fetch_or_404(SNAPSHOTS, request.param("id", ""), "Snapshot")
        return {"snapshot": record}

    def delete_snapshot(self, ctx: CallContext, request: Request) -> Generator:
        """DELETE /snapshots/{id}."""
        snapshot_id = request.param("id", "")
        yield from self.fetch_or_404(SNAPSHOTS, snapshot_id, "Snapshot")
        yield from ctx.rpc(
            "cinder", "delete_snapshot", {"snapshot_id": snapshot_id},
            resource_ids=(snapshot_id,),
        )
        return {}

    def create_backup(self, ctx: CallContext, request: Request) -> Generator:
        """POST /backups — backed by Swift object storage."""
        volume_id = request.param("volume_id", "")
        record = yield from self.fetch_or_404(VOLUMES, volume_id, "Volume")
        backup_id = self.db.new_id("bak")
        yield from self.db.insert(
            BACKUPS, {"id": backup_id, "volume_id": volume_id,
                      "size_gb": record.get("size_gb", 1.0), "status": "creating"}
        )
        yield from ctx.rpc(
            "cinder", "create_backup", {"backup_id": backup_id},
            resource_ids=(volume_id, backup_id),
        )
        return {"backup": {"id": backup_id}, "id": backup_id}

    def delete_backup(self, ctx: CallContext, request: Request) -> Generator:
        """DELETE /backups/{id}."""
        backup_id = request.param("id", "")
        yield from self.fetch_or_404(BACKUPS, backup_id, "Backup")
        yield from self.db.delete(BACKUPS, backup_id)
        yield from ctx.rest(
            "swift", "DELETE", "/v1/{account}/{container}/{object}",
            {"object": backup_id}, resource_ids=(backup_id,),
        )
        return {}

    def list_services(self, ctx: CallContext, request: Request) -> Generator:
        """GET /os-services — backend liveness."""
        yield from self.db.scan(VOLUMES)
        home = self.topology.home_of("cinder")
        return {
            "services": [{
                "binary": "cinder-volume",
                "host": home,
                "state": "up" if self.processes.is_alive(home, "cinder-volume") else "down",
            }]
        }

    # -- RPC handlers (cinder-volume backend) -----------------------------------

    def _backend_alive(self, ctx: CallContext) -> bool:
        return self.processes.is_alive(ctx.node, "cinder-volume")

    def rpc_create_volume(self, ctx: CallContext, request: Request) -> Generator:
        """Backend: allocate the volume (async, sets final status)."""
        volume_id = request.param("volume_id", "")
        if not self._backend_alive(ctx):
            yield from self.db.update(
                VOLUMES, volume_id, status="error",
                fault="Volume backend unavailable: cinder-volume is down",
            )
            return {}
        record = yield from self.db.get(VOLUMES, volume_id)
        if record is None:
            return {}
        resources = self.cloud.resources[ctx.node]
        if resources.disk_free_gb(ctx.sim.now) < record.get("size_gb", 1.0):
            yield from self.db.update(
                VOLUMES, volume_id, status="error",
                fault="Insufficient free space for volume provisioning",
            )
            return {}
        yield Timeout(0.02)  # LVM provisioning time
        resources.consume_disk(record.get("size_gb", 1.0))
        yield from self.db.update(VOLUMES, volume_id, status="available")
        return {}

    def rpc_delete_volume(self, ctx: CallContext, request: Request) -> Generator:
        """Backend: free the volume."""
        volume_id = request.param("volume_id", "")
        record = yield from self.db.get(VOLUMES, volume_id)
        if record is not None:
            self.cloud.resources[ctx.node].release_disk(record.get("size_gb", 0.0))
            yield from self.db.delete(VOLUMES, volume_id)
        return {}

    def rpc_create_snapshot(self, ctx: CallContext, request: Request) -> Generator:
        """Backend: snapshot the volume."""
        yield Timeout(0.015)
        yield from self.db.update(
            SNAPSHOTS, request.param("snapshot_id", ""), status="available"
        )
        return {}

    def rpc_delete_snapshot(self, ctx: CallContext, request: Request) -> Generator:
        """Backend: remove the snapshot."""
        yield from self.db.delete(SNAPSHOTS, request.param("snapshot_id", ""))
        return {}

    def rpc_create_backup(self, ctx: CallContext, request: Request) -> Generator:
        """Backend: stream the backup into Swift."""
        backup_id = request.param("backup_id", "")
        record = yield from self.db.get(BACKUPS, backup_id)
        if record is None:
            return {}
        upload = yield from ctx.rest(
            "swift", "PUT", "/v1/{account}/{container}/{object}",
            {"object": backup_id, "size_gb": record.get("size_gb", 1.0)},
            resource_ids=(backup_id,),
        )
        status = "available" if upload.ok else "error"
        yield from self.db.update(BACKUPS, backup_id, status=status)
        return {}

    def rpc_extend_volume(self, ctx: CallContext, request: Request) -> Generator:
        """Backend: grow the volume."""
        if not self._backend_alive(ctx):
            raise RpcError("cinder-volume is down", kind="ServiceUnavailable")
        yield Timeout(0.01)
        volume_id = request.param("volume_id", "")
        yield from self.db.update(
            VOLUMES, volume_id, size_gb=float(request.param("new_size", 2.0))
        )
        return {}

    def rpc_initialize_connection(self, ctx: CallContext, request: Request) -> Generator:
        """Backend: export the volume to the hypervisor."""
        if not self._backend_alive(ctx):
            raise RpcError("cinder-volume is down", kind="ServiceUnavailable")
        yield Timeout(0.008)
        return {"connection_info": {"driver": "iscsi"}}

    def rpc_terminate_connection(self, ctx: CallContext, request: Request) -> Generator:
        """Backend: tear down the export."""
        yield Timeout(0.005)
        return {}

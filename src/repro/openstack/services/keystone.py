"""Keystone: the identity service.

Beyond generic CRUD for users/projects/roles, Keystone implements the
token issue/validate endpoints that every other service leans on — and
the failure mode of §7.2.4: when NTP is stopped on either end of an
authentication exchange, token timestamps skew outside the acceptance
window and Keystone answers **401 Unauthorized**.
"""

from __future__ import annotations

from typing import Generator

from repro.openstack.errors import ApiError
from repro.openstack.messaging import CallContext, Request
from repro.openstack.services.base import Service


class KeystoneService(Service):
    """Identity service handlers."""

    name = "keystone"

    def _register(self) -> None:
        self.on_rest("POST", "/v3/auth/tokens", self.issue_token)
        self.on_rest("GET", "/v3/auth/tokens", self.validate_token)
        self.on_rest("HEAD", "/v3/auth/tokens", self.validate_token)
        self.on_rest("DELETE", "/v3/auth/tokens", self.revoke_token)
        self.on_rest("POST", "/v3/users", self.create_user)
        self.on_rest("POST", "/v3/projects", self.create_project)

    # -- clock-skew check (the §7.2.4 mechanism) -----------------------------

    def _check_clocks(self, ctx: CallContext, request: Request) -> None:
        """401 when NTP is dead on the keystone node or the caller node."""
        own_node = ctx.node
        if not self.processes.is_alive(own_node, "ntp"):
            raise ApiError(401, "Unauthorized: token timestamp out of window")
        caller_node = request.caller_node
        if caller_node and self.processes.has(caller_node, "ntp"):
            if not self.processes.is_alive(caller_node, "ntp"):
                raise ApiError(401, "Unauthorized: token timestamp out of window")

    # -- handlers -------------------------------------------------------------

    def issue_token(self, ctx: CallContext, request: Request) -> Generator:
        """POST /v3/auth/tokens — authenticate and issue a token.

        One row per tenant (latest token), like a Fernet-style setup —
        the token table must not grow with authentication volume.
        """
        self._check_clocks(ctx, request)
        token_id = f"tok-{request.tenant}"
        yield from self.db.insert(
            "keystone:tokens",
            {"id": token_id, "tenant": request.tenant, "issued": ctx.sim.now},
        )
        return {"token": token_id}

    def validate_token(self, ctx: CallContext, request: Request) -> Generator:
        """GET/HEAD /v3/auth/tokens — validate a subject token."""
        self._check_clocks(ctx, request)
        yield from self.db.get("keystone:tokens", f"tok-{request.tenant}")
        return {"valid": True}

    def revoke_token(self, ctx: CallContext, request: Request) -> Generator:
        """DELETE /v3/auth/tokens — revoke a token."""
        yield from self.db.delete("keystone:tokens", request.param("id", ""))
        return {}

    def create_user(self, ctx: CallContext, request: Request) -> Generator:
        """POST /v3/users."""
        user_id = self.db.new_id("usr")
        yield from self.db.insert(
            "keystone:users", {"id": user_id, "name": request.param("name", user_id)}
        )
        return {"user": {"id": user_id}}

    def create_project(self, ctx: CallContext, request: Request) -> Generator:
        """POST /v3/projects."""
        project_id = self.db.new_id("prj")
        yield from self.db.insert(
            "keystone:projects", {"id": project_id, "name": request.param("name", project_id)}
        )
        return {"project": {"id": project_id}}

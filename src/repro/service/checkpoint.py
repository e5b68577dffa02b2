"""Durable per-tenant checkpoints: JSON files, atomically replaced.

One :class:`CheckpointStore` owns a directory of
``<tenant>.checkpoint.json`` files.  Each file is an envelope around a
:class:`~repro.service.session.TenantSession` state dict (the core
state-lifecycle protocol, :mod:`repro.core.state`).  The envelope's
``fmt`` tag, checked once on :meth:`CheckpointStore.load`, covers the
envelope and the session document; the analyzer document inside
carries the only other tag.  The whole text is encoded before any file
is opened — one ``json.dumps``, the only stdlib entry point that
reaches the C encoder — then written to a temp file and moved in with
``os.replace``, so a state that cannot be encoded, or a process killed
mid-write, leaves the previous checkpoint intact: a torn checkpoint
would otherwise rehydrate a half-written pipeline.  There is no
``fsync``: a checkpoint survives a killed process, not a lost page
cache.

Tenant ids become filenames through a conservative sanitizer (the id
itself is stored *inside* the envelope and checked on load, so two
ids colliding after sanitization fail loudly instead of silently
restoring the wrong tenant).
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.core.state import StateError, require_state

#: Filename-safe characters; everything else becomes ``_``.
_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")

_SUFFIX = ".checkpoint.json"


class CheckpointStore:
    """Per-tenant checkpoint files under one root directory."""

    #: Covers the envelope and the session document inside it: a
    #: change to either shape bumps it.
    STATE_FMT = "gretel-checkpoint/v2"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.writes = 0
        #: Cumulative size and wall clock of every :meth:`save`: what
        #: durability costs the thread that asked for it.
        self.bytes_written = 0
        self.save_seconds = 0.0
        self.loads = 0

    def path_for(self, tenant: str) -> Path:
        """The checkpoint file backing one tenant."""
        safe = _UNSAFE.sub("_", tenant) or "_"
        return self.root / f"{safe}{_SUFFIX}"

    def save(
        self, tenant: str, state: Mapping[str, Any], *, seq: int
    ) -> Path:
        """Atomically persist one tenant's session state.

        ``seq`` is the session's events-ingested watermark, stored in
        the envelope for observability (``repro serve`` prints it).
        """
        started = time.perf_counter()
        path = self.path_for(tenant)
        envelope = {
            "fmt": self.STATE_FMT,
            "tenant": tenant,
            "seq": seq,
            "state": dict(state),
        }
        text = json.dumps(envelope, separators=(",", ":")) + "\n"
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
        self.writes += 1
        self.bytes_written += len(text)  # ensure_ascii: chars are bytes
        self.save_seconds += time.perf_counter() - started
        return path

    def load(self, tenant: str) -> Optional[Dict[str, Any]]:
        """The persisted session state for ``tenant``, or ``None``.

        A malformed envelope or a tenant mismatch (two ids collapsing
        to one sanitized filename) raises :class:`StateError` rather
        than restoring the wrong stream position.
        """
        path = self.path_for(tenant)
        try:
            with open(path, encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            raise StateError(
                f"unreadable checkpoint for {tenant!r} at {path}: {exc}"
            ) from exc
        require_state(envelope, self.STATE_FMT)
        if envelope.get("tenant") != tenant:
            raise StateError(
                f"checkpoint at {path} belongs to tenant "
                f"{envelope.get('tenant')!r}, not {tenant!r}"
            )
        self.loads += 1
        state = envelope.get("state")
        if not isinstance(state, dict):
            raise StateError(
                f"checkpoint for {tenant!r} carries no state dict"
            )
        return state

    def tenants(self) -> List[str]:
        """Tenant ids with a persisted checkpoint, sorted."""
        found: List[str] = []
        for path in self.root.glob(f"*{_SUFFIX}"):
            try:
                with open(path, encoding="utf-8") as handle:
                    envelope = json.load(handle)
            except (OSError, ValueError):
                continue
            if not isinstance(envelope, dict):
                continue
            tenant = envelope.get("tenant")
            if isinstance(tenant, str):
                found.append(tenant)
        return sorted(found)

    def delete(self, tenant: str) -> bool:
        """Remove one tenant's checkpoint; True if one existed."""
        path = self.path_for(tenant)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

"""Durable per-tenant checkpoints: JSON files, atomically replaced.

One :class:`CheckpointStore` owns a directory of
``<tenant>.checkpoint.json`` files.  Each file is an envelope around a
:class:`~repro.service.session.TenantSession` state dict (the core
state-lifecycle protocol, :mod:`repro.core.state`).  The envelope's
``fmt`` tag, checked once by :meth:`CheckpointStore.load_all` (the
store's one reader), covers the envelope and the session document;
the analyzer document inside carries the only other tag.  The whole
text is encoded before any file is opened — one ``json.dumps``, the
only stdlib entry point that reaches the C encoder — then written to
a temp file and moved in with ``os.replace``, so a state that cannot
be encoded, or a process killed mid-write, leaves the previous
checkpoint intact: a torn checkpoint would otherwise rehydrate a
half-written pipeline.  There is no ``fsync``: a checkpoint survives
a killed process, not a lost page cache.

Tenant ids become filenames one to one: every byte outside
``[A-Za-z0-9_.~-]`` is percent-encoded, and the empty id, which no
other id encodes to, is ``%``.  Two tenants never share a file, so a
save never refuses, and ``tenant-0`` keeps its plain name.  The id
is also stored inside the envelope, and :meth:`CheckpointStore.load_all`
refuses a file whose envelope names a tenant with another file name.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Tuple, Union
from urllib.parse import quote

from repro.core.state import StateError, require_state

_SUFFIX = ".checkpoint.json"


class CheckpointStore:
    """Per-tenant checkpoint files under one root directory."""

    #: Covers the envelope and the session document inside it: a
    #: change to either shape bumps it.
    STATE_FMT = "gretel-checkpoint/v5"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Cumulative size and wall clock of every :meth:`save`: what
        #: durability costs the thread that asked for it.
        self.bytes_written = 0
        self.save_seconds = 0.0

    def path_for(self, tenant: str) -> Path:
        """The checkpoint file backing one tenant, and no other."""
        return self.root / f"{quote(tenant, safe='') or '%'}{_SUFFIX}"

    def save(
        self, tenant: str, state: Mapping[str, Any], *, seq: int
    ) -> Path:
        """Atomically persist one tenant's session state.

        ``seq`` is the session's events-ingested watermark, stored in
        the envelope for whoever reads the file; a restore reads the
        session document's own ``events_ingested``.
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
        self.bytes_written += len(text)  # ensure_ascii: chars are bytes
        self.save_seconds += time.perf_counter() - started
        return path

    def load_all(self) -> Dict[str, Dict[str, Any]]:
        """Every persisted session state, by tenant: the store's one
        reader, each file parsed once.

        Every ``*.checkpoint.json`` in the directory must be a
        checkpoint this build restores.  A file that does not parse,
        is not an object, carries another tag, names no tenant, sits
        under another tenant's filename or holds no state dict raises
        :class:`StateError`, and nothing is returned: a restart that
        cannot read a tenant refuses instead of leaving it behind.
        """
        states = {}
        for path in sorted(self.root.glob(f"*{_SUFFIX}")):
            try:
                envelope = self._parse(path)
            except (OSError, ValueError) as exc:
                raise StateError(
                    f"unreadable checkpoint at {path}: {exc}"
                ) from exc
            tenant, state = self._state_of(path, envelope)
            states[tenant] = state
        return dict(sorted(states.items()))

    def _parse(self, path: Path) -> Any:
        """One checkpoint file, parsed: the only place a file is read."""
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def _state_of(self, path: Path,
                  envelope: Any) -> Tuple[str, Dict[str, Any]]:
        """The tenant and session state inside ``envelope``, read from
        ``path``, once the tag and the tenant check out."""
        if not isinstance(envelope, dict):
            raise StateError(f"checkpoint at {path} is not an object")
        require_state(envelope, self.STATE_FMT)
        tenant = envelope.get("tenant")
        if not isinstance(tenant, str):
            raise StateError(f"checkpoint at {path} names no tenant")
        if self.path_for(tenant) != path:
            raise StateError(
                f"checkpoint at {path} belongs to tenant {tenant!r}, "
                f"whose file is {self.path_for(tenant).name}"
            )
        state = envelope.get("state")
        if not isinstance(state, dict):
            raise StateError(f"checkpoint at {path} carries no state dict")
        return tenant, state

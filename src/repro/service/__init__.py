"""The long-running streaming service layer over the batch pipeline.

Everything below :mod:`repro.core` analyzes one finite capture and is
discarded; this package promotes that machinery to a standing service
(the ROADMAP's "streaming service mode"): per-tenant analyzer
sessions (:mod:`repro.service.session`) with bounded ingest queues,
an explicit backpressure policy and one pump thread per tenant (the
service's only router), durable periodic checkpoints
(:mod:`repro.service.checkpoint`) built on the core state-lifecycle
protocol (:mod:`repro.core.state`), a service manager that keys
sessions by tenant and restores them only through ``restore_all()``
(:mod:`repro.service.manager`), and two differential oracles: one
proving checkpoint/kill/restore changes nothing
(:mod:`repro.service.oracle`), one proving the pump router is
observably the single-threaded reference router parked in
:mod:`repro.reference.session` (:mod:`repro.service.async_oracle`).
``repro serve`` drives it all over replayed captures; see
``docs/service.md``.
"""

from repro.service.async_oracle import verify_async
from repro.service.checkpoint import CheckpointStore
from repro.service.manager import ServiceStats, StreamingService
from repro.service.oracle import verify_checkpoint
from repro.service.session import TenantSession

__all__ = [
    "CheckpointStore",
    "ServiceStats",
    "StreamingService",
    "TenantSession",
    "verify_async",
    "verify_checkpoint",
]

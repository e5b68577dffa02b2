"""Operational fault detection: lightweight regex checks (§5.3, §6).

GRETEL "does not parse the JSON formatted message body and simply uses
regular expressions to identify error codes in the message":

* REST — the status code in the response header is enough;
* RPC — domain-specific error patterns must be spotted in the body
  (oslo.messaging failure envelopes, timeouts, remote errors).
"""

from __future__ import annotations

import re
from typing import Optional

from repro.openstack.apis import ApiKind
from repro.openstack.wire import WireEvent

#: HTTP statuses that signal an operational fault.
_REST_ERROR_FLOOR = 400

#: oslo.messaging / OpenStack error signatures in RPC bodies, as one
#: alternation so a body costs one regex pass; only the generic
#: ``"message"`` branch ignores case.
RPC_ERROR_PATTERN: re.Pattern[str] = re.compile(
    r'"failure"\s*:'
    r"|MessagingTimeout"
    r"|RemoteError"
    r"|NoValidHost"
    r"|Traceback \(most recent call last\)"
    r'|(?i:"message"\s*:\s*".*(?:error|failed|unavailable|timeout))'
)


def rest_error_status(event: WireEvent) -> Optional[int]:
    """The REST error status, or ``None`` when the response is healthy."""
    if event.kind is not ApiKind.REST:
        return None
    return event.status if event.status >= _REST_ERROR_FLOOR else None


def rpc_body_error(event: WireEvent) -> bool:
    """Regex scan of the RPC body for error signatures."""
    if event.kind is not ApiKind.RPC:
        return False
    if event.status >= _REST_ERROR_FLOOR:
        return True
    body = event.body
    if not body:
        return False
    return RPC_ERROR_PATTERN.search(body) is not None


def is_operational_fault(event: WireEvent) -> bool:
    """Whether a wire event carries an operational fault."""
    if event.kind is ApiKind.REST:
        return rest_error_status(event) is not None
    return rpc_body_error(event)


def is_rest_fault(event: WireEvent) -> bool:
    """REST-only fault check (snapshotting triggers only on REST
    errors, §5.3.1 "Improving precision")."""
    return event.kind is ApiKind.REST and event.status >= _REST_ERROR_FLOOR

"""Operational fault detection: lightweight regex checks (§5.3, §6).

GRETEL "does not parse the JSON formatted message body and simply uses
regular expressions to identify error codes in the message":

* REST — the status code in the response header is enough;
* RPC — domain-specific error patterns must be spotted in the body
  (oslo.messaging failure envelopes, timeouts, remote errors).

The REST rule is one comparison, so ``repro.core.analyzer`` makes it
inline; this module holds the RPC scan.
"""

from __future__ import annotations

import re

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

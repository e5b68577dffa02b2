"""A capture is a pure function of (scenario, seed), byte for byte.

The transport numbers sequence, port and request ids from
module-global counters, so a capture's bytes also depend on what ran
earlier in the process.  Reset them before each capture, and compare a
digest of every event's ``repr`` with a recorded one: any change to
the simulator's step order or its random draws shows up here as a new
digest.
"""

import hashlib
from typing import ClassVar

import pytest

from repro.openstack import messaging
from repro.scenarios.catalog import (
    CorrelatedMultiService,
    PerformanceLevelShift,
    RpcRetryStorm,
)


class ShortLevelShift(PerformanceLevelShift):
    """Two simulated seconds of the Fig. 6 shape: CPU slowdown, token
    validation and the sustained 48-way load."""

    duration: ClassVar[float] = 2.0


#: (event count, sha256 over ``repr(event) + "\n"``) per seed-0
#: capture.  ``rpc_retry_storm`` covers forced RPC errors and casts.
PINNED = {
    "correlated_multiservice": (
        232,
        "5fa325cf31b78af52730335d0ad095d2896c3c4464b1566eed66f9ca6c0da780",
    ),
    "rpc_retry_storm": (
        467,
        "6b7d8c76e7ffcd70f29959a288c9fbe7e387dd12179c6bcad1b9332eae9391f7",
    ),
    "performance_level_shift/2s": (
        12135,
        "55c76f60ca9c4d0cc462815e54650e999b53c969c2afcaf1112365c8cab24f9d",
    ),
}


@pytest.fixture
def fresh_counters():
    saved = (messaging._port_counter, messaging._seq_counter,
             messaging._reqid_counter)
    yield messaging.reset_counters
    (messaging._port_counter, messaging._seq_counter,
     messaging._reqid_counter) = saved


def test_capture_bytes_are_pinned(full_character, fresh_counters):
    """One comparison over every pinned capture, so a failure shows
    which of them moved."""
    scenarios = {
        "correlated_multiservice": CorrelatedMultiService,
        "rpc_retry_storm": RpcRetryStorm,
        "performance_level_shift/2s": ShortLevelShift,
    }
    seen = {}
    for label, cls in scenarios.items():
        fresh_counters()
        captured = cls(full_character, seed=0).capture()
        digest = hashlib.sha256()
        for event in captured.events:
            digest.update(repr(event).encode() + b"\n")
        seen[label] = (len(captured.events), digest.hexdigest())
    assert seen == PINNED

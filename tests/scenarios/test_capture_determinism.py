"""A capture is a pure function of (scenario, seed), byte for byte.

The transport numbers sequence, port and request ids from
module-global counters, so a capture's bytes also depend on what ran
earlier in the process.  Reset them, capture one small scenario and
compare a digest of every event's ``repr`` with a recorded one: any
change to the simulator's step order shows up here as a new digest.
"""

import hashlib

import pytest

from repro.openstack import messaging
from repro.scenarios.catalog import CorrelatedMultiService

#: sha256 over ``repr(event) + "\n"`` for the seed-0 capture.
CORRELATED_MULTISERVICE_SEED0 = (
    "5fa325cf31b78af52730335d0ad095d2896c3c4464b1566eed66f9ca6c0da780"
)


@pytest.fixture
def fresh_counters():
    saved = (messaging._port_counter, messaging._seq_counter,
             messaging._reqid_counter)
    messaging.reset_counters()
    yield
    (messaging._port_counter, messaging._seq_counter,
     messaging._reqid_counter) = saved


def test_capture_bytes_are_pinned(full_character, fresh_counters):
    captured = CorrelatedMultiService(full_character, seed=0).capture()
    digest = hashlib.sha256()
    for event in captured.events:
        digest.update(repr(event).encode() + b"\n")
    assert len(captured.events) == 232
    assert digest.hexdigest() == CORRELATED_MULTISERVICE_SEED0

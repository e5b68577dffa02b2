"""Tests for the synthetic traffic generator."""

import hashlib

import pytest

from repro.openstack.apis import ApiKind
from repro.workloads.traffic import SyntheticStream


@pytest.fixture(scope="module")
def stream_factory(small_character):
    def make(**kwargs):
        return SyntheticStream(
            small_character.library, small_character.library.symbols, **kwargs
        )

    return make


def test_generates_requested_count(stream_factory):
    stream = stream_factory(fault_every=100)
    events = stream.events(1000)
    assert len(events) == 1000


def test_rate_controls_timestamps(stream_factory):
    stream = stream_factory(rate_pps=1000.0)
    events = stream.events(500)
    span = events[-1].ts_response - events[0].ts_response
    assert span == pytest.approx(499 / 1000.0, rel=0.01)


def test_fault_frequency(stream_factory):
    stream = stream_factory(fault_every=100)
    events = stream.events(5000)
    errors = [e for e in events if e.error]
    # Faults are skipped when the slot lands on an RPC; rate is close
    # to but never above 1/100.
    assert 20 <= len(errors) <= 50
    assert all(e.kind is ApiKind.REST for e in errors)


def test_deterministic_given_seed(stream_factory):
    a = stream_factory(seed=9).events(300)
    b = stream_factory(seed=9).events(300)
    assert [e.api_key for e in a] == [e.api_key for e in b]
    assert [e.status for e in a] == [e.status for e in b]


#: sha256 over ``repr(event) + "\n"`` for 3,000 events at seed 3 and
#: ``fault_every=97`` on the small suite's library.
STREAM_SEED3 = (
    "8909637c2181905f7345bf68da416f9ef9102921a976b1430823a00d8a821369"
)


def test_stream_bytes_are_pinned(stream_factory):
    """The stream is a pure function of (library, seed, settings), byte
    for byte: any change to how an event is built or to the order of
    the generator's random draws shows up as a new digest."""
    events = stream_factory(fault_every=97, seed=3).events(3000)
    digest = hashlib.sha256()
    for event in events:
        digest.update(repr(event).encode() + b"\n")
    assert sum(e.error for e in events) == 18
    assert sum(not e.is_rest for e in events) == 620
    assert digest.hexdigest() == STREAM_SEED3


def test_interleaves_multiple_operations(stream_factory):
    stream = stream_factory(concurrency=20)
    events = stream.events(500)
    assert len({e.op_id for e in events}) >= 20


def test_sequence_numbers_monotone(stream_factory):
    events = stream_factory().events(200)
    seqs = [e.seq for e in events]
    assert seqs == sorted(seqs)


def test_total_bytes(stream_factory):
    stream = stream_factory()
    events = stream.events(100)
    assert stream.total_bytes(events) == sum(e.size_bytes for e in events)


def test_validation():
    import pytest as _pytest

    from repro.core.fingerprint import FingerprintLibrary
    from repro.core.symbols import SymbolTable
    from repro.openstack.catalog import default_catalog

    symbols = SymbolTable(default_catalog())
    empty = FingerprintLibrary(symbols)
    with _pytest.raises(ValueError):
        SyntheticStream(empty, symbols)

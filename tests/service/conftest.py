"""Shared fixtures for the streaming-service layer tests."""

import pytest

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.monitoring.store import MetadataStore
from repro.service import StreamingService, TenantSession
from repro.workloads.traffic import SyntheticStream

#: Small α keeps snapshots cheap; the service layer's behavior does
#: not depend on window size.
CONFIG = GretelConfig(alpha=64)


@pytest.fixture(scope="module")
def library(small_character):
    return small_character.library


@pytest.fixture(scope="module")
def stream_events(library):
    """A short faulty stream (every tenant bucket gets some events)."""
    stream = SyntheticStream(
        library, library.symbols, fault_every=150, seed=3,
    )
    return stream.events(900)


@pytest.fixture
def build_analyzer(library):
    """Factory for the serial analyzer a session wraps."""
    return lambda: GretelAnalyzer(
        library, store=MetadataStore(), config=CONFIG,
    )


@pytest.fixture
def build_session(build_analyzer):
    """``TenantSession`` factory.  Every session owns a pump thread;
    whatever the test built is closed afterwards so none outlives it
    (``close`` is idempotent, so tests may close their own)."""
    built = []

    def build(tenant="acme", **kwargs):
        built.append(TenantSession(tenant, build_analyzer(), **kwargs))
        return built[-1]

    yield build
    for session in built:
        session.close()


@pytest.fixture
def build_service(library):
    """``StreamingService`` factory; everything it built is shut down
    afterwards (pump threads).  A test
    that kills a pump must consume the failure ``shutdown`` raises
    itself — the second call here is then a no-op."""
    built = []

    def build(**kwargs):
        built.append(StreamingService(library, config=CONFIG, **kwargs))
        return built[-1]

    yield build
    for service in built:
        service.shutdown()

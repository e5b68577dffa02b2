"""Fluent keyword collector in front of the analyzer's constructor.

:meth:`PipelineBuilder.build_serial` returns a
:class:`~repro.core.analyzer.GretelAnalyzer`.  Construction flows one
way: the builder calls the constructor, the analyzer wires itself
(:class:`~repro.core.pipeline.graph.AnalysisPipeline`) and knows
nothing of the builder.  Middleware observers and report listeners
registered here reach every analyzer built.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.analyzer import GretelAnalyzer
from repro.core.config import GretelConfig
from repro.core.fingerprint import FingerprintLibrary
from repro.core.pipeline.middleware import StageObserver
from repro.core.reports import FaultReport
from repro.core.symbols import SymbolTable
from repro.monitoring.store import MetadataStore
from repro.openstack.catalog import ApiCatalog


class PipelineBuilder:
    """Fluent configuration of one analyzer.

    All ``with_*`` setters are ``None``-tolerant (a ``None`` keeps the
    default), so call sites can forward optional arguments verbatim.
    """

    def __init__(self, library: FingerprintLibrary) -> None:
        self._library = library
        self._symbols: Optional[SymbolTable] = None
        self._catalog: Optional[ApiCatalog] = None
        self._store: Optional[MetadataStore] = None
        self._config: Optional[GretelConfig] = None
        self._track_latency = True
        self._defer_detection = False
        self._middleware: List[StageObserver] = []
        self._listeners: List[Callable[[FaultReport], None]] = []

    # -- configuration ----------------------------------------------------

    def with_symbols(
        self, symbols: Optional[SymbolTable]
    ) -> "PipelineBuilder":
        if symbols is not None:
            self._symbols = symbols
        return self

    def with_catalog(
        self, catalog: Optional[ApiCatalog]
    ) -> "PipelineBuilder":
        if catalog is not None:
            self._catalog = catalog
        return self

    def with_store(
        self, store: Optional[MetadataStore]
    ) -> "PipelineBuilder":
        if store is not None:
            self._store = store
        return self

    def with_config(
        self, config: Optional[GretelConfig]
    ) -> "PipelineBuilder":
        if config is not None:
            self._config = config
        return self

    def track_latency(self, enabled: bool = True) -> "PipelineBuilder":
        self._track_latency = enabled
        return self

    def defer_detection(self, enabled: bool = True) -> "PipelineBuilder":
        self._defer_detection = enabled
        return self

    def with_middleware(
        self, observer: StageObserver
    ) -> "PipelineBuilder":
        """Attach a per-stage observer to every analyzer built."""
        self._middleware.append(observer)
        return self

    def on_report(
        self, callback: Callable[[FaultReport], None]
    ) -> "PipelineBuilder":
        """Subscribe a report listener on every analyzer built."""
        self._listeners.append(callback)
        return self

    # -- the ready-to-run analyzer ---------------------------------------

    def build_serial(self) -> GretelAnalyzer:
        """A serial analyzer."""
        return GretelAnalyzer(
            self._library,
            symbols=self._symbols,
            catalog=self._catalog,
            store=self._store,
            config=self._config,
            track_latency=self._track_latency,
            defer_detection=self._defer_detection,
            middleware=tuple(self._middleware),
            report_listeners=tuple(self._listeners),
        )

"""Simulated MySQL: the state store every OpenStack service depends on.

All OpenStack data "is stored and managed by MySQL" (§2).  The
simulation keeps per-table dictionaries of records and charges a small
latency per query; when the ``mysql`` process on its host node is down
(fault injection), queries fail with a :class:`DependencyUnavailable`,
which services surface as 500-class API errors — the operational-fault
manifestation GRETEL detects on the wire.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional, TypeVar

from repro.sim import Simulator, Timeout
from repro.openstack.errors import DependencyUnavailable
from repro.openstack.software import ProcessTable

Record = Dict[str, Any]
_T = TypeVar("_T")
#: A query: one simulated delay, then the result.
Query = Generator[Timeout, Any, _T]


class Database:
    """A tiny multi-table record store with simulated query latency."""

    #: Simulated latency of one query, seconds.
    QUERY_LATENCY = 0.0008

    def __init__(self, sim: Simulator, processes: ProcessTable,
                 host_node: str) -> None:
        self.sim = sim
        self.processes = processes
        self.host_node = host_node
        self._tables: Dict[str, Dict[str, Dict[str, Any]]] = {}
        self._ids = itertools.count(1)
        self.query_count = 0

    # -- availability --------------------------------------------------------

    @property
    def available(self) -> bool:
        """True while the mysql process on the host node is running."""
        return self.processes.is_alive(self.host_node, "mysql")

    def _serve(self) -> None:
        """Serve one query: raise when mysql is down, else count it."""
        if not self.available:
            raise DependencyUnavailable(
                "mysql", f"MySQL on {self.host_node} is unreachable"
            )
        self.query_count += 1

    def new_id(self, prefix: str) -> str:
        """A fresh deterministic UUID-like identifier."""
        return f"{prefix}-{next(self._ids):08x}"

    # -- query API (generators: must be driven with ``yield from``) -----------

    def insert(self, table: str, record: Record) -> Query[Record]:
        """Insert ``record`` (must carry an ``id``), replacing any record
        with that ``id``; returns the record."""
        yield _QUERY
        self._serve()
        if "id" not in record:
            raise ValueError("records must carry an 'id' field")
        self._tables.setdefault(table, {})[record["id"]] = dict(record)
        return record

    def get(self, table: str, record_id: str) -> Query[Optional[Record]]:
        """Fetch one record or ``None``."""
        yield _QUERY
        self._serve()
        record = self._tables.get(table, {}).get(record_id)
        return dict(record) if record is not None else None

    def update(self, table: str, record_id: str,
               **fields: Any) -> Query[Optional[Record]]:
        """Merge ``fields`` into an existing record; returns it or ``None``."""
        yield _QUERY
        self._serve()
        record = self._tables.get(table, {}).get(record_id)
        if record is None:
            return None
        record.update(fields)
        return dict(record)

    def delete(self, table: str, record_id: str) -> Query[bool]:
        """Remove a record; returns True when it existed."""
        yield _QUERY
        self._serve()
        return self._tables.get(table, {}).pop(record_id, None) is not None

    def select(self, table: str,
               where: Optional[Callable[[Record], bool]] = None,
               ) -> Query[List[Record]]:
        """All records of ``table`` matching the optional predicate."""
        yield _QUERY
        self._serve()
        rows = list(self._tables.get(table, {}).values())
        if where is not None:
            rows = [row for row in rows if where(row)]
        return [dict(row) for row in rows]

    def scan(self, table: str) -> Query[None]:
        """A read of all of ``table`` whose rows the caller discards:
        the latency and mysql check of :meth:`select`, no row copies."""
        yield _QUERY
        self._serve()

    # -- synchronous inspection (testing / evaluation only) ------------------

    def peek(self, table: str, record_id: str) -> Optional[Record]:
        """Zero-latency read used by tests and evaluation harnesses."""
        record = self._tables.get(table, {}).get(record_id)
        return dict(record) if record is not None else None

    def count(self, table: str) -> int:
        """Number of records in ``table``."""
        return len(self._tables.get(table, {}))


#: The one ``Timeout`` every query yields.  The kernel never writes to
#: a yielded ``Timeout``, so all queries share it.
_QUERY = Timeout(Database.QUERY_LATENCY)

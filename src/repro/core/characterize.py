"""Offline characterization: fingerprint every operation (§7.1).

The paper executes each Tempest test in isolation, several times, in a
controlled setting, and turns the common API sequence into the
operation's fingerprint.  This module reproduces that pipeline against
the simulated cloud:

* every test runs ``iterations`` times, each in a **fresh deployment**
  (no cross-test contamination — the paper's "controlled setting");
* the recorded wire traces — including heartbeats, Keystone legs and
  status-poll repetitions — go through Algorithm 1;
* per-category statistics (Table 1) and per-operation metadata (nodes
  touched, software dependencies) are collected along the way.

Characterization is deterministic and cacheable: pass ``cache_path``
to persist the whole result as JSON, and :func:`load_characterization`
reads it back without a suite.  This module imports the simulated
cloud only inside the build, so a load imports no simulator.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.openstack.apis import ApiKind
from repro.openstack.catalog import default_catalog
from repro.core.fingerprint import FingerprintLibrary, generate_fingerprint
from repro.core.symbols import SymbolTable

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.openstack.cloud import Cloud
    from repro.openstack.wire import WireEvent
    from repro.workloads.tempest import TempestSuite


@dataclass
class CategoryStats:
    """One row of the paper's Table 1."""

    category: str
    tests: int = 0
    unique_rest: Set[str] = field(default_factory=set)
    unique_rpc: Set[str] = field(default_factory=set)
    rest_events: int = 0
    rpc_events: int = 0
    fingerprint_sizes_with_rpc: List[int] = field(default_factory=list)
    fingerprint_sizes_without_rpc: List[int] = field(default_factory=list)

    @property
    def avg_fp_with_rpc(self) -> float:
        """Mean fingerprint size including RPC symbols."""
        sizes = self.fingerprint_sizes_with_rpc
        return sum(sizes) / len(sizes) if sizes else 0.0

    @property
    def avg_fp_without_rpc(self) -> float:
        """Mean fingerprint size with RPC symbols pruned."""
        sizes = self.fingerprint_sizes_without_rpc
        return sum(sizes) / len(sizes) if sizes else 0.0

    def row(self) -> Dict:
        """Table-1-shaped dictionary."""
        return {
            "category": self.category,
            "tests": self.tests,
            "unique_rpc": len(self.unique_rpc),
            "unique_rest": len(self.unique_rest),
            "rpc_events": self.rpc_events,
            "rest_events": self.rest_events,
            "avg_fp_with_rpc": round(self.avg_fp_with_rpc, 1),
            "avg_fp_without_rpc": round(self.avg_fp_without_rpc, 1),
        }


@dataclass
class CharacterizationResult:
    """Fingerprint library plus Table-1 statistics."""

    library: FingerprintLibrary
    stats: Dict[str, CategoryStats]
    iterations: int
    failed_tests: List[str] = field(default_factory=list)

    @property
    def fp_max(self) -> int:
        """Largest fingerprint across all operations (drives α)."""
        return self.library.fp_max

    def table1_rows(self) -> List[Dict]:
        """Rows in the paper's category order plus a Total row."""
        order = ["compute", "image", "network", "storage", "misc"]
        rows = [self.stats[c].row() for c in order if c in self.stats]
        rows.append({
            "category": "total",
            "tests": sum(r["tests"] for r in rows),
            "unique_rpc": None,
            "unique_rest": None,
            "rpc_events": sum(r["rpc_events"] for r in rows),
            "rest_events": sum(r["rest_events"] for r in rows),
            "avg_fp_with_rpc": None,
            "avg_fp_without_rpc": None,
        })
        return rows


def characterize_suite(
    suite: TempestSuite,
    *,
    iterations: int = 3,
    seed: int = 0,
    cloud_factory: Optional[Callable[[int], Cloud]] = None,
    cache_path: Optional[str] = None,
) -> CharacterizationResult:
    """Fingerprint every test of ``suite`` (Algorithm 1 end to end)
    over the default catalog and a fresh symbol table, and save the
    result at ``cache_path`` when one is given."""
    from repro.openstack.cloud import Cloud
    from repro.workloads.runner import WorkloadRunner

    catalog = default_catalog()
    symbols = SymbolTable(catalog)
    if cloud_factory is None:
        def cloud_factory(run_seed: int) -> Cloud:
            return Cloud(seed=run_seed, catalog=catalog)

    library = FingerprintLibrary(symbols)
    stats: Dict[str, CategoryStats] = {}
    failed: List[str] = []

    for index, test in enumerate(suite.tests):
        category_stats = stats.setdefault(
            test.category, CategoryStats(category=test.category)
        )
        traces: List[List[str]] = []
        nodes: Set[str] = set()
        dependencies: Set[Tuple[str, str]] = set()
        ok = True
        for iteration in range(iterations):
            cloud = cloud_factory(seed * 65537 + index * 31 + iteration)
            recorder: List[WireEvent] = []
            cloud.taps.attach_global(recorder.append)
            runner = WorkloadRunner(cloud)
            outcome = runner.run_isolated(test)
            ok = ok and outcome.ok
            traces.append([event.api_key for event in recorder])
            for event in recorder:
                if event.op_id != test.test_id:
                    continue
                nodes.add(event.src_node)
                nodes.add(event.dst_node)
            if iteration == 0:
                for event in recorder:
                    api = catalog.get(event.api_key)
                    if api.kind is ApiKind.REST:
                        category_stats.rest_events += 1
                        category_stats.unique_rest.add(event.api_key)
                    else:
                        category_stats.rpc_events += 1
                        category_stats.unique_rpc.add(event.api_key)
                # Software dependencies: every process installed on a
                # node the operation touched (the paper's
                # administrator-supplied dependency list).
                first_cloud_processes = cloud.processes
                for node in list(nodes):
                    for process in first_cloud_processes.on_node(node):
                        dependencies.add((node, process.name))
        if not ok:
            failed.append(test.test_id)
        fingerprint = generate_fingerprint(
            test.test_id, traces, symbols, catalog,
            category=test.category, nodes=nodes, dependencies=dependencies,
        )
        library.add(fingerprint)
        category_stats.tests += 1
        category_stats.fingerprint_sizes_with_rpc.append(len(fingerprint))
        category_stats.fingerprint_sizes_without_rpc.append(
            len(fingerprint.rest_only(symbols))
        )

    result = CharacterizationResult(
        library=library, stats=stats, iterations=iterations, failed_tests=failed
    )
    if cache_path:
        _save(result, cache_path)
    return result


# ---------------------------------------------------------------------------
# Cache serialization
# ---------------------------------------------------------------------------

def _save(result: CharacterizationResult, path: str) -> None:
    payload = {
        "iterations": result.iterations,
        "failed_tests": result.failed_tests,
        "library": result.library.to_dict(),
        "stats": {
            name: {
                "category": s.category,
                "tests": s.tests,
                "unique_rest": sorted(s.unique_rest),
                "unique_rpc": sorted(s.unique_rpc),
                "rest_events": s.rest_events,
                "rpc_events": s.rpc_events,
                "fingerprint_sizes_with_rpc": s.fingerprint_sizes_with_rpc,
                "fingerprint_sizes_without_rpc": s.fingerprint_sizes_without_rpc,
            }
            for name, s in result.stats.items()
        },
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def load_characterization(path: str) -> CharacterizationResult:
    """The result :func:`characterize_suite` saved at ``path``, over
    the default catalog and a fresh symbol table."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    symbols = SymbolTable(default_catalog())
    library = FingerprintLibrary.from_dict(payload["library"], symbols)
    stats = {}
    for name, raw in payload["stats"].items():
        stats[name] = CategoryStats(
            category=raw["category"],
            tests=raw["tests"],
            unique_rest=set(raw["unique_rest"]),
            unique_rpc=set(raw["unique_rpc"]),
            rest_events=raw["rest_events"],
            rpc_events=raw["rpc_events"],
            fingerprint_sizes_with_rpc=raw["fingerprint_sizes_with_rpc"],
            fingerprint_sizes_without_rpc=raw["fingerprint_sizes_without_rpc"],
        )
    return CharacterizationResult(
        library=library, stats=stats,
        iterations=payload["iterations"],
        failed_tests=payload["failed_tests"],
    )

"""Tests for the simulated MySQL store."""

import pytest

from repro.sim import Simulator
from repro.openstack.database import Database
from repro.openstack.errors import DependencyUnavailable
from repro.openstack.software import ProcessTable


def make_db():
    sim = Simulator()
    processes = ProcessTable()
    processes.install("ctrl", "mysql")
    return sim, processes, Database(sim, processes, "ctrl")


def drive(sim, generator):
    """Run a DB query generator to completion, returning its value."""
    result = []

    def proc():
        value = yield from generator
        result.append(value)

    sim.spawn(proc())
    sim.run()
    return result[0]


def test_insert_and_get():
    sim, _, db = make_db()
    drive(sim, db.insert("servers", {"id": "s1", "status": "BUILD"}))
    record = drive(sim, db.get("servers", "s1"))
    assert record["status"] == "BUILD"


def test_get_missing_returns_none():
    sim, _, db = make_db()
    assert drive(sim, db.get("servers", "nope")) is None


def test_insert_requires_id():
    sim, _, db = make_db()
    with pytest.raises(ValueError):
        drive(sim, db.insert("servers", {"status": "BUILD"}))


def test_update_merges_fields():
    sim, _, db = make_db()
    drive(sim, db.insert("servers", {"id": "s1", "status": "BUILD"}))
    updated = drive(sim, db.update("servers", "s1", status="ACTIVE", node="c1"))
    assert updated["status"] == "ACTIVE"
    assert updated["node"] == "c1"


def test_update_missing_returns_none():
    sim, _, db = make_db()
    assert drive(sim, db.update("servers", "nope", status="X")) is None


def test_delete():
    sim, _, db = make_db()
    drive(sim, db.insert("t", {"id": "a"}))
    assert drive(sim, db.delete("t", "a")) is True
    assert drive(sim, db.delete("t", "a")) is False


def test_select_with_predicate():
    sim, _, db = make_db()
    for index in range(5):
        drive(sim, db.insert("t", {"id": f"r{index}", "even": index % 2 == 0}))
    rows = drive(sim, db.select("t", lambda r: r["even"]))
    assert len(rows) == 3


def test_queries_cost_simulated_time():
    sim, _, db = make_db()
    drive(sim, db.insert("t", {"id": "a"}))
    assert sim.now == pytest.approx(Database.QUERY_LATENCY)


def test_mysql_down_raises_dependency_error():
    sim, processes, db = make_db()
    processes.kill("ctrl", "mysql", now=0.0)
    assert not db.available
    with pytest.raises(DependencyUnavailable):
        drive(sim, db.get("t", "x"))


def test_scan_costs_one_query_and_returns_no_rows():
    sim, _, db = make_db()
    drive(sim, db.insert("t", {"id": "a"}))
    start, queries = sim.now, db.query_count
    assert drive(sim, db.scan("t")) is None
    assert sim.now - start == pytest.approx(Database.QUERY_LATENCY)
    assert db.query_count == queries + 1
    # The same cost as the select it stands in for.
    drive(sim, db.select("t"))
    assert sim.now - start == pytest.approx(2 * Database.QUERY_LATENCY)


def test_scan_raises_when_mysql_down():
    sim, processes, db = make_db()
    processes.kill("ctrl", "mysql", now=0.0)
    with pytest.raises(DependencyUnavailable):
        drive(sim, db.scan("t"))
    assert sim.now == pytest.approx(Database.QUERY_LATENCY)


def test_returned_records_are_copies():
    sim, _, db = make_db()
    drive(sim, db.insert("t", {"id": "a", "tags": "x"}))
    record = drive(sim, db.get("t", "a"))
    record["tags"] = "mutated"
    assert drive(sim, db.get("t", "a"))["tags"] == "x"


def test_peek_and_count_are_synchronous():
    sim, _, db = make_db()
    drive(sim, db.insert("t", {"id": "a"}))
    assert db.peek("t", "a") == {"id": "a"}
    assert db.peek("t", "b") is None
    assert db.count("t") == 1
    assert db.count("empty") == 0


def test_new_id_unique_and_prefixed():
    _, _, db = make_db()
    ids = {db.new_id("srv") for _ in range(100)}
    assert len(ids) == 100
    assert all(i.startswith("srv-") for i in ids)

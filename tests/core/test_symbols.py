"""Tests for the API symbol table."""

import pytest
from hypothesis import given, strategies as st

from repro.openstack.catalog import default_catalog
from repro.core.symbols import (
    PUA_BASE,
    PUA_CAPACITY,
    SymbolSpaceExhausted,
    SymbolTable,
)


@pytest.fixture(scope="module")
def table():
    return SymbolTable(default_catalog())


def test_covers_whole_catalog(table):
    assert len(table) == len(default_catalog())


def test_symbols_are_unique(table):
    catalog = default_catalog()
    symbols = {table.symbol(api.key) for api in catalog.apis}
    assert len(symbols) == len(catalog)


def test_symbols_are_single_characters(table):
    for api in default_catalog().apis[:50]:
        assert len(table.symbol(api.key)) == 1


def test_roundtrip(table):
    for api in default_catalog().apis:
        assert table.api_key(table.symbol(api.key)) == api.key


def test_encode_decode_roundtrip(table):
    keys = [api.key for api in default_catalog().apis[:20]]
    assert table.decode(table.encode(keys)) == keys


def test_encode_preserves_order_and_repeats(table):
    keys = [default_catalog().apis[0].key] * 3
    encoded = table.encode(keys)
    assert len(encoded) == 3
    assert len(set(encoded)) == 1


def test_state_change_query(table):
    post = default_catalog().find_rest("nova", "POST", "/v2.1/servers")
    get = default_catalog().find_rest("nova", "GET", "/v2.1/servers")
    assert table.api(table.symbol(post.key)).state_change
    assert not table.api(table.symbol(get.key)).state_change


def test_unknown_key_raises(table):
    with pytest.raises(KeyError):
        table.symbol("rest:nova:GET:/nope")
    with pytest.raises(KeyError):
        table.api_key("Z")


def test_contains(table):
    assert default_catalog().apis[0].key in table
    assert "bogus" not in table


def test_has_symbol_reverse_lookup(table):
    first = chr(PUA_BASE)
    assert table.has_symbol(first)
    assert not table.has_symbol("Z")


def test_items_enumerates_catalog_order(table):
    pairs = list(table.items())
    assert len(pairs) == len(default_catalog())
    assert pairs[0] == (default_catalog().apis[0].key, chr(PUA_BASE))


def test_overflowing_catalog_raises_actionable_error():
    catalog = default_catalog()
    capacity = len(catalog) - 1
    with pytest.raises(SymbolSpaceExhausted) as excinfo:
        SymbolTable(catalog, capacity=capacity)
    message = str(excinfo.value)
    # The error names both sizes and says what to do, rather than
    # silently assigning wrong chr() symbols past the range.
    assert str(len(catalog)) in message
    assert str(capacity) in message
    assert "shard" in message


def test_default_capacity_is_private_use_area(table):
    assert table.capacity == PUA_CAPACITY
    assert PUA_CAPACITY == 0xF8FF - 0xE000 + 1


def test_deterministic_across_instances():
    a = SymbolTable(default_catalog())
    b = SymbolTable(default_catalog())
    key = default_catalog().apis[100].key
    assert a.symbol(key) == b.symbol(key)


@given(st.lists(st.integers(min_value=0, max_value=642), max_size=50))
def test_encode_decode_arbitrary_sequences(indexes):
    catalog = default_catalog()
    table = SymbolTable(catalog)
    keys = [catalog.apis[i].key for i in indexes]
    assert table.decode(table.encode(keys)) == keys

"""Per-API Unicode symbols.

"Since the number of unique OpenStack APIs is 643, we use Unicode
encoding to assign a symbol to each API" (§6).  Symbols come from the
Basic Multilingual Plane private-use area (U+E000..U+F8FF), so any
message sequence becomes a plain Python string and fingerprint matching
is a single compiled-regex search.

The PUA holds :data:`PUA_CAPACITY` code points.  A catalog larger than
that cannot be encoded bijectively — continuing with ``chr()`` past the
range would silently hand out symbols outside the private-use area
(and eventually collide with real text) — so construction fails fast
with :class:`SymbolSpaceExhausted`, and the ``repro lint`` integrity
pass re-checks the same bound statically (rule SYM001).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from repro.openstack.apis import Api, ApiKind
from repro.openstack.catalog import ApiCatalog

#: First code point used for API symbols (private use area).
PUA_BASE = 0xE000

#: Last code point of the BMP private use area.
PUA_LAST = 0xF8FF

#: Number of API symbols the private use area can hold (6400).
PUA_CAPACITY = PUA_LAST - PUA_BASE + 1


class SymbolSpaceExhausted(ValueError):
    """The API catalog does not fit in the symbol code-point budget."""


class SymbolTable:
    """Bijective mapping API key ↔ one Unicode character.

    Raises :class:`SymbolSpaceExhausted` when the catalog holds more
    APIs than ``capacity`` code points — a silent wrong ``chr()`` here
    would corrupt every fingerprint built from the table.
    """

    def __init__(self, catalog: ApiCatalog, capacity: int = PUA_CAPACITY):
        if len(catalog.apis) > capacity:
            raise SymbolSpaceExhausted(
                f"catalog defines {len(catalog.apis)} APIs but the symbol "
                f"space holds only {capacity} code points "
                f"(U+{PUA_BASE:04X}..U+{PUA_BASE + capacity - 1:04X}); "
                "shard the catalog or extend the symbol range before "
                "fingerprinting"
            )
        self.catalog = catalog
        self.capacity = capacity
        self._by_key: Dict[str, str] = {}
        self._by_symbol: Dict[str, str] = {}
        for index, api in enumerate(catalog.apis):
            symbol = chr(PUA_BASE + index)
            self._by_key[api.key] = symbol
            self._by_symbol[symbol] = api.key
        #: The symbols of REST APIs (what §6's RPC pruning keeps).
        self.rest_symbols: FrozenSet[str] = frozenset(
            self._by_key[api.key] for api in catalog.apis
            if api.kind is ApiKind.REST
        )

    def symbol(self, api_key: str) -> str:
        """The symbol for an API key; raises ``KeyError`` if unknown."""
        return self._by_key[api_key]

    def api_key(self, symbol: str) -> str:
        """The API key behind a symbol."""
        return self._by_symbol[symbol]

    def api(self, symbol: str) -> Api:
        """The full :class:`Api` behind a symbol."""
        return self.catalog.get(self._by_symbol[symbol])

    def has_symbol(self, symbol: str) -> bool:
        """Whether ``symbol`` is assigned to any API (reverse lookup)."""
        return symbol in self._by_symbol

    def items(self) -> Iterator[Tuple[str, str]]:
        """(api_key, symbol) pairs, in catalog order."""
        return iter(self._by_key.items())

    def encode(self, api_keys: Iterable[str]) -> str:
        """Encode a sequence of API keys into a symbol string."""
        return "".join(self._by_key[key] for key in api_keys)

    def decode(self, symbols: str) -> List[str]:
        """Decode a symbol string back into API keys."""
        return [self._by_symbol[symbol] for symbol in symbols]

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, api_key: str) -> bool:
        return api_key in self._by_key

"""The seed library's compiled index is pinned, selection by selection.

``tests/test_cli.py::test_index_build_is_hash_seed_invariant`` compares
two compiles with each other, so a compiler change that moves both
alike passes it.  This compares a digest of each of the four
selection-flag combinations with a recorded one: every selection's
candidate signatures, its scoring classes (preparation key, members,
``ones`` / ``multi``) and union alphabet, then the sorted pool keys.
Any change to what the compiler prepares or how it partitions shows up
here as a new digest.
"""

import hashlib

import pytest

from repro.analysis.compile import candidate_signature, compile_library
from repro.core.config import GretelConfig

#: sha256 per selection-flag combination, with the pool's size.
PINNED = {
    "default": (
        {}, 1247,
        "dc4a945d812478e73c59572f75bff81f157cb4c20e5ff5cc3e1181a4c482ef1a",
    ),
    "strict": (
        {"relaxed_match": False}, 6654,
        "22ae4dfb4bf69d9bd30a63ac5b6653d3712566b77f26ef1fd670cc28b47a9662",
    ),
    "untruncated": (
        {"truncate_fingerprints": False}, 212,
        "f6f8847e1804d9bc60bff047eac973b3ffa563874ce61211139a04939f9f3745",
    ),
    "unpruned": (
        {"prune_rpcs": False}, 1257,
        "2320a6960c90f8a58ef8c42cd676ef157047d92048a15d5846384a7c110d10c4",
    ),
}


def index_digest(library, index):
    """sha256 over every selection in sorted symbol order, then the
    sorted pool keys."""
    digest = hashlib.sha256()
    for symbol in sorted(library.postings()):
        for truncated in (True, False):
            selection = index.selection(symbol, truncated)
            digest.update(repr((
                [candidate_signature(c) for c in selection],
                [(c.preparation.key(), c.members, c.ones, c.multi)
                 for c in selection.classes],
                selection.classes.symbols,
            )).encode("utf-8"))
    digest.update(repr(sorted(index.pool)).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("flags", sorted(PINNED))
def test_seed_library_index_is_pinned(full_character, flags):
    overrides, pool_size, pinned = PINNED[flags]
    library = full_character.library
    index = compile_library(library, config=GretelConfig(**overrides))
    assert len(index.pool) == pool_size
    assert index_digest(library, index) == pinned

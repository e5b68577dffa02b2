"""Property tests for the fingerprint matching primitives.

Two families of guarantees:

* ``longest_common_subsequence`` returns a *common subsequence* and a
  *longest* one (cross-checked against brute-force enumeration on
  short inputs);
* ``prefix_lcs_lengths`` (the Hyyrö bit-parallel row of the
  reference scorer, ``repro.reference``) agrees with the DP LCS at
  every prefix and obeys the LCS monotonicity laws.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.core.fingerprint import longest_common_subsequence
from repro.reference import prefix_lcs_lengths

# Single-character symbols, as the SymbolTable allocates.
SYMBOLS = "abcdefg"

symbol_seqs = st.text(alphabet=SYMBOLS, max_size=14)
short_seqs = st.text(alphabet=SYMBOLS, max_size=7)


def is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(symbol in it for symbol in needle)


# ---------------------------------------------------------------------------
# longest_common_subsequence
# ---------------------------------------------------------------------------

@given(a=symbol_seqs, b=symbol_seqs)
@settings(max_examples=200, deadline=None)
def test_lcs_is_common_subsequence(a, b):
    lcs = longest_common_subsequence(list(a), list(b))
    assert is_subsequence(lcs, a)
    assert is_subsequence(lcs, b)


@given(a=short_seqs, b=short_seqs)
@settings(max_examples=150, deadline=None)
def test_lcs_length_is_maximal(a, b):
    """No common subsequence is longer than the LCS (brute force)."""
    lcs = longest_common_subsequence(list(a), list(b))
    best = 0
    for size in range(len(a), -1, -1):
        for candidate in itertools.combinations(a, size):
            if is_subsequence(candidate, b):
                best = size
                break
        if best:
            break
    assert len(lcs) == best


@given(a=symbol_seqs, b=symbol_seqs)
@settings(max_examples=100, deadline=None)
def test_lcs_is_symmetric_in_length(a, b):
    forward = longest_common_subsequence(list(a), list(b))
    backward = longest_common_subsequence(list(b), list(a))
    assert len(forward) == len(backward)


# ---------------------------------------------------------------------------
# prefix_lcs_lengths (Hyyrö bit-parallel row)
# ---------------------------------------------------------------------------

@given(needle=symbol_seqs, haystack=symbol_seqs)
@settings(max_examples=200, deadline=None)
def test_prefix_lcs_agrees_with_dp(needle, haystack):
    """Entry i equals the DP LCS of needle[:i] against the haystack."""
    lengths = prefix_lcs_lengths(needle, haystack)
    assert len(lengths) == len(needle) + 1
    for i in range(len(needle) + 1):
        expected = len(longest_common_subsequence(list(needle[:i]),
                                                  list(haystack)))
        assert lengths[i] == expected


@given(needle=symbol_seqs, haystack=symbol_seqs)
@settings(max_examples=200, deadline=None)
def test_prefix_lcs_monotone(needle, haystack):
    """Prefix LCS is non-decreasing, grows by ≤1, and is ≤ both sides."""
    lengths = prefix_lcs_lengths(needle, haystack)
    assert lengths[0] == 0
    for i in range(1, len(lengths)):
        assert lengths[i - 1] <= lengths[i] <= lengths[i - 1] + 1
        assert lengths[i] <= i
        assert lengths[i] <= len(haystack)


@given(needle=symbol_seqs)
@settings(max_examples=50, deadline=None)
def test_prefix_lcs_against_itself(needle):
    """A needle matched against itself corroborates every prefix fully."""
    lengths = prefix_lcs_lengths(needle, needle)
    assert lengths == list(range(len(needle) + 1))

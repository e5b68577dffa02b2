"""Property tests for the fingerprint matching primitives.

Three families of guarantees:

* ``longest_common_subsequence`` returns a *common subsequence* and a
  *longest* one (cross-checked against brute-force enumeration on
  short inputs);
* ``prefix_lcs_lengths`` (the Hyyrö bit-parallel row of the
  reference scorer, ``repro.reference``) agrees with the DP LCS at
  every prefix and obeys the LCS monotonicity laws;
* ``Fingerprint.matches`` is differentially tested against a plain
  ``re`` reference built by *parsing Algorithm 1's literal output*
  (``paper_regex()``: reads starred, writes literal), including on
  truncated fingerprints.
"""

import itertools
import re

from hypothesis import given, settings, strategies as st

from repro.core.fingerprint import (
    Fingerprint,
    longest_common_subsequence,
)
from repro.reference import prefix_lcs_lengths

# Single-character symbols, as the SymbolTable allocates; a few extras
# act as snapshot noise outside any fingerprint's alphabet.
SYMBOLS = "abcdefg"
NOISE = "xyz"

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


# ---------------------------------------------------------------------------
# Fingerprint.matches vs a reference regex parsed from paper_regex()
# ---------------------------------------------------------------------------

@st.composite
def fingerprints(draw):
    symbols = draw(st.text(alphabet=SYMBOLS, min_size=1, max_size=10))
    mask = tuple(draw(st.lists(st.booleans(), min_size=len(symbols),
                               max_size=len(symbols))))
    return Fingerprint(operation="op", symbols=symbols,
                       state_change_mask=mask)


snapshots = st.text(alphabet=SYMBOLS + NOISE, max_size=40)


def reference_matches(fingerprint, snapshot, relaxed):
    """Independent matcher built from Algorithm 1's regex string.

    ``paper_regex()`` stars read symbols and leaves state changes
    literal; the relaxed match (§5.3.2) requires the state-change
    literals as an ordered subsequence, the strict match requires
    every symbol.  A fingerprint with no required literals never
    matches (the analyzer falls back to coverage ranking instead).
    """
    parsed = []  # (symbol, is_state_change)
    pattern = fingerprint.paper_regex()
    index = 0
    while index < len(pattern):
        symbol = pattern[index]
        starred = index + 1 < len(pattern) and pattern[index + 1] == "*"
        parsed.append((symbol, not starred))
        index += 2 if starred else 1
    literals = [s for s, required in parsed if required or not relaxed]
    if not literals:
        return False
    reference = re.compile(".*?".join(re.escape(s) for s in literals),
                           re.DOTALL)
    return reference.search(snapshot) is not None


@given(fingerprint=fingerprints(), snapshot=snapshots,
       relaxed=st.booleans())
@settings(max_examples=300, deadline=None)
def test_matches_agrees_with_paper_regex(fingerprint, snapshot, relaxed):
    assert fingerprint.matches(snapshot, relaxed=relaxed) == \
        reference_matches(fingerprint, snapshot, relaxed)


@given(fingerprint=fingerprints(), relaxed=st.booleans(),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_matches_on_embedded_fingerprint(fingerprint, relaxed, data):
    """A snapshot containing the full symbol sequence in order (with
    noise interleaved) always matches — unless there is nothing
    required to match."""
    noise = data.draw(st.lists(st.text(alphabet=NOISE, max_size=3),
                               min_size=len(fingerprint.symbols) + 1,
                               max_size=len(fingerprint.symbols) + 1))
    snapshot = noise[0] + "".join(
        symbol + gap for symbol, gap in zip(fingerprint.symbols, noise[1:])
    )
    literals = (fingerprint.state_change_symbols if relaxed
                else fingerprint.symbols)
    assert fingerprint.matches(snapshot, relaxed=relaxed) == bool(literals)
    assert reference_matches(fingerprint, snapshot, relaxed) == bool(literals)


@given(fingerprint=fingerprints(), snapshot=snapshots,
       relaxed=st.booleans(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_truncated_matches_agree_with_paper_regex(fingerprint, snapshot,
                                                  relaxed, data):
    """Algorithm 2 truncates at the fault symbol before matching; the
    differential property must survive truncation."""
    cut = data.draw(st.sampled_from(sorted(set(fingerprint.symbols + NOISE))))
    truncated = fingerprint.truncate_at(cut)
    assert truncated.symbols == fingerprint.symbols[
        : fingerprint.symbols.rfind(cut) + 1] or cut not in fingerprint.symbols
    assert truncated.matches(snapshot, relaxed=relaxed) == \
        reference_matches(truncated, snapshot, relaxed)


@given(fingerprint=fingerprints())
@settings(max_examples=100, deadline=None)
def test_pure_read_fingerprint_never_relaxed_matches(fingerprint):
    """Relaxed matching has no required literal in a read-only
    fingerprint, so even its own symbol string is not a match."""
    reads_only = Fingerprint(
        operation=fingerprint.operation,
        symbols=fingerprint.symbols,
        state_change_mask=tuple(False for _ in fingerprint.symbols),
    )
    assert not reads_only.matches(reads_only.symbols, relaxed=True)
    assert not reference_matches(reads_only, reads_only.symbols, True)
    # Strict matching still works: every symbol is its own literal.
    assert reads_only.matches(reads_only.symbols, relaxed=False)

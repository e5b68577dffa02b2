"""Truncation pass: reachability of truncate-at-last-occurrence cuts."""

from repro.analysis import truncation


def _rules(findings):
    return [f.rule for f in findings]


def test_read_before_any_state_change_is_degenerate(
    make_fingerprint, make_context, state_change_keys, read_keys
):
    # read, read, write, write: truncating at either read leaves a
    # reads-only prefix.
    keys = read_keys[:2] + state_change_keys[:2]
    fp = make_fingerprint("op", keys)
    findings = truncation.run(make_context([fp]))
    trn1 = [f for f in findings if f.rule == "TRN001"]
    assert len(trn1) == 1
    assert "2 of" in trn1[0].message
    assert "op" in trn1[0].witness


def test_read_recurring_after_state_change_is_reachable(
    make_fingerprint, make_context, state_change_keys, read_keys
):
    # read, write, read(same), write: the read's *last* occurrence sits
    # after a state change, so its truncation prefix is sound.
    keys = [read_keys[0], state_change_keys[0], read_keys[0],
            state_change_keys[1]]
    fp = make_fingerprint("op", keys)
    findings = truncation.run(make_context([fp]))
    assert "TRN001" not in _rules(findings)


def test_single_literal_first_cut_reported(
    make_fingerprint, make_context, state_change_keys, read_keys
):
    keys = [state_change_keys[0], read_keys[0], state_change_keys[1]]
    fp = make_fingerprint("op", keys)
    findings = truncation.run(make_context([fp]))
    assert "TRN002" in _rules(findings)


def test_repeated_first_literal_not_single(
    make_fingerprint, make_context, state_change_keys
):
    # write-a, write-b, write-a: truncating at a's last occurrence
    # keeps three literals.
    keys = [state_change_keys[0], state_change_keys[1], state_change_keys[0]]
    fp = make_fingerprint("op", keys)
    assert "TRN002" not in _rules(truncation.run(make_context([fp])))


def test_pure_read_fingerprint_is_trn001(
    make_fingerprint, make_context, read_keys
):
    """Every cut of a pure-read fingerprint is reads-only, so TRN001
    lists every symbol; with no state-change symbol there is no first
    literal for TRN002 to judge."""
    from repro.core.fingerprint import Fingerprint

    fp = make_fingerprint("op", read_keys[:3])
    ctx = make_context([fp])
    findings = truncation.run(ctx)
    assert _rules(findings) == ["TRN001"]
    assert "3 of" in findings[0].message
    assert set(ctx.api_labels(fp.symbols)) <= set(findings[0].witness)
    # A degenerate empty fingerprint has no cut at all.
    empty = Fingerprint("op-empty", "", ())
    assert truncation.run(make_context([empty])) == []


def test_identical_shapes_aggregate_into_one_finding(
    make_fingerprint, make_context, state_change_keys, read_keys
):
    keys = read_keys[:1] + state_change_keys[:1]
    fps = [make_fingerprint(f"op-{i}", keys) for i in range(5)]
    findings = [f for f in truncation.run(make_context(fps))
                if f.rule == "TRN001"]
    assert len(findings) == 1
    assert "5 operation(s)" in findings[0].message


def test_degenerate_cut_prepares_as_a_pure_read(
    make_fingerprint, make_context, state_change_keys, read_keys
):
    """A TRN001 witness is not unattributable: candidate preparation
    scores its reads-only prefix as a pure read (no cut, the prefix's
    full symbol sequence), which ranks only when no state-change
    class passes coverage."""
    from repro.core.detector import Skeleton, prepare_candidate
    from repro.reference.detector import truncate_at

    mixed = make_fingerprint("op", read_keys[:2] + state_change_keys[:2])
    pure = make_fingerprint("op-pure", read_keys[:3])
    for fp, cut_symbols in ((mixed, mixed.symbols[:2]),
                            (pure, pure.symbols)):
        assert "TRN001" in _rules(truncation.run(make_context([fp])))
        for symbol in cut_symbols:
            preparation = prepare_candidate(
                Skeleton.of(fp, relaxed=True), symbol,
                truncate=True, pool={},
            )
            assert preparation.pure_read
            assert preparation.cuts == (0,)
            assert preparation.needle == truncate_at(fp, symbol).symbols

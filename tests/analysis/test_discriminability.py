"""Discriminability pass: anchorless fingerprints and hot symbols."""

from repro.analysis import discriminability


def _rules(findings):
    return [f.rule for f in findings]


def _identical(make_fingerprint, state_change_keys, count):
    """``count`` operations stamped from one symbol shape."""
    keys = state_change_keys[:3]
    return [
        make_fingerprint(f"op-{i:02d}", keys) for i in range(count)
    ]


def test_anchorless_shape_reported_once(
    make_fingerprint, make_context, state_change_keys
):
    # 16 identical fingerprints: every symbol is in 16/16 of the
    # library, so even the rarest is no anchor.  One shape → one
    # DSC001, not sixteen.
    fps = _identical(make_fingerprint, state_change_keys, 16)
    findings = discriminability.run(make_context(fps))
    dsc001 = [f for f in findings if f.rule == "DSC001"]
    assert len(dsc001) == 1
    assert dsc001[0].location == "fingerprint:op-00"
    assert "16/16" in dsc001[0].message
    assert "rarest symbol:" in dsc001[0].witness


def test_hot_symbols_reported_per_symbol(
    make_fingerprint, make_context, state_change_keys
):
    fps = _identical(make_fingerprint, state_change_keys, 16)
    findings = discriminability.run(make_context(fps))
    dsc002 = [f for f in findings if f.rule == "DSC002"]
    # All three shared symbols cover 100% ≥ the 50% hot threshold.
    assert len(dsc002) == 3
    assert all(f.location.startswith("symbol:U+") for f in dsc002)


def test_distinct_anchors_are_clean(
    make_fingerprint, make_context, state_change_keys, read_keys
):
    # Each operation has its own rare symbol (1/16 share) and no
    # symbol is shared by ≥50% of the library.
    pool = (state_change_keys + read_keys)[:16]
    assert len(pool) == 16
    fps = [
        make_fingerprint(f"op-{i:02d}", [key])
        for i, key in enumerate(pool)
    ]
    assert discriminability.run(make_context(fps)) == []


def test_small_libraries_are_skipped(
    make_fingerprint, make_context, state_change_keys
):
    # The same pathological shape below ANCHOR_MIN_LIBRARY: shares
    # carry no signal at this size, so the pass stays silent.
    fps = _identical(make_fingerprint, state_change_keys, 4)
    assert discriminability.run(make_context(fps)) == []


def test_thresholds_are_tunable(
    make_fingerprint, make_context, state_change_keys, monkeypatch
):
    fps = _identical(make_fingerprint, state_change_keys, 16)
    with monkeypatch.context() as quiet:
        quiet.setattr(discriminability, "ANCHOR_SHARE", 1.0)
        quiet.setattr(discriminability, "HOT_SYMBOL_SHARE", 1.1)
        assert discriminability.run(make_context(fps)) == []
    monkeypatch.setattr(discriminability, "ANCHOR_MIN_LIBRARY", 4)
    small = _identical(make_fingerprint, state_change_keys, 4)
    assert "DSC001" in _rules(discriminability.run(make_context(small)))

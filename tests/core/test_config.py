"""Tests for GRETEL configuration math."""

from dataclasses import fields

from repro.core.config import GretelConfig


def test_config_fields_are_the_ones_callers_vary():
    """A field exists only when two program callers set it to
    different values; a threshold with one value in use is a module
    constant next to the code that reads it (``repro.core.config``'s
    docstring names where each one lives)."""
    assert [spec.name for spec in fields(GretelConfig)] == [
        "alpha", "p_rate", "prune_rpcs", "relaxed_match",
        "truncate_fingerprints", "adaptive_context", "use_correlation_ids",
    ]


def test_paper_defaults_reproduce_alpha_768():
    """§7: FP_max=384, P_rate=150, t=1 → α=768, β₀=80, δ=30."""
    config = GretelConfig(p_rate=150.0)
    alpha = config.sliding_window_size(fp_max=384)
    assert alpha == 768
    assert config.context_buffer_start(alpha) == 76  # int(0.1 * 768)
    assert config.context_buffer_step(alpha) == 30


def test_alpha_dominated_by_fp_max():
    config = GretelConfig(p_rate=10.0)
    assert config.sliding_window_size(fp_max=384) == 768


def test_alpha_dominated_by_rate():
    config = GretelConfig(p_rate=1000.0)
    assert config.sliding_window_size(fp_max=10) == 2000


def test_alpha_override():
    config = GretelConfig(alpha=512)
    assert config.sliding_window_size(fp_max=9999) == 512


def test_buffer_minimums():
    config = GretelConfig()
    assert config.context_buffer_start(1) == 2
    assert config.context_buffer_step(1) == 1

"""Noise-config pass: dead filter rules and sizing invariants."""

from repro.analysis import configlint
from repro.core.config import GretelConfig
from repro.openstack.apis import Api, ApiKind
from repro.openstack.catalog import ApiCatalog


def _rules(findings):
    return [f.rule for f in findings]


def test_default_config_and_catalog_are_clean(
    make_fingerprint, make_context, state_change_keys
):
    ctx = make_context([make_fingerprint("op", state_change_keys[:3])])
    assert configlint.run(ctx) == []


def test_dead_noise_rules_flagged_on_reduced_catalog(
    make_fingerprint, make_context, state_change_keys
):
    # A catalog with no noise APIs, no keystone REST and no reads:
    # every filter rule is dead.
    bare = ApiCatalog()
    bare.add(Api(ApiKind.REST, "nova", "POST", "/v2.1/servers"))
    ctx = make_context([make_fingerprint("op", state_change_keys[:2])])
    ctx.catalog = bare
    findings = configlint.run(ctx)
    dead = [f for f in findings if f.rule == "NSE001"]
    assert len(dead) == 3
    assert {f.location for f in dead} == {
        "noise-rule:noise-flag",
        "noise-rule:keystone-rest",
        "noise-rule:read-collapse",
    }


def test_noise_symbol_inside_fingerprint_flagged(
    make_fingerprint, make_context, catalog, state_change_keys
):
    noise_key = catalog.noise_apis[0].key
    fp = make_fingerprint("op", [state_change_keys[0], noise_key])
    findings = configlint.run(make_context([fp]))
    leaked = [f for f in findings if f.rule == "NSE002"]
    assert len(leaked) == 1
    assert leaked[0].location == "fingerprint:op"


def test_config_invariant_violations_become_errors(
    make_fingerprint, make_context, state_change_keys
):
    bad = GretelConfig(alpha=-5)
    ctx = make_context(
        [make_fingerprint("op", state_change_keys[:3])], config=bad
    )
    findings = [f for f in configlint.run(ctx) if f.rule == "CFG001"]
    assert [f.location for f in findings] == ["config:alpha-positive"]
    assert findings[0].severity.label == "error"


def test_invariants_method_directly():
    assert GretelConfig().invariants(62) == []
    codes = [code for code, _ in GretelConfig(alpha=10).invariants(62)]
    assert codes == ["alpha-fp-max"]
    codes = [code for code, _ in GretelConfig(p_rate=-1.0).invariants(0)]
    assert codes == ["alpha-positive"]

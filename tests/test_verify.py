"""The verification sweeps themselves (at reduced bounds, for speed)."""

import inspect

import pytest

from kleingroup import SUITES, run_suite
from kleingroup.cli import _json
from kleingroup.verify import (
    _OPTIONS,
    commensurability_suite,
    fixed_set_suite,
    group_law_suite,
    isotropy_suite,
    kn_suite,
    maps_suite,
    representation_suite,
)


def test_all_suites_pass_small():
    small = {
        "group-law": dict(bound=4, samples=200),
        "representation": dict(bound=4),
        "isotropy": dict(element_bound=4, line_bound=2),
        "fixed-set": dict(gen_bound=3, line_bound=2),
        "commensurability": dict(bound=5),
        "kn-action": dict(bound=4),
        "equivariant-maps": dict(bound=4, rep_bound=2),
        "i-complex": dict(bound=3),
    }
    for name, fn in SUITES.items():
        rep = fn(**small[name])
        assert rep.ok, (name, rep.failures)
        assert rep.checks > 0


def test_run_suite_dispatch():
    rep = run_suite("kn-action", bound=3)
    assert rep.suite == "kn-action" and rep.ok
    with pytest.raises(ValueError):
        run_suite("nope")


def test_default_bounds_sit_below_their_caps():
    for name, fn in SUITES.items():
        params = inspect.signature(fn).parameters
        for key, cap in _OPTIONS[name].values():
            assert params[key].default < cap, (name, key)


def test_commensurability_oracle_reaches_far_common_powers():
    # <(-13, 1)> and <(-12, 13)> first meet at (0, 26) = (-13, 1)^26, past
    # the fixed exponent 24 the power-set oracle used to stop at
    rep = commensurability_suite(bound=13)
    assert rep.ok, rep.failures
    assert rep.parameters == {"bound": 13}


def test_report_shape():
    rep = representation_suite(bound=2)
    j = _json(rep)
    assert j["ok"] is True
    assert j["suite"] == "representation"
    assert j["failures"] == []
    assert j["checks"] == rep.checks


def test_failure_cap():
    rep = group_law_suite(bound=1, samples=10)
    for i in range(30):
        rep.fail(f"x{i}")
    assert len(rep.failures) <= 10
    assert not rep.ok


@pytest.mark.parametrize("fn", [
    group_law_suite, representation_suite, isotropy_suite, fixed_set_suite,
    commensurability_suite, kn_suite, maps_suite,
])
def test_suites_run_clean_at_tiny_bounds(fn):
    kwargs = {}
    if fn is group_law_suite:
        kwargs = dict(bound=2, samples=50)
    elif fn is isotropy_suite:
        kwargs = dict(element_bound=3, line_bound=1)
    elif fn is fixed_set_suite:
        kwargs = dict(gen_bound=2, line_bound=1)
    elif fn is maps_suite:
        kwargs = dict(bound=3, rep_bound=1)
    elif fn is representation_suite or fn is kn_suite:
        kwargs = dict(bound=3)
    elif fn is commensurability_suite:
        kwargs = dict(bound=3)
    rep = fn(**kwargs)
    assert rep.ok, rep.failures

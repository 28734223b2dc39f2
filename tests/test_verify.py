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
    i_complex_suite,
    isotropy_suite,
    kn_suite,
    maps_suite,
    representation_suite,
)


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


# every suite at tiny and at small bounds; a tiny case's id is the suite
# function's name, a small case's adds "-small"
TINY = {
    group_law_suite: dict(bound=2, samples=50),
    representation_suite: dict(bound=3),
    isotropy_suite: dict(element_bound=3, line_bound=1),
    fixed_set_suite: dict(gen_bound=2, line_bound=1),
    commensurability_suite: dict(bound=3),
    kn_suite: dict(bound=3),
    maps_suite: dict(bound=3, rep_bound=1),
    i_complex_suite: dict(bound=1),
}
SMALL = {
    group_law_suite: dict(bound=4, samples=200),
    representation_suite: dict(bound=4),
    isotropy_suite: dict(element_bound=4, line_bound=2),
    fixed_set_suite: dict(gen_bound=3, line_bound=2),
    commensurability_suite: dict(bound=5),
    kn_suite: dict(bound=4),
    maps_suite: dict(bound=4, rep_bound=2),
    i_complex_suite: dict(bound=3),
}


@pytest.mark.parametrize("fn, kwargs", [
    *(pytest.param(fn, kw, id=fn.__name__) for fn, kw in TINY.items()),
    *(pytest.param(fn, kw, id=fn.__name__ + "-small") for fn, kw in SMALL.items()),
])
def test_suites_run_clean_at_tiny_bounds(fn, kwargs):
    rep = fn(**kwargs)
    assert rep.ok, rep.failures
    assert rep.checks > 0

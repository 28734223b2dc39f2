"""The verification sweeps themselves (at reduced bounds, for speed)."""

import ast
import inspect
import sys
from fractions import Fraction

import pytest

from kleingroup import (
    SUITES,
    AffineMap,
    CommClass,
    FixedSetDescriptor,
    GroupElement,
    IDENTITY,
    Line,
    PlanePoint,
    VERTICAL,
    canonical_subgroups,
    isotropy_group,
    line_grid,
    run_suite,
    subgroup,
    verify,
)
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
    maps_suite: dict(bound=3),
    i_complex_suite: dict(bound=1),
}
SMALL = {
    group_law_suite: dict(bound=4, samples=200),
    representation_suite: dict(bound=4),
    isotropy_suite: dict(element_bound=4, line_bound=2),
    fixed_set_suite: dict(gen_bound=3, line_bound=2),
    commensurability_suite: dict(bound=5),
    kn_suite: dict(bound=4),
    maps_suite: dict(bound=4),
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


# One wrong value planted in a library function, by the name the suite
# looks it up under in kleingroup.verify: the suite must report it.  A
# suite that tabulates values or compares them in bulk must not go blind.
PLANTED = [
    pytest.param(
        "piece_action", ((0, 1), GroupElement(1, 1), 0), lambda n: n + 2,
        kn_suite, dict(bound=3),
        "not an action at g=GroupElement(n=-3, m=-3), h=GroupElement(n=1, m=1), n=0",
        id="kn-action"),
    pytest.param(
        "act_line", (GroupElement(0, 2), Line(0, 0)), lambda image: Line(0, 0),
        isotropy_suite, dict(element_bound=3, line_bound=1),
        "criterion disagrees with action at g=GroupElement(n=0, m=2), "
        "line=Line(a=0, b=1, c=0)",
        id="isotropy"),
    pytest.param(
        "fixed_set", (subgroup(1, 2),),
        lambda d: FixedSetDescriptor((2, 1)),
        fixed_set_suite, dict(gen_bound=2, line_bound=2),
        "fixed-set membership wrong at CyclicSubgroup(gen=GroupElement(n=1, m=2)), "
        "Line(a=-1, b=2, c=-4)",
        id="fixed-set"),
    pytest.param(
        "fixed_set", (subgroup(1, 2),), lambda d: FixedSetDescriptor((2, 1)),
        i_complex_suite, dict(bound=2),
        "claimed fixed line Line(a=-1, b=2, c=0) not fixed for "
        "CyclicSubgroup(gen=GroupElement(n=1, m=2))",
        id="i-complex"),
    pytest.param(
        "act_point", (GroupElement(1, 0), PlanePoint(0, 0)),
        lambda p: PlanePoint(p.t, p.r + 1),
        maps_suite, dict(bound=3),
        "horizontal piece coordinate not equivariant at GroupElement(n=1, m=0), "
        "PlanePoint(t=Fraction(0, 1), r=Fraction(0, 1))",
        id="equivariant-maps-act_point"),
    pytest.param(
        "piece_coordinate", ((1, 2), PlanePoint(-2, -2)), lambda q: q + 1,
        maps_suite, dict(bound=3),
        "flat piece coordinate not equivariant at rep=GroupElement(n=1, m=2), "
        "g=GroupElement(n=-3, m=-2)",
        id="equivariant-maps-flat-piece"),
    pytest.param(
        "contains", (isotropy_group(Line(0, 0)), GroupElement(2, 0)), lambda b: not b,
        isotropy_suite, dict(element_bound=3, line_bound=1),
        "isotropy membership wrong at g=GroupElement(n=2, m=0), "
        "line=Line(a=0, b=1, c=-1)",
        id="isotropy-contains"),
    # (4, 1) lies outside the box of 3: only a product reaches it
    pytest.param(
        "as_affine", (GroupElement(4, 1),),
        lambda a: AffineMap(a.sign, a.shift_x + 1, a.shift_y),
        representation_suite, dict(bound=3),
        "not a homomorphism at GroupElement(n=1, m=-2), GroupElement(n=3, m=3)",
        id="representation"),
    pytest.param(
        "piece_coordinate", ((1, 0), PlanePoint(Fraction(1, 2), 1)), lambda r: r + 1,
        maps_suite, dict(bound=3),
        "horizontal piece coordinate not equivariant at GroupElement(n=-3, m=-3), "
        "PlanePoint(t=Fraction(1, 2), r=Fraction(1, 1))",
        id="equivariant-maps-horizontal-piece"),
    pytest.param(
        "conj", (GroupElement(1, 1), GroupElement(0, 1)),
        lambda c: GroupElement(c.n + 1, c.m),
        group_law_suite, dict(bound=2, samples=50),
        "conjugation closed form fails at t=GroupElement(n=1, m=1), "
        "g=GroupElement(n=0, m=1)",
        id="group-law"),
    # a wrong product outside the box of 2*bound misses the tables: the
    # suites must still report it, not raise KeyError
    pytest.param(
        "mul", (GroupElement(1, 1), GroupElement(1, 1)),
        lambda p: GroupElement(p.n + 100, p.m),
        representation_suite, dict(bound=2),
        "not a homomorphism at GroupElement(n=1, m=1), GroupElement(n=1, m=1)",
        id="representation-mul"),
    pytest.param(
        "mul", (GroupElement(1, 1), GroupElement(1, 1)),
        lambda p: GroupElement(p.n + 100, p.m),
        kn_suite, dict(bound=2),
        "not an action at g=GroupElement(n=1, m=1), h=GroupElement(n=1, m=1), n=-2",
        id="kn-action-mul"),
    # the commensurability box of 3 holds <(1, 2)> and <(2, 2)>, not <(2, 4)>
    pytest.param(
        "commensurable", (subgroup(1, 2), subgroup(2, 2)), lambda b: not b,
        commensurability_suite, dict(bound=3),
        "commensurable(GroupElement(n=1, m=2), GroupElement(n=2, m=2)) != oracle False",
        id="commensurability"),
    pytest.param(
        "comm_class", (subgroup(1, 2),), lambda c: CommClass((1, 0)),
        commensurability_suite, dict(bound=3),
        "class equality wrong at GroupElement(n=1, m=0), GroupElement(n=1, m=2)",
        id="commensurability-comm_class"),
    pytest.param(
        "contains", (subgroup(1, 2), GroupElement(1, 2)), lambda b: not b,
        commensurability_suite, dict(bound=3),
        "contains(GroupElement(n=1, m=2), GroupElement(n=1, m=2)) != True",
        id="commensurability-contains"),
    pytest.param(
        "maximal_containing", (subgroup(1, 2),), lambda m: subgroup(1, 0),
        commensurability_suite, dict(bound=3),
        "maximal subgroup not equivariant at t=GroupElement(n=-3, m=-3), "
        "s=GroupElement(n=-1, m=2)",
        id="commensurability-maximal_containing"),
    pytest.param(
        "isotropy_group", (Line(VERTICAL, Fraction(1, 2)),), lambda s: subgroup(3, 1),
        kn_suite, dict(bound=3),
        "stabilizer wrong at g=GroupElement(n=1, m=-3), n=1",
        id="kn-action-isotropy_group"),
    pytest.param(
        "isotropy_group", (Line(0, 0),), lambda s: subgroup(0, 2),
        i_complex_suite, dict(bound=2),
        "isotropy generator GroupElement(n=0, m=2) does not stabilize Line(a=0, b=1, c=0)",
        id="i-complex-isotropy_group"),
    pytest.param(
        "contains", (subgroup(1, 2), GroupElement(1, 2)), lambda b: not b,
        maps_suite, dict(bound=3),
        "piece action kernel wrong at rep=GroupElement(n=1, m=2), g=GroupElement(n=1, m=2)",
        id="equivariant-maps-contains"),
    # images off the checked indices, far above, huge and below: the
    # suite's tables hold what it reads, so each is reported, not raised
    *(pytest.param(
        "piece_action", ((0, 1), GroupElement(1, 1), 0), wrong,
        kn_suite, dict(bound=3),
        "not an action at g=GroupElement(n=-3, m=-3), h=GroupElement(n=1, m=1), n=0",
        id=f"kn-action-{name}")
      for name, wrong in (("far", lambda n: n + 1000), ("huge", lambda n: 10**30),
                          ("below", lambda n: -10))),
    pytest.param(
        "piece_action", ((0, 1), IDENTITY, 0), lambda n: n + 1,
        kn_suite, dict(bound=3),
        "identity moves index 0",
        id="kn-action-identity"),
    # (0, -2) lies outside the box of 1, so the kernel check cannot see it
    pytest.param(
        "piece_action", ((1, 2), GroupElement(0, -2), 0), lambda v: v - 1,
        maps_suite, dict(bound=1),
        "piece action of GroupElement(n=1, m=2) misses the unit shift",
        id="equivariant-maps-unit-shift"),
    pytest.param(
        "act_point", (GroupElement(1, 0), PlanePoint(0, 0)),
        lambda p: PlanePoint(p.t, p.r + 1),
        representation_suite, dict(bound=3),
        "affine map disagrees with the action at GroupElement(n=1, m=0)",
        id="representation-act_point"),
    # the first pair the scalar/vector check samples at seed 0
    pytest.param(
        "mul", (GroupElement(0, 0), GroupElement(2, 2)),
        lambda p: GroupElement(p.n + 1, p.m),
        group_law_suite, dict(bound=2, samples=50),
        "scalar/vector mismatch at GroupElement(n=0, m=0), GroupElement(n=2, m=2)",
        id="group-law-scalar"),
    pytest.param(
        "inv", (GroupElement(-2, -2),), lambda g: GroupElement(g.n + 1, g.m),
        group_law_suite, dict(bound=2, samples=50),
        "inverse law fails at GroupElement(n=-2, m=-2)",
        id="group-law-inverse"),
    pytest.param(
        "power", (GroupElement(-2, -2), 2), lambda p: GroupElement(p.n + 1, p.m),
        group_law_suite, dict(bound=2, samples=50),
        "power 2 of GroupElement(n=-2, m=-2) disagrees with iteration",
        id="group-law-power"),
    pytest.param(
        "power", (GroupElement(-2, -2), -2), lambda p: GroupElement(p.n + 1, p.m),
        group_law_suite, dict(bound=2, samples=50),
        "power -2 of GroupElement(n=-2, m=-2) disagrees with iteration",
        id="group-law-negative-power"),
]


def _plant_fault(monkeypatch, name, at, wrong):
    real = getattr(verify, name)

    def faulty(*args):
        out = real(*args)
        return wrong(out) if args == at else out

    monkeypatch.setattr(verify, name, faulty)


@pytest.mark.parametrize("name, at, wrong, suite, kwargs, first", PLANTED)
def test_suite_reports_a_planted_fault(monkeypatch, name, at, wrong, suite, kwargs, first):
    assert suite(**kwargs).ok
    _plant_fault(monkeypatch, name, at, wrong)
    rep = suite(**kwargs)
    assert not rep.ok
    assert rep.failures[0] == first


def test_group_law_checks_power_zero_once(monkeypatch):
    # power(g, 0) and power(g, -0) are one call, so one fault there is
    # one failure
    _plant_fault(monkeypatch, "power", (GroupElement(-2, -2), 0),
                 lambda p: GroupElement(p.n + 1, p.m))
    rep = group_law_suite(bound=2, samples=50)
    assert rep.failures == ["power 0 of GroupElement(n=-2, m=-2) disagrees with iteration"]


@pytest.mark.parametrize("gen_bound, line_bound", [(6, 5), (2, 1)])
def test_fixed_set_makes_one_check_per_subgroup_and_line(gen_bound, line_bound):
    rep = fixed_set_suite(gen_bound, line_bound)
    assert rep.ok, rep.failures
    assert rep.checks == len(canonical_subgroups(gen_bound)) * len(line_grid(line_bound))


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_i_complex_counts_both_checks_per_line(bound):
    # stabilizes and act_line per line, one witness per subgroup
    rep = i_complex_suite(bound)
    assert rep.ok, rep.failures
    assert rep.checks == 2 * len(line_grid(bound)) + len(canonical_subgroups(bound))


@pytest.mark.parametrize("bound", [0, 1, 2])
def test_representation_counts_every_check(bound):
    # n^2 products, 3 points and the faithfulness check per element, and
    # the one AFFINE_IDENTITY check
    n = (2 * bound + 1) ** 2
    rep = representation_suite(bound)
    assert rep.ok, rep.failures
    assert rep.checks == n * n + 4 * n + 1


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_kn_action_counts_every_check(bound):
    # n identity checks, n^2 * n^2 * n action checks and n * n^2
    # stabilizer checks; bound 0 gathers one index, a bare entry
    n = 2 * bound + 1
    rep = kn_suite(bound)
    assert rep.ok, rep.failures
    assert rep.checks == n + n**3 + n**5


def _off_above_a_million(real):
    """``real`` with 1 added to the first coordinate of its value when
    the first coordinate of its first argument exceeds 10^6 in size,
    which only group_law_suite's big-integer samples reach."""
    def plant(g, *rest):
        out = real(g, *rest)
        return GroupElement(out.n + 1, out.m) if abs(g.n) > 10**6 else out
    return plant


# the first big-integer sample of group_law_suite at seed 0
BIG_G = "GroupElement(n=-251770678874884425933987828132, m=-881512449748737486528613234139)"
BIG_H = "GroupElement(n=-982909380664729684252273645869, m=334695439101372366604313926941)"
BIG_K = "GroupElement(n=897459766528212415715999013590, m=-968695728292470355895801096863)"

# A wrong method or constant, which a suite reads as an attribute rather
# than call by name, or a wrong function on a whole range of arguments:
# plant(real) is what replaces it on its owner.
PLANTED_ATTRIBUTES = [
    pytest.param(
        GroupElement, "is_identity",
        lambda real: lambda g: g == GroupElement(0, 2) or real(g),
        representation_suite, dict(bound=3),
        "faithfulness fails at GroupElement(n=0, m=2)",
        id="representation-is_identity"),
    pytest.param(
        verify, "AFFINE_IDENTITY", lambda real: AffineMap(1, 1, 0),
        representation_suite, dict(bound=3),
        "identity map not recognized",
        id="representation-AFFINE_IDENTITY"),
    # the comparison the numpy block reads sees each lane's sign flipped
    pytest.param(
        verify.np, "array_equal", lambda real: lambda a, b: real(a, -b),
        group_law_suite, dict(bound=2, samples=50),
        "associativity broken somewhere at g=(-2,-2)",
        id="group-law-associativity"),
    # inverses are unique, so a wrong inv trips the inverse law first; the
    # double inverse is reached first through its comparison
    pytest.param(
        GroupElement, "__ne__",
        lambda real: lambda g, h: g == h == GroupElement(-2, -2) or real(g, h),
        group_law_suite, dict(bound=2, samples=50),
        "double inverse fails at GroupElement(n=-2, m=-2)",
        id="group-law-double-inverse"),
    pytest.param(
        verify, "mul", _off_above_a_million,
        group_law_suite, dict(bound=2, samples=50),
        f"big associativity fails at {BIG_G}, {BIG_H}, {BIG_K}",
        id="group-law-big-associativity"),
    pytest.param(
        verify, "inv", _off_above_a_million,
        group_law_suite, dict(bound=2, samples=50),
        f"big inverse fails at {BIG_G}",
        id="group-law-big-inverse"),
    pytest.param(
        verify, "conj", _off_above_a_million,
        group_law_suite, dict(bound=2, samples=50),
        f"big conjugation fails at {BIG_G}, {BIG_H}",
        id="group-law-big-conjugation"),
    pytest.param(
        verify, "power", _off_above_a_million,
        group_law_suite, dict(bound=2, samples=50),
        f"big power fails at {BIG_G}^25",
        id="group-law-big-power"),
]


def _plant_attribute(monkeypatch, owner, name, plant):
    monkeypatch.setattr(owner, name, plant(getattr(owner, name)))


@pytest.mark.parametrize("owner, name, plant, suite, kwargs, first", PLANTED_ATTRIBUTES)
def test_suite_reports_a_planted_attribute(monkeypatch, owner, name, plant, suite, kwargs, first):
    assert suite(**kwargs).ok
    _plant_attribute(monkeypatch, owner, name, plant)
    rep = suite(**kwargs)
    assert not rep.ok
    assert rep.failures[0] == first


def test_planted_faults_reach_every_failure_branch():
    # every rep.fail( call in verify.py, by its line, from the syntax tree
    path = verify.__file__
    with open(path) as fh:
        tree = ast.parse(fh.read())
    sites = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "fail" and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "rep"}
    assert len(sites) == 34
    reached = set()

    def lines(frame, event, arg):
        if event == "line":
            reached.add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename == path else None

    for plant, cases in ((_plant_fault, PLANTED), (_plant_attribute, PLANTED_ATTRIBUTES)):
        for case in cases:
            *how, suite, kwargs, _ = case.values
            with pytest.MonkeyPatch.context() as monkeypatch:
                plant(monkeypatch, *how)
                before = sys.gettrace()
                sys.settrace(calls)
                try:
                    suite(**kwargs)
                finally:
                    sys.settrace(before)
    assert sorted(sites - reached) == []

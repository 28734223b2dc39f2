"""Exhaustive and randomized verification sweeps.

Each suite replays one of the library's structural claims against brute
force over a bounded grid and reports counterexamples instead of
raising, so the command line can print them.  The acceptance tests run
these same suites at their contractual bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import itemgetter

import numpy as np

from .core import (
    AFFINE_IDENTITY,
    GroupElement,
    IDENTITY,
    as_affine,
    conj,
    inv,
    mul,
    power,
)
from .isotropy import canonical_subgroups, fixed_set, fraction_grid, isotropy_group, line_grid
from .models import flat_representatives, piece_action, piece_coordinate
from .plane import VERTICAL, Line, PlanePoint, act_line, act_point, stabilizes
from .subgroups import (
    CyclicSubgroup,
    canonicalize,
    comm_class,
    commensurable,
    conj_subgroup,
    contains,
    fixed_direction,
    maximal_containing,
    powers,
)


@dataclass
class SuiteReport:
    suite: str
    parameters: dict
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No failures, and the sweep checked something."""
        return self.checks > 0 and not self.failures

    def fail(self, msg: str) -> None:
        if len(self.failures) < 10:
            self.failures.append(msg)


def _elements(bound: int) -> list[GroupElement]:
    return [
        GroupElement(n, m)
        for n in range(-bound, bound + 1)
        for m in range(-bound, bound + 1)
    ]


def group_law_suite(bound: int = 10, samples: int = 10000, seed: int = 0) -> SuiteReport:
    """Associativity (vectorized sweep over the whole box), inverses,
    powers against iteration, conjugation against its definition, plus
    randomized triples with huge coordinates through the scalar code.

    The sweep's lanes are the narrowest integer type that holds -3*bound:
    int8 at every allowed bound, and exact at any bound."""
    rep = SuiteReport("group-law", {"bound": bound, "samples": samples, "seed": seed})
    vals = [(n, m) for n in range(-bound, bound + 1) for m in range(-bound, bound + 1)]
    # every lane below, (gh)k and g(hk) included, sums at most three
    # coordinates of the box, so |lane| <= 3*bound and no lane overflows
    lane = np.min_scalar_type(-3 * bound)
    n_all = np.array([v[0] for v in vals], dtype=lane)
    m_all = np.array([v[1] for v in vals], dtype=lane)
    nh, mh = n_all[:, None], m_all[:, None]
    nk, mk = n_all[None, :], m_all[None, :]
    s_h = 1 - 2 * (mh & 1)
    n_hk = nh + s_h * nk
    m_hk = mh + mk
    # (gh)k and g(hk) go into two buffers reused for every g; fresh square
    # temporaries per element made the sweep's time depend on heap layout
    lhs = np.empty_like(n_hk)
    rhs = np.empty_like(n_hk)
    for gn, gm in vals:
        sg = 1 - 2 * (gm & 1)
        n_gh = gn + sg * nh
        m_gh = gm + mh
        s_gh = 1 - 2 * (m_gh & 1)
        np.add(np.multiply(s_gh, nk, out=lhs), n_gh, out=lhs)
        np.add(np.multiply(n_hk, sg, out=rhs), gn, out=rhs)
        n_ok = np.array_equal(lhs, rhs)
        np.add(m_gh, mk, out=lhs)
        np.add(m_hk, gm, out=rhs)
        if not (n_ok and np.array_equal(lhs, rhs)):
            rep.fail(f"associativity broken somewhere at g=({gn},{gm})")
        rep.checks += len(vals) * len(vals)

    rng = random.Random(seed)
    elements = _elements(bound)
    # the vectorized law must be the scalar law
    for _ in range(500):
        g = rng.choice(elements)
        h = rng.choice(elements)
        p = mul(g, h)
        sg = 1 - 2 * (g.m & 1)
        if (p.n, p.m) != (g.n + sg * h.n, g.m + h.m):
            rep.fail(f"scalar/vector mismatch at {g}, {h}")
        rep.checks += 1

    for g in elements:
        rep.checks += 2
        if not mul(g, inv(g)).is_identity() or not mul(inv(g), g).is_identity():
            rep.fail(f"inverse law fails at {g}")
        if inv(inv(g)) != g:
            rep.fail(f"double inverse fails at {g}")
        acc = IDENTITY
        for k in range(13):
            # the keys k and -k coincide at k = 0, so power 0 is checked once
            for e, want in {k: acc, -k: inv(acc)}.items():
                if power(g, e) != want:
                    rep.fail(f"power {e} of {g} disagrees with iteration")
                rep.checks += 1
            acc = mul(acc, g)

    for t in elements:
        ti = inv(t)
        for g in elements:
            if conj(t, g) != mul(mul(t, g), ti):
                rep.fail(f"conjugation closed form fails at t={t}, g={g}")
            rep.checks += 1

    big = 10**30
    for _ in range(samples):
        g, h, k = (
            GroupElement(rng.randint(-big, big), rng.randint(-big, big))
            for _ in range(3)
        )
        rep.checks += 3
        if mul(mul(g, h), k) != mul(g, mul(h, k)):
            rep.fail(f"big associativity fails at {g}, {h}, {k}")
        if not mul(g, inv(g)).is_identity():
            rep.fail(f"big inverse fails at {g}")
        if conj(g, h) != mul(mul(g, h), inv(g)):
            rep.fail(f"big conjugation fails at {g}, {h}")
        e = rng.randint(2, 40)
        if power(g, e) != reduce(mul, [g] * e):
            rep.fail(f"big power fails at {g}^{e}")
    return rep


def representation_suite(bound: int = 10) -> SuiteReport:
    """The affine representation is a homomorphism, matches the point
    action, and only the identity element acts as the identity map.

    Every product g*h of the box lies in the box of 2*bound, so the images
    of as_affine over that box are tabulated once and the law reads
    as_affine(mul(g, h)) from the table; as_affine is pure, so each entry
    is the value the call would return.  A product outside that box, which
    only a wrong mul gives, is mapped by the call itself."""
    rep = SuiteReport("representation", {"bound": bound})
    elements = _elements(bound)
    maps = [as_affine(g) for g in elements]
    images = {(x.n, x.m): as_affine(x) for x in _elements(2 * bound)}
    for g, a in zip(elements, maps):
        for h, b in zip(elements, maps):
            gh = mul(g, h)
            image = images.get((gh.n, gh.m))
            if image is None:
                image = as_affine(gh)
            if a.compose(b) != image:
                rep.fail(f"not a homomorphism at {g}, {h}")
            rep.checks += 1
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(-2)), (Fraction(1, 2), Fraction(3, 7))]
    for g, a in zip(elements, maps):
        if a.is_identity() != g.is_identity():
            rep.fail(f"faithfulness fails at {g}")
        for t, r in pts:
            q = act_point(g, PlanePoint(t, r))
            if a.apply(t, r) != (q.t, q.r):
                rep.fail(f"affine map disagrees with the action at {g}")
            rep.checks += 1
    if not AFFINE_IDENTITY.is_identity():
        rep.fail("identity map not recognized")
    return rep


def isotropy_suite(element_bound: int = 8, line_bound: int = 5) -> SuiteReport:
    """Galois duality: a bounded element stabilizes a bounded line
    exactly when the computed isotropy subgroup contains it, and the
    stabilization criterion matches actually moving the line.

    Many lines share one isotropy group (57 groups for the 1,560 lines at
    the default bounds), so each distinct group's membership row over the
    elements is computed once; contains is pure, so a line reads from its
    group's row exactly the values the calls would return."""
    rep = SuiteReport(
        "isotropy", {"element_bound": element_bound, "line_bound": line_bound}
    )
    elements = _elements(element_bound)
    lines = line_grid(line_bound)
    rows: dict[CyclicSubgroup, list[bool]] = {}
    for line in lines:
        iso = isotropy_group(line)
        row = rows.get(iso)
        if row is None:
            row = rows[iso] = [contains(iso, g) for g in elements]
        for g, member in zip(elements, row):
            direct = act_line(g, line) == line
            crit = stabilizes(g, line)
            if crit != direct:
                rep.fail(f"criterion disagrees with action at g={g}, line={line}")
            if crit != member:
                rep.fail(f"isotropy membership wrong at g={g}, line={line}")
    rep.checks += 2 * len(lines) * len(elements)
    return rep


def fixed_set_suite(gen_bound: int = 6, line_bound: int = 5) -> SuiteReport:
    """Fixed-set descriptors against brute-force stabilization: each
    canonical subgroup's descriptor contains exactly the bounded lines
    its generator stabilizes, one check per subgroup and line."""
    rep = SuiteReport("fixed-set", {"gen_bound": gen_bound, "line_bound": line_bound})
    lines = line_grid(line_bound)
    for s in canonical_subgroups(gen_bound):
        d = fixed_set(s)
        for line in lines:
            if d.contains_line(line) != stabilizes(s.gen, line):
                rep.fail(f"fixed-set membership wrong at {s}, {line}")
            rep.checks += 1
    return rep


def commensurability_suite(bound: int = 10) -> SuiteReport:
    """Closed-form commensurability against the power-intersection
    oracle; class equality matches commensurability up to the flip;
    classes are conjugation invariant; membership matches enumeration.

    Two generators with coordinates at most ``bound`` that share a power
    share one with exponent at most 2 * bound, since an odd generator
    squares into the vertical line; the membership box needs exponent 6.
    """
    rep = SuiteReport("commensurability", {"bound": bound})
    subs = canonical_subgroups(bound)
    exponent = max(2 * bound, 6)
    psets = [frozenset((g.n, g.m) for g in powers(s, exponent)) for s in subs]
    mirrors = [frozenset((-n, m) for n, m in p) for p in psets]
    classes = [comm_class(s) for s in subs]
    for i, s in enumerate(subs):
        for j in range(i, len(subs)):
            t = subs[j]
            oracle = not psets[i].isdisjoint(psets[j])
            rep.checks += 2
            if commensurable(s, t) != oracle:
                rep.fail(f"commensurable({s.gen}, {t.gen}) != oracle {oracle}")
            flip = oracle or not psets[i].isdisjoint(mirrors[j])
            if (classes[i] == classes[j]) != flip:
                rep.fail(f"class equality wrong at {s.gen}, {t.gen}")

    elements = _elements(6)
    for i, s in enumerate(subs):
        for g in elements:
            expected = g.is_identity() or (g.n, g.m) in psets[i]
            if contains(s, g) != expected:
                rep.fail(f"contains({s.gen}, {g}) != {expected}")
            rep.checks += 1

    conjugators = _elements(3)
    for s in subs:
        c = comm_class(s)
        m = maximal_containing(s)
        for t in conjugators:
            cs = conj_subgroup(t, s)
            rep.checks += 2
            if comm_class(cs) != c:
                rep.fail(f"class not conjugation invariant at t={t}, s={s.gen}")
            # conjugation is an automorphism, so it must carry the maximal
            # overgroup of s to the maximal overgroup of the conjugate, and
            # a vertical s, which has no unique one, to a conjugate without
            mc = maximal_containing(cs)
            if mc != (m and conj_subgroup(t, m)):
                rep.fail(f"maximal subgroup not equivariant at t={t}, s={s.gen}")
            if c.tag == "R" and t.m % 2 == 1:
                flipped = canonicalize(GroupElement(-m.gen.n, m.gen.m))
                if mc != flipped:
                    rep.fail(f"flat maximal did not flip at t={t}, s={s.gen}")
        if m is not None and not contains(m, s.gen):
            rep.fail(f"maximal subgroup misses its member at {s.gen}")
    return rep


def kn_suite(bound: int = 8) -> SuiteReport:
    """The action on the odd/vertical piece is an action, and the
    stabilizer of its coordinate n, the index of the vertical line
    t = n/2, is that line's isotropy group, the odd maximal subgroup
    <(n, 1)>, which isotropy_group computes by its own route."""
    rep = SuiteReport("kn-action", {"bound": bound})
    elements = _elements(bound)
    indices = range(-bound, bound + 1)
    odd = (0, 1)
    for n in indices:
        if piece_action(odd, IDENTITY, n) != n:
            rep.fail(f"identity moves index {n}")
        rep.checks += 1
    # h moves an index of [-bound, bound] into [-3*bound, 3*bound], so each
    # element gets a row over that span; a product gh lies in the box of
    # 2*bound and is read on the indices only.  Entries are shifted by
    # 3*bound, so h's entries index g's row directly.  A gather over
    # len(indices) positions returns a tuple, or the bare entry when bound
    # is 0; cut shapes each product's values the same way.  A product
    # outside the box, which only a wrong mul gives, is computed directly
    reach = 3 * bound
    span = range(-reach, reach + 1)
    rows = [[piece_action(odd, g, i) + reach for i in span] for g in elements]
    cut = itemgetter(*range(len(indices)))
    expected = {(x.n, x.m): cut([piece_action(odd, x, n) + reach for n in indices])
                for x in _elements(2 * bound)}
    gathers = [itemgetter(*row[reach - bound:reach + bound + 1]) for row in rows]
    for g, tg in zip(elements, rows):
        for h, th, gather in zip(elements, rows, gathers):
            gh = mul(g, h)
            want = expected.get((gh.n, gh.m))
            if want is None:
                want = cut([piece_action(odd, gh, n) + reach for n in indices])
            if gather(tg) != want:
                n = next(n for n in indices
                         if tg[th[n + reach]] != piece_action(odd, gh, n) + reach)
                rep.fail(f"not an action at g={g}, h={h}, n={n}")
    rep.checks += len(elements) ** 2 * len(indices)
    for n in indices:
        stab = isotropy_group(Line(VERTICAL, Fraction(n, 2)))
        for g in elements:
            if (piece_action(odd, g, n) == n) != contains(stab, g):
                rep.fail(f"stabilizer wrong at g={g}, n={n}")
            rep.checks += 1
    return rep


def maps_suite(bound: int = 8) -> SuiteReport:
    """Equivariance of the piece coordinates: the horizontal piece's
    intertwines the plane and piece actions for every element, and those
    of the 7 flat pieces of flat_representatives(3) for every translation,
    which shifts a flat coordinate by 0 exactly on the representative.

    Both functions are pure, so the coordinates at the fixed points are
    computed once and reused: of each grid point on the horizontal piece,
    and of the 9 base points on each flat piece.  The images
    act_point(g, x) are still mapped per pair."""
    rep = SuiteReport("equivariant-maps", {"bound": bound})
    elements = _elements(bound)
    grid = fraction_grid(2)
    pts = [PlanePoint(t, r) for t in grid for r in grid]
    horizontal = (1, 0)
    coords = [piece_coordinate(horizontal, x) for x in pts]
    for g in elements:
        for x, c in zip(pts, coords):
            if piece_coordinate(horizontal, act_point(g, x)) != piece_action(horizontal, g, c):
                rep.fail(f"horizontal piece coordinate not equivariant at {g}, {x}")
            rep.checks += 1
    translations = [g for g in elements if g.m % 2 == 0]
    base = pts[:9]
    for r in flat_representatives(3):
        d = fixed_direction(r)
        coords = [piece_coordinate(d, x) for x in base]
        for g in translations:
            rep.checks += 2
            if (piece_action(d, g, 0) == 0) != contains(r, g):
                rep.fail(f"piece action kernel wrong at rep={r.gen}, g={g}")
            for x, c in zip(base, coords):
                if piece_coordinate(d, act_point(g, x)) != piece_action(d, g, c):
                    rep.fail(f"flat piece coordinate not equivariant at rep={r.gen}, g={g}")
                rep.checks += 1
        # the translation (x, 2y) with k*x - a*y = 1 shifts <(a, 2k)>'s piece
        # by 1; unlike a grid search, this witness exists at every --bound
        a, k = r.gen.n, r.gen.m // 2
        x = pow(k, -1, a)
        if piece_action(d, GroupElement(x, 2 * ((k * x - 1) // a)), 0) != 1:
            rep.fail(f"piece action of {r.gen} misses the unit shift")
    return rep


def i_complex_suite(bound: int = 6) -> SuiteReport:
    """The two structural facts that make the line space a useful
    building block, over all bounded lines and subgroups: lines never
    have trivial isotropy, and nontrivial subgroups never have empty
    fixed sets (the fixed set is a point or a contractible family).

    Each fixed set is checked on a witness: the glide's line, else the
    line of the fixed direction through the origin."""
    rep = SuiteReport("i-complex", {"bound": bound})
    for line in line_grid(bound):
        iso = isotropy_group(line)
        rep.checks += 1
        if not stabilizes(iso.gen, line):
            rep.fail(f"isotropy generator {iso.gen} does not stabilize {line}")
        if act_line(iso.gen, line) != line:
            rep.fail(f"act_line disagrees with stabilizes at {line}")
    for s in canonical_subgroups(bound):
        d = fixed_set(s)
        witness = d.line or Line(VERTICAL if d.slope is None else d.slope, 0)
        rep.checks += 1
        if not stabilizes(s.gen, witness):
            rep.fail(f"claimed fixed line {witness} not fixed for {s}")
    return rep


SUITES = {
    "group-law": group_law_suite,
    "representation": representation_suite,
    "isotropy": isotropy_suite,
    "fixed-set": fixed_set_suite,
    "commensurability": commensurability_suite,
    "kn-action": kn_suite,
    "equivariant-maps": maps_suite,
    "i-complex": i_complex_suite,
}


# What the common options set in each suite: the keyword that --bound
# sets and its cap, and the keyword that --max-denominator sets and its
# cap.  Every suite runs in about 5 s or less at its caps on a 2-vCPU box.
_OPTIONS = {
    "group-law": {"bound": ("bound", 12)},
    "representation": {"bound": ("bound", 14)},
    "isotropy": {"bound": ("element_bound", 12), "max_denominator": ("line_bound", 6)},
    "fixed-set": {"bound": ("gen_bound", 12), "max_denominator": ("line_bound", 8)},
    "commensurability": {"bound": ("bound", 16)},
    "kn-action": {"bound": ("bound", 10)},
    "equivariant-maps": {"bound": ("bound", 20)},
    "i-complex": {"bound": ("bound", 16)},
}


def suite_options(name: str, bound: int | None = None, seed: int = 0,
                  max_denominator: int | None = None) -> dict:
    """The keyword arguments that the common options give suite ``name``;
    raises ValueError below 0 or above a cap.  Only group-law takes the seed."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    kwargs: dict = {"seed": seed} if name == "group-law" else {}
    for option, value in (("bound", bound), ("max_denominator", max_denominator)):
        if value is not None and option in _OPTIONS[name]:
            key, cap = _OPTIONS[name][option]
            if value < 0:
                raise ValueError(f"{name}: {key} must be nonnegative")
            if value > cap:
                raise ValueError(f"{name}: {key} capped at {cap}")
            kwargs[key] = value
    return kwargs


def run_suite(name: str, bound: int | None = None, seed: int = 0,
              max_denominator: int | None = None) -> SuiteReport:
    """Dispatch a named suite with its contractual default bounds unless
    overridden."""
    kwargs = suite_options(name, bound, seed, max_denominator)
    return SUITES[name](**kwargs)


__all__ = ["SuiteReport", "SUITES", "suite_options", "run_suite"] + [
    f.__name__ for f in SUITES.values()
]

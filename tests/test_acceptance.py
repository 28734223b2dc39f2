"""Acceptance gate: the ten contractual criteria, one verdict line each.

Each test prints exactly one line of the form

    acceptance criterion NN [label]: PASS|FAIL (detail)

directly to the terminal (bypassing capture), then asserts.  Bounds and
time budgets are the contractual ones, so this file is slower than the
unit tests; everything in it is also covered piecemeal elsewhere.
"""

import json
import pathlib
import time

import pytest

from kleingroup import (
    GroupElement,
    IDENTITY,
    as_affine,
    disjoint_circles,
    flat_representatives,
    klein_complex,
    kunneth_product,
    model_homology,
    product,
    pushout_report,
    simplicial_homology,
)
from kleingroup.abelian import AbelianGroup, GradedGroups, TRIVIAL, Z
from kleingroup.cli import main as cli_main
from kleingroup.verify import (
    commensurability_suite,
    fixed_set_suite,
    group_law_suite,
    i_complex_suite,
    isotropy_suite,
    kn_suite,
    maps_suite,
    representation_suite,
)


@pytest.fixture
def announce(capfd):
    def _announce(num, label, ok, detail):
        with capfd.disabled():
            verdict = "PASS" if ok else "FAIL"
            print(f"acceptance criterion {num:02d} [{label}]: {verdict} ({detail})")
    return _announce


def test_criterion_01_group_law(announce):
    t0 = time.perf_counter()
    rep = group_law_suite(bound=10, samples=10_000, seed=0)
    dt = time.perf_counter() - t0
    ok = rep.ok and dt < 10.0
    announce(1, "group law", ok, f"{rep.checks} checks in {dt:.1f}s; "
             f"failures: {rep.failures or 'none'}")
    assert rep.ok, rep.failures
    assert rep.checks == 86_013_009
    assert dt < 10.0, f"budget 10s exceeded: {dt:.1f}s"


def test_criterion_02_representation(announce):
    rep = representation_suite(bound=10)
    # faithfulness beyond the grid: the affine map determines the element
    # (shift_y is g.m and shift_x is g.n), so only (0, 0) acts trivially
    symbolic_ok = True
    for g in (IDENTITY, GroupElement(10**30, 0), GroupElement(0, -(10**30)),
              GroupElement(7, 11), GroupElement(-(10**18), 10**18 + 1)):
        a = as_affine(g)
        if (a.shift_x, a.shift_y) != (g.n, g.m) or a.is_identity() != g.is_identity():
            symbolic_ok = False
    ok = rep.ok and symbolic_ok
    announce(2, "affine representation", ok,
             f"{rep.checks} checks; failures: {rep.failures or 'none'}")
    assert ok, rep.failures
    assert rep.checks == 196_246


def test_criterion_03_isotropy(announce):
    t0 = time.perf_counter()
    rep = isotropy_suite(element_bound=8, line_bound=5)
    dt = time.perf_counter() - t0
    ok = rep.ok and dt < 30.0
    announce(3, "isotropy oracle", ok,
             f"{rep.checks} checks in {dt:.1f}s; failures: {rep.failures or 'none'}")
    assert rep.ok, rep.failures
    assert rep.checks == 901_680
    assert dt < 30.0, f"budget 30s exceeded: {dt:.1f}s"


def test_criterion_04_fixed_sets(announce):
    rep = fixed_set_suite(gen_bound=6, line_bound=5)
    announce(4, "fixed sets", rep.ok,
             f"{rep.checks} checks; failures: {rep.failures or 'none'}")
    assert rep.ok, rep.failures
    assert rep.checks == 131_040
    ic = i_complex_suite(6)
    assert ic.ok, ic.failures
    assert ic.checks == 4_596


def test_criterion_05_commensurability(announce):
    rep = commensurability_suite(bound=10)
    announce(5, "commensurability classes", rep.ok,
             f"{rep.checks} checks; failures: {rep.failures or 'none'}")
    assert rep.ok, rep.failures
    assert rep.checks == 110_375


def test_criterion_06_kunneth_product(announce):
    t0 = time.perf_counter()
    expected = GradedGroups((
        Z,
        AbelianGroup(2, (2,)),
        AbelianGroup(1, (2,)),
    ))
    from kleingroup import circle_complex
    hc = simplicial_homology(circle_complex())
    hk = simplicial_homology(klein_complex())
    formula = kunneth_product(hc, hk)
    direct = simplicial_homology(product(circle_complex(3), klein_complex()))
    dt = time.perf_counter() - t0
    ok = formula == expected == direct and dt < 60.0
    announce(6, "Kunneth product table", ok,
             f"H(S1 x K) = {formula.text()} in {dt:.1f}s")
    assert formula == expected, formula.text()
    assert direct == expected, direct.text()
    assert dt < 60.0


def test_criterion_07_model_truncations(announce):
    t0 = time.perf_counter()
    mismatches = []
    for n in (1, 2, 3, 4):
        h = model_homology(n)
        want = GradedGroups((
            Z,
            TRIVIAL,
            AbelianGroup(n - 1, (2,) * (n - 1)),
            AbelianGroup(n, (2,) * n),
        ))
        if h != want:
            mismatches.append(f"kunneth N={n}: {h.text()}")
        if model_homology(n, method="simplicial") != h:
            mismatches.append(f"simplicial N={n} disagrees")
    dt = time.perf_counter() - t0
    ok = not mismatches and dt < 120.0
    announce(7, "model truncations N=1..4", ok,
             f"pattern (Z; 0; (Z+Z_2)^(N-1); (Z+Z_2)^N) in {dt:.1f}s; "
             f"{mismatches or 'no mismatches'}")
    assert not mismatches, mismatches
    assert dt < 120.0


def test_criterion_08_ses_bookkeeping(announce, join_sequence_check):
    bad = []
    hk = simplicial_homology(klein_complex()).to_reduced()
    for n in (1, 2, 3, 4):
        hx = simplicial_homology(disjoint_circles(n)).to_reduced()
        for row in join_sequence_check(hx, hk):
            if not row["rank_ok"]:
                bad.append((n, row))
    announce(8, "join/product rank bookkeeping", not bad, f"{bad or 'all degrees'}")
    assert not bad, bad


def test_criterion_09_pushout_and_equivariance(announce):
    failures = []
    counts = []
    for bound in range(1, 7):
        d = pushout_report(bound)
        tags = [c.tag for c in d.pieces]
        if tags.count("H") != 1 or tags.count("K") != 1:
            failures.append(f"census at bound {bound}: {tags}")
        counts.append(tags.count("R"))
    if not all(a < b for a, b in zip(counts, counts[1:])):
        failures.append(f"R-piece counts not strictly increasing: {counts}")
    if counts[0] != len(flat_representatives(1)):
        failures.append("R pieces disagree with flat_representatives")

    m = maps_suite(bound=8)
    k = kn_suite(bound=8)
    if not m.ok:
        failures.append(f"maps: {m.failures}")
    if not k.ok:
        failures.append(f"kn-action: {k.failures}")
    announce(9, "pushout census and equivariance", not failures,
             f"R counts {counts}; {m.checks + k.checks} map/action checks; "
             f"{failures or 'no failures'}")
    assert not failures, failures
    assert (m.checks, k.checks) == (24_878, 1_424_787)


def test_criterion_10_golden_files(announce, capfd):
    cases = json.loads(
        (pathlib.Path(__file__).parent / "golden" / "cases.json").read_text()
    )
    drift = []
    for name, case in sorted(cases.items()):
        code = cli_main(case["argv"] + ["--json"])
        out = capfd.readouterr().out
        if code != 0 or out != case["stdout"]:
            drift.append(name)
    announce(10, "CLI golden transcript", not drift,
             f"{len(cases)} cases byte-exact" if not drift else f"drift: {drift}")
    assert not drift, drift

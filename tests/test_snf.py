"""Smith normal form against the determinantal-divisor oracle."""

import copy
import functools
import pickle
import random
from collections import defaultdict
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleingroup import (
    IntMatrix,
    SimplicialComplex,
    disjoint_circles,
    invariant_factor_chain,
    join,
    klein_complex,
    product,
    smith_normal_form,
)
from test_homology import scrambled_complex


def minor_gcds(m: IntMatrix):
    """gcd of all k x k minors for each k, by cofactor expansion.

    Exponential, so only for small matrices; it pins down the invariant
    factors independent of any elimination: d_k = g_k / g_{k-1}.
    """

    def det(rows, cols):
        if len(rows) == 1:
            return m.rows.get(rows[0], {}).get(cols[0], 0)
        total = 0
        for idx, r in enumerate(rows):
            a = m.rows.get(r, {}).get(cols[0], 0)
            if a:
                total += (-1) ** idx * a * det(rows[:idx] + rows[idx + 1:], cols[1:])
        return total

    out = []
    for k in range(1, min(m.nrows, m.ncols) + 1):
        g = 0
        for rows in combinations(range(m.nrows), k):
            for cols in combinations(range(m.ncols), k):
                g = gcd(g, det(list(rows), list(cols)))
        out.append(g)
    return out


def oracle_snf(m: IntMatrix):
    gk = minor_gcds(m)
    factors = []
    prev = 1
    for g in gk:
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors, len(factors)


def test_known_forms():
    assert smith_normal_form(IntMatrix([[2, 0], [0, 3]])) == ([1, 6], 2, [])
    assert smith_normal_form(IntMatrix([[1, 0], [0, 1]])) == ([1, 1], 2, [0, 1])
    assert smith_normal_form(IntMatrix.from_rows(3, 2, {})) == ([], 0, [])
    assert smith_normal_form(IntMatrix([[6]])) == ([6], 1, [])
    assert smith_normal_form(IntMatrix([[2, 4], [4, 8]])) == ([2], 1, [])
    # the standard Klein bottle relation matrix
    assert smith_normal_form(IntMatrix([[1, 1], [1, -1]])) == ([1, 2], 2, [0])


def test_sign_and_order_insensitivity():
    assert smith_normal_form(IntMatrix([[0, -3], [-2, 0]])) == ([1, 6], 2, [])
    assert smith_normal_form(IntMatrix([[3, 0], [0, 2]])) == ([1, 6], 2, [])


def test_empty_and_degenerate_shapes():
    assert smith_normal_form(IntMatrix.from_rows(0, 5, {})) == ([], 0, [])
    assert smith_normal_form(IntMatrix.from_rows(0, 0, {})) == ([], 0, [])
    assert smith_normal_form(IntMatrix([[0, 0, 0]])) == ([], 0, [])


def test_random_matrices_match_oracle():
    rng = random.Random(7)
    for trial in range(300):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        m = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        )
        assert smith_normal_form(m)[:2] == oracle_snf(m), m


def test_sparse_random_matrices_match_oracle():
    rng = random.Random(11)
    for trial in range(200):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = IntMatrix(
            [
                [rng.randint(-4, 4) if rng.random() < 0.4 else 0 for _ in range(nc)]
                for _ in range(nr)
            ]
        )
        assert smith_normal_form(m)[:2] == oracle_snf(m), m


def test_larger_structured_matrix():
    # a boundary-like matrix with +-1 entries stays exact and fast
    n = 40
    data = [[0] * n for _ in range(n)]
    for i in range(n):
        data[i][i] = 1
        data[i][(i + 1) % n] = -1
    factors, rank, _ = smith_normal_form(IntMatrix(data))
    # circulant differences: rank n-1, all factors 1
    assert rank == n - 1
    assert all(f == 1 for f in factors)


def dense(rows, ncols: int) -> IntMatrix:
    """The matrix of ``rows``, each ``ncols`` wide, with or without rows."""
    return IntMatrix.from_rows(len(rows), ncols, {i: dict(enumerate(r)) for i, r in enumerate(rows)})


@st.composite
def matrices(draw):
    nr, nc = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    if draw(st.booleans()):  # sparse: mostly zeros, small entries
        entry = st.sampled_from((0, 0, 0, 0, 0, 0, -2, -1, 1, 2, 3))
    else:
        entry = st.integers(-9, 9)
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    return dense(rows, nc)


def test_unit_prefix_ends_at_the_first_non_unit_pivot():
    assert smith_normal_form(IntMatrix([[1, 0], [0, -1]])) == ([1, 1], 2, [0, 1])
    # pivot 2 clears row 0 down to 1 and hands the pivot over: that step
    # pops 1 but has mixed rows 0 and 1, so the prefix is empty
    assert smith_normal_form(IntMatrix([[3, 0], [2, 0], [0, 0]])) == ([1], 1, [])
    # pivot 2 leaves row 1 at (0, 1); that later unit step stays outside
    assert smith_normal_form(IntMatrix([[2, 4], [4, 9]])) == ([1, 2], 2, [])
    # a -1 pivot is a unit and extends the prefix
    assert smith_normal_form(IntMatrix([[-1, 2], [3, 4]])) == ([1, 10], 2, [0])
    assert smith_normal_form(IntMatrix([[3, 0], [2, 0], [0, -1]])) == ([1, 1], 2, [2])
    assert smith_normal_form(IntMatrix([[-1, 1, 0], [0, -1, 1], [1, 0, -1]])) == \
        ([1, 1], 2, [0, 1])


def test_a_row_that_regains_a_unit_is_the_next_pivot():
    # row 0 holds no unit until the step at row 1 turns it into (0, 1, 0),
    # so the search must go back to it before row 2
    assert smith_normal_form(IntMatrix([[2, 3, 0], [1, 1, 0], [0, 1, 1]])) == \
        ([1, 1, 1], 3, [1, 0, 2])


def reference_moduli(m: IntMatrix, skip):
    """The elimination with no unit step: every pivot is flipped to be
    positive, clears its column by balanced division and sweeps its row
    to remainders, whatever its value.  The unit step must leave the
    pivot sequence, and so the unit-prefix rows, as this one finds them."""
    rows = {i: dict(r) for i, r in m.rows.items()}
    cols = defaultdict(set)
    for i, r in rows.items():
        for j in r:
            cols[j].add(i)
    for j in skip:
        for i in cols.pop(j, ()):
            del rows[i][j]
            if not rows[i]:
                del rows[i]

    def pivot():
        least, at = 0, (0, 0)
        for i, r in rows.items():
            for j, v in r.items():
                if v == 1 or v == -1:
                    return i, j
                if not least or abs(v) < least:
                    least, at = abs(v), (i, j)
        return at

    moduli, unit_rows, units = [], [], True
    while rows:
        pi, pj = pivot()
        while True:
            prow = rows[pi]
            if prow[pj] < 0:
                prow = rows[pi] = {j: -v for j, v in prow.items()}
            p = prow[pj]
            if p != 1:
                units = False
            p2 = 2 * p
            for i in [i for i in cols[pj] if i != pi]:
                row = rows[i]
                if q := (2 * row[pj] + p - 1) // p2:
                    for j, v in prow.items():
                        if j not in row:
                            row[j] = -q * v
                            cols[j].add(i)
                        elif new := row[j] - q * v:
                            row[j] = new
                        else:
                            del row[j]
                            cols[j].discard(i)
                    if not row:
                        del rows[i]
                        continue
                if pj in row:
                    pi = i
                    break
            else:
                for j in [j for j in prow if j != pj]:
                    v = prow[j]
                    if r := v - (2 * v + p - 1) // p2 * p:
                        prow[j] = r
                        pj = j
                        break
                    del prow[j]
                    cols[j].discard(pi)
                else:
                    break
        moduli.append(rows.pop(pi)[pj])
        cols[pj].discard(pi)
        if units:
            unit_rows.append(pi)
    return invariant_factor_chain(moduli), len(moduli), unit_rows


@st.composite
def unit_heavy(draw, entries=(0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3)):
    """Matrices up to 10 x 10 made mostly of +-1, or of other
    ``entries``, with a random skip."""
    nr, nc = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    entry = st.sampled_from(entries)
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    skip = draw(st.sets(st.integers(0, nc - 1))) if nc else set()
    return dense(rows, nc), skip


@settings(max_examples=300, deadline=None)
@given(unit_heavy())
def test_matches_the_elimination_without_a_unit_step(case):
    m, skip = case
    assert smith_normal_form(m, skip) == reference_moduli(m, skip)


@settings(max_examples=300, deadline=None)
@given(unit_heavy((0, 0, 0, 1, -1, 2, -2, 2, -2, 3, -3)))
def test_rows_that_regain_a_unit_match_the_elimination_without_a_unit_step(case):
    # a unit step subtracts +-2 or +-3 times its row from rows the search
    # has passed, and 3 - 2 or 2 - 3 leaves them a +-1 again
    m, skip = case
    assert smith_normal_form(m, skip) == reference_moduli(m, skip)


MODEL_SPACES = [f"join-{n}" for n in range(1, 9)] + ["product-1", "product-2"]
# the shapes the homology benchmark reduces: vertex labels in seeded orders
SHUFFLED_SPACES = [f"{space}-seed-{seed}" for space in ("join-8", "product-2") for seed in (1, 2, 3)]


@functools.cache
def model_boundaries(space: str) -> list[IntMatrix]:
    """The boundaries of the join ("join-N") or the product ("product-N")
    of N disjoint circles with the Klein bottle; a suffix "-seed-S"
    relabels the vertices by a permutation drawn from ``Random(S)``."""
    space, _, seed = space.partition("-seed-")
    kind, n = space.split("-")
    build = join if kind == "join" else product
    x = build(disjoint_circles(int(n)), klein_complex())
    if seed:
        nv = len(x.vertices)
        names = dict(zip(x.vertices, random.Random(int(seed)).sample(range(nv), nv)))
        x = SimplicialComplex([tuple(names[v] for v in s) for s in x.all_faces()], closed=True)
    return x.boundary_matrices()


@pytest.mark.parametrize("space", MODEL_SPACES + SHUFFLED_SPACES)
def test_model_boundaries_match_the_elimination_without_a_unit_step(space):
    # each boundary with the columns homology_of_chain leaves out: nearly
    # every pivot of a triangulation is a unit, so these pin the pivot
    # sequence over thousands of unit steps, and every boundary has a
    # unit prefix
    cleared = []
    for b in reversed(model_boundaries(space)):
        form = smith_normal_form(b, cleared)
        assert form == reference_moduli(b, cleared)
        cleared = form[2]
        assert cleared or b.ncols == 0


def rank_mod_p(m: IntMatrix, p: int) -> int:
    """The rank of m over F_p, from ``m.rows`` alone: each row is reduced
    by the pivot rows found so far, each keyed by its leading column and
    scaled to lead with 1, until it vanishes or leads at a new column and
    becomes a pivot row itself."""
    pivots: dict[int, dict[int, int]] = {}
    for r in m.rows.values():
        row = {j: v % p for j, v in r.items() if v % p}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                inverse = pow(row[lead], -1, p)
                pivots[lead] = {j: v * inverse % p for j, v in row.items()}
                break
            c = row[lead]
            for j, v in prow.items():
                if w := (row.get(j, 0) - c * v) % p:
                    row[j] = w
                else:
                    row.pop(j, None)
    return len(pivots)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 2**61 - 1)


def primes_dividing_a_factor(m: IntMatrix) -> set[int]:
    """Checks that over F_p, for each p in PRIMES, m has as its rank the
    number of its invariant factors that p does not divide, and returns
    the primes that divide one of them."""
    factors = smith_normal_form(m)[0]
    for p in PRIMES:
        assert rank_mod_p(m, p) == sum(1 for d in factors if d % p), (m.nrows, m.ncols, p)
    return {p for p in PRIMES if any(d % p == 0 for d in factors)}


def test_rank_mod_p():
    m = IntMatrix([[2, 4], [6, 3], [0, 0]])  # invariant factors 1, 18
    assert [rank_mod_p(m, p) for p in (2, 3, 5)] == [1, 1, 2]
    assert rank_mod_p(IntMatrix.from_rows(2, 3, {}), 7) == 0


@pytest.mark.parametrize("space", MODEL_SPACES + ["join-16"])
def test_model_boundaries_agree_with_ranks_mod_p(space):
    # an oracle that shares no code with the elimination and scales to any
    # size (Dumas, Saunders and Villard, J. Symbolic Comput. 2001); a
    # triangulation's boundaries have only the factors 1 and 2
    assert set().union(*map(primes_dividing_a_factor, model_boundaries(space))) <= {2}


def test_scrambled_boundaries_agree_with_ranks_mod_p():
    rng = random.Random(16)
    divided = set()
    for _ in range(300):
        for b in scrambled_complex(rng, ranks=(6, 10))[0]:
            divided |= primes_dividing_a_factor(b)
    # every small prime divides some factor, so each is a real test
    assert divided == set(PRIMES[:-1])


@settings(max_examples=200, deadline=None)
@given(unit_heavy())
def test_leaves_the_input_rows_unchanged(case):
    m, skip = case
    before = copy.deepcopy(m.rows)
    smith_normal_form(m, skip)
    # in index order too, which the pivot search reads
    assert [(i, list(r.items())) for i, r in m.rows.items()] == \
        [(i, list(r.items())) for i, r in before.items()]


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_skipped_columns_are_left_out(m, data):
    skip = data.draw(st.sets(st.integers(0, m.ncols - 1))) if m.ncols else set()
    kept = dense([[0 if j in skip else m.rows.get(i, {}).get(j, 0) for j in range(m.ncols)]
                  for i in range(m.nrows)], m.ncols)
    assert smith_normal_form(m, skip) == smith_normal_form(kept)


@pytest.mark.parametrize("skip, error", [
    ([2], ValueError), ([-1], ValueError), ([0, 5], ValueError),
    ([1.0], TypeError), (["0"], TypeError), ([True], TypeError), ([None], TypeError),
])
def test_skip_rejects_a_column_outside_the_matrix(skip, error):
    with pytest.raises(error, match="skipped column"):
        smith_normal_form(IntMatrix([[1, 2], [3, 4]]), skip)


@pytest.mark.parametrize("skip", [iter([0]), (j for j in [0])], ids=["iterator", "generator"])
def test_skip_may_be_read_once(skip):
    assert smith_normal_form(IntMatrix([[1, 2], [3, 4]]), skip) == ([2], 1, [])


def test_matches_sympy_smith_normal_form():
    # an independent SNF reaches past the 5 x 5 limit of the minor oracle
    sympy = pytest.importorskip("sympy")
    normalforms = pytest.importorskip("sympy.matrices.normalforms")

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def check(m):
        flat = [m.rows.get(i, {}).get(j, 0) for i in range(m.nrows) for j in range(m.ncols)]
        d = normalforms.smith_normal_form(sympy.Matrix(m.nrows, m.ncols, flat), domain=sympy.ZZ)
        diagonal = [abs(d[k, k]) for k in range(min(m.nrows, m.ncols)) if d[k, k]]
        assert smith_normal_form(m)[:2] == (diagonal, len(diagonal))

    check()


def test_invariant_factor_chain():
    assert invariant_factor_chain([2, 3]) == [1, 6]
    assert invariant_factor_chain([4, 6]) == [2, 12]
    assert invariant_factor_chain([2, 2, 2]) == [2, 2, 2]
    assert invariant_factor_chain([12, 10, 9]) == [1, 6, 180]
    assert invariant_factor_chain([]) == []
    assert invariant_factor_chain([1, 1]) == [1, 1]
    # no factoring: a product of two Mersenne primes and long lists chain at once
    semiprime = (2**61 - 1) * (2**89 - 1)
    assert invariant_factor_chain([semiprime, 6]) == [1, 6 * semiprime]
    assert invariant_factor_chain([2] * 100000) == [2] * 100000
    assert invariant_factor_chain([2, 3] * 2000) == [1] * 2000 + [6] * 2000
    with pytest.raises(ValueError):
        invariant_factor_chain([0])


def test_chain_divisibility_property():
    rng = random.Random(3)
    for _ in range(200):
        moduli = [rng.randint(1, 60) for _ in range(rng.randint(0, 6))]
        chain = invariant_factor_chain(moduli)
        assert len(chain) == len(moduli)
        for a, b in zip(chain, chain[1:]):
            assert b % a == 0
        # same group: multiset of prime-power orders must agree
        prod = 1
        for d in moduli:
            prod *= d
        prod_chain = 1
        for d in chain:
            prod_chain *= d
        assert prod == prod_chain


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


@pytest.mark.parametrize("entry", [1.5, 2.0, True, False, "1", None])
def test_matrix_rejects_inexact_ints(entry):
    with pytest.raises(TypeError):
        IntMatrix([[0, entry]])


@pytest.mark.parametrize("nrows, ncols, rows, error, match", [
    (-1, 2, {}, ValueError, "negative shape"),
    (2, -1, {}, ValueError, "negative shape"),
    (2.0, 2, {}, TypeError, "shape"),
    (2, True, {}, TypeError, "shape"),
    (2, 2, {-1: {0: 1}}, ValueError, "row index -1"),
    (2, 2, {2: {0: 1}}, ValueError, "row index 2"),
    (2, 2, {True: {0: 1}}, TypeError, "row index"),
    (2, 2, {0: {-1: 1}}, ValueError, "column index -1"),
    (2, 2, {1: {0: 1, 2: 1}}, ValueError, "column index 2"),
    (2, 2, {0: {False: 1}}, TypeError, "column index"),
    (2, 2, {0: {0: 1.0}}, TypeError, "entries"),
    (2, 2, {0: {1: 1, 0: True}}, TypeError, "entries"),
    (2, 2, {0: {0: 0.0}}, TypeError, "entries"),
    (1, 1, [[1]], TypeError, "column: int"),
    (1, 1, {0: [1]}, TypeError, "column: int"),
])
def test_from_rows_rejects_a_bad_shape_index_or_entry(nrows, ncols, rows, error, match):
    with pytest.raises(error, match=match):
        IntMatrix.from_rows(nrows, ncols, rows)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_from_rows_in_any_order_is_the_dense_matrix(m, rng):
    data = m.data
    rows = [(i, list(enumerate(row))) for i, row in enumerate(data)]
    for _, entries in rows:
        rng.shuffle(entries)
    rng.shuffle(rows)
    sparse = IntMatrix.from_rows(m.nrows, len(data[0]) if data else 0,
                                 {i: dict(entries) for i, entries in rows})
    assert sparse == IntMatrix(data)
    assert repr(sparse) == repr(IntMatrix(data))
    assert list(sparse.rows) == sorted(sparse.rows)
    assert all(list(r) == sorted(r) for r in sparse.rows.values())
    assert all(r and all(r.values()) for r in sparse.rows.values())


def test_from_rows_keeps_a_clean_row():
    row = {0: 1, 2: -1}
    assert IntMatrix.from_rows(1, 3, {0: row}).rows[0] is row


def test_copies_and_pickles_are_equal():
    m = IntMatrix([[0, 2, 0], [-1, 0, 3]])
    for other in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert other == m and repr(other) == repr(m)


def test_matmul_with_a_non_matrix_is_not_implemented():
    assert IntMatrix([[1]]).__matmul__([[1]]) is NotImplemented
    with pytest.raises(TypeError, match="unsupported operand"):
        IntMatrix([[1]]) @ [[1]]


def test_smith_normal_form_takes_an_int_matrix():
    with pytest.raises(TypeError, match="IntMatrix"):
        smith_normal_form([[1, 2]])


def test_matmul():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert a @ b == IntMatrix([[2, 1], [4, 3]])
    assert IntMatrix.from_rows(2, 3, {}).is_zero()
    with pytest.raises(ValueError):
        a @ IntMatrix.from_rows(3, 3, {})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matmul_matches_the_dense_product_in_index_order(data):
    nr, nk, nc = (data.draw(st.integers(0, 7)) for _ in range(3))
    entry = st.sampled_from((0, 0, 0, 0, -2, -1, 1, 2))
    a, b = (data.draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
            for r, c in ((nr, nk), (nk, nc)))
    product = [[sum(a[i][k] * b[k][j] for k in range(nk)) for j in range(nc)] for i in range(nr)]
    p = dense(a, nk) @ dense(b, nc)
    assert p == dense(product, nc)
    # equality cannot see order: rows and their entries iterate ascending
    assert list(p.rows) == sorted(p.rows)
    assert all(list(r) == sorted(r) for r in p.rows.values())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matmul_with_cancelling_sums_matches_the_dense_product(data):
    # a = [x | x | y] and b = [u; -u; v]: every sum over the first two
    # blocks cancels, so the product is y @ v, often zero, with many of
    # its entries reached through running sums that pass through zero
    nr, nk, nl, nc = (data.draw(st.integers(0, 5)) for _ in range(4))
    entry = st.integers(-3, 3)

    def block(r, c):
        return data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                  min_size=r, max_size=r))

    x, y, u, v = block(nr, nk), block(nr, nl), block(nk, nc), block(nl, nc)
    a = [xr + xr + yr for xr, yr in zip(x, y)]
    b = u + [[-e for e in r] for r in u] + v
    product = [[sum(y[i][k] * v[k][j] for k in range(nl)) for j in range(nc)]
               for i in range(nr)]
    p = dense(a, 2 * nk + nl) @ dense(b, nc)
    assert p == dense(product, nc)
    assert p.is_zero() == (not any(map(any, product)))
    assert list(p.rows) == sorted(p.rows)
    assert all(r and list(r) == sorted(r) for r in p.rows.values())


def test_repr_is_sparse():
    assert repr(IntMatrix([[0, 2, 0], [0, 0, 0]])) == \
        "IntMatrix(nrows=2, ncols=3, rows={0: {1: 2}})"
    assert repr(IntMatrix.from_rows(10**6, 10**6, {})) == \
        "IntMatrix(nrows=1000000, ncols=1000000, rows={})"

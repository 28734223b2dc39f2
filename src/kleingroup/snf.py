"""Sparse exact integer matrices and Smith normal form.

An ``IntMatrix`` keeps only its nonzero entries, row by row, from
boundary construction to the reduction.  Entries are Python ints, so
nothing overflows.  Pivots are units while any is left, else smallest
entries.  That does not bound coefficient growth: a scrambled 18 x 16
boundary has reached entries of 1,955,814 bits.  Row operations clear a
pivot's column; the column operations that clear its row then touch that
row alone, so they reduce to remainders mod the pivot.  A pivot of +-1
leaves remainders 0 everywhere, so its step is one pass over its column
and the pivot row then leaves the matrix as it stands, with no sign flip
and no sweep of its other entries.  On simplicial boundaries nearly
every pivot is such a unit.

The order is part of the result.  ``IntMatrix.from_rows``, which builds
every matrix, checks its input and stores rows, and the entries within
a row, in ascending index order.  The pivot search takes the first unit
in that order, so another order could pick other pivots and report
another unit prefix, though never other invariant factors.  While
every pivot is a unit, the search looks only for a +-1 and resumes at a
cursor past the rows that hold none, and a step moves it back only to a
row its row operations touch, so it finds the same first unit without
rereading the rows behind it.  When no unit is left, one plain scan of
every row finds the first entry of least magnitude; that larger pivot
ends the unit prefix, after which any order gives the same result, and
the search stays that scan.  A product ``a @ b`` drops each sum that
cancels to zero as it accumulates, so the double boundary of a chain
complex reaches ``from_rows`` as no rows.

One loop, ``_diagonal_moduli``, does the elimination, with the row
operation and the balanced division written out in it.  One pass over
the pivot's column, with one copy of the row operation, serves every
pivot; a unit differs only in its quotient and in how its row leaves.
``smith_normal_form(m, skip)`` copies only the columns not in ``skip`` and
always returns ``(factors, rank, unit_rows)``, the last the pivot rows
of its unit prefix, so that ``homology_of_chain`` can leave out the
columns those rows index in the boundary one degree down (clearing).
That is exact over Z only for a chain complex whose double boundary is zero.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd


class IntMatrix:
    """A sparse nrows x ncols integer matrix: ``rows`` maps each row with
    a nonzero entry to its {column: entry} dict, both in index order,
    which fixes the order in which the reduction meets pivots.  Only
    ``from_rows`` builds one; ``IntMatrix(data)`` reads dense int rows,
    which give the width, through it."""

    __slots__ = ("nrows", "ncols", "rows")

    def __new__(cls, data):
        data = [list(row) for row in data]
        widths = {len(r) for r in data}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        # int zeros go here; every other entry reaches from_rows's checks
        return cls.from_rows(len(data), widths.pop() if widths else 0, {
            i: {j: v for j, v in enumerate(row) if v or type(v) is not int}
            for i, row in enumerate(data)})

    @classmethod
    def from_rows(cls, nrows: int, ncols: int, rows: dict) -> "IntMatrix":
        """The matrix whose row i is the {column: int} dict ``rows.get(i,
        {})``.  Checks the shape, indices and entries, drops zeros and
        stores rows and entries in index order; a row already so is kept,
        not copied."""
        if not (type(nrows) is int and type(ncols) is int):
            raise TypeError(f"shape must be two ints, got {nrows!r} x {ncols!r}")
        if nrows < 0 or ncols < 0:
            raise ValueError(f"negative shape {nrows} x {ncols}")
        out = {}
        try:
            for i, row in rows.items():
                if not (type(i) is int and 0 <= i < nrows):
                    _check_index(i, nrows, "row")
                prev = -1
                for j, v in row.items():
                    if not (type(j) is int and type(v) is int and prev < j < ncols and v):
                        row = _clean_row(row, ncols)
                        break
                    prev = j
                if row:
                    out[i] = row
        except AttributeError:
            raise TypeError("rows must be a {row: {column: int}} dict of dicts") from None
        m = object.__new__(cls)
        m.nrows, m.ncols = nrows, ncols
        m.rows = out if list(out) == sorted(out) else dict(sorted(out.items()))
        return m

    @property
    def data(self) -> list[list[int]]:
        """A fresh dense copy of the entries: a read-only view that only
        the benchmark's observers read."""
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for i, r in self.rows.items():
            for j, v in r.items():
                out[i][j] = v
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __reduce__(self):
        return IntMatrix.from_rows, (self.nrows, self.ncols, self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix(nrows={self.nrows}, ncols={self.ncols}, rows={self.rows!r})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        # a sum that cancels to zero leaves its row at once, so a zero
        # product, such as a double boundary, hands from_rows no rows
        out: dict[int, dict[int, int]] = {}
        orows = other.rows
        for i, row in self.rows.items():
            acc = {}
            for k, a in row.items():
                if brow := orows.get(k):
                    for j, b in brow.items():
                        if s := acc.get(j, 0) + a * b:
                            acc[j] = s
                        else:
                            del acc[j]
            if acc:
                out[i] = acc
        return IntMatrix.from_rows(self.nrows, other.ncols, out)

    def is_zero(self) -> bool:
        return not self.rows


def _check_index(k, n: int, what: str) -> None:
    if type(k) is not int:
        raise TypeError(f"{what} index must be an int, got {k!r}")
    if not 0 <= k < n:
        raise ValueError(f"{what} index {k} outside 0..{n - 1}")


def _clean_row(row: dict, ncols: int) -> dict[int, int]:
    """A checked copy of ``row`` without zeros, in column order."""
    nonzero = []
    for j, v in row.items():
        if not (type(j) is int and type(v) is int and 0 <= j < ncols):
            _check_index(j, ncols, "column")
            raise TypeError(f"entries must be ints, got {v!r}")
        if v:
            nonzero.append((j, v))
    return dict(sorted(nonzero))


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 such that each of ``values`` (each
    > 1) is a product of their powers, found by gcd splitting alone."""
    base: list[int] = []
    todo = list(values)
    while todo:
        x = todo.pop()
        for idx, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[idx]
                todo += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    return base


def invariant_factor_chain(moduli: list[int]) -> list[int]:
    """Sort a list of moduli (each >= 1) into a divisibility chain d1|d2|...

    The chain presents the same group Z/d1 + Z/d2 + ...; the largest
    powers of each coprime base element sink to the end.

    >>> invariant_factor_chain([2, 3])
    [1, 6]
    >>> invariant_factor_chain([4, 6])
    [2, 12]
    """
    if min(moduli, default=1) < 1:
        raise ValueError("moduli must be positive")
    big = [d for d in moduli if d > 1]
    chain = [1] * len(moduli)
    for b in _coprime_base(set(big)):
        es: list[int] = []
        for d in big:
            e = 0
            while d % b == 0:
                d, e = d // b, e + 1
            es.append(e)
        for k, e in enumerate(sorted(es), len(chain) - len(es)):
            chain[k] *= b**e
    return chain


def _pivot(rows: dict[int, dict[int, int]]) -> tuple[int, int]:
    """The first unit entry, else the first entry of smallest magnitude.

    During the unit prefix the search for a unit resumes at a cursor
    instead (``_unit_from``): the rows before it have been read and hold
    no +-1, and only a unit step's row operations change rows, so the
    cursor goes back to the least row they touch.  When no unit is left,
    this scan finds the larger pivot, once; every pivot order after it
    gives the same invariant factors and rank, so the cursor needs no
    upkeep and the search stays this scan."""
    least, at = 0, (0, 0)
    for i, r in rows.items():
        for j, v in r.items():
            if v == 1 or v == -1:
                return i, j
            if not least or abs(v) < least:
                least, at = abs(v), (i, j)
    return at


def _unit_from(rows: dict[int, dict[int, int]], start: int, nrows: int) -> tuple[int, int] | None:
    """The first +-1 in a row from ``start`` on, else None."""
    for i in range(start, nrows):
        if r := rows.get(i):
            for j, v in r.items():
                if v == 1 or v == -1:
                    return i, j
    return None


def _diagonal_moduli(m: IntMatrix, skip) -> tuple[list[int], list[int]]:
    """Diagonalize by unimodular operations, leaving out the columns in
    ``skip``; return the positive diagonal entries (not yet chained) and
    the unit-prefix rows.

    Each step makes one pass over its pivot's column: every other row
    with an entry a there loses q times the pivot row.  A unit pivot
    p = +-1 takes q = a * p, which clears the column exactly, so no row
    takes over; its row and column entry leave before the pass, and its
    other entries leave with it, unflipped and unswept, as every
    remainder mod 1 is 0.  A larger pivot is flipped to be positive and
    takes the balanced quotient, which leaves remainders in (-p/2, p/2],
    and a nonzero one takes over as pivot; then each other entry of the
    pivot row becomes its balanced remainder modulo the pivot, and a
    nonzero one takes over again.  The unit prefix is the run of steps
    before any pivot held a value other than +-1; its rows are returned
    in the order they were popped.  A step that starts at a larger pivot
    and hands over to a unit has mixed rows, so the prefix ends there
    even though it pops 1.
    """
    skip = set(skip)
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = defaultdict(set)
    for i, r in m.rows.items():
        # copy only the kept columns
        if kept := {j: v for j, v in r.items() if j not in skip} if skip else dict(r):
            rows[i] = kept
            for j in kept:
                cols[j].add(i)

    moduli: list[int] = []
    unit_rows: list[int] = []
    units = True
    cursor, nrows = 0, m.nrows
    while rows:
        at = _unit_from(rows, cursor, nrows) if units and cursor else None
        # no row before the cursor holds a unit, so when none is left from
        # it on, _pivot finds the least entry, and that pivot ends the prefix
        pi, pj = at or _pivot(rows)
        while True:
            prow = rows[pi]
            p = prow[pj]
            if unit := p == 1 or p == -1:
                # no row operation touches column pj once prow lacks it,
                # so the pass can walk the popped column itself
                del rows[pi], prow[pj]
                (others := cols.pop(pj)).discard(pi)
                if units:
                    # rows up to pi hold no unit until this pass
                    cursor = pi + 1
                    for i in others:
                        if i < cursor:
                            cursor = i
            else:
                units = False
                if p < 0:
                    p = -p
                    prow = rows[pi] = {j: -v for j, v in prow.items()}
                p2 = 2 * p
                others = [i for i in cols[pj] if i != pi]
            for i in others:
                row = rows[i]
                # q = a * p for a unit, else q = round(a / p), halves
                # rounding down, which leaves a - q*p in (-p/2, p/2]
                if q := row.pop(pj) * p if unit else (2 * row[pj] + p - 1) // p2:
                    # row i -= q * row pi
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
                if not unit and pj in row:
                    pi = i
                    break
            else:
                if unit:
                    # every remainder mod 1 is 0: the row leaves as it is
                    for j in prow:
                        cols[j].discard(pi)
                    moduli.append(1)
                    if units:
                        unit_rows.append(pi)
                    break
                for j in [j for j in prow if j != pj]:
                    v = prow[j]
                    if r := v - (2 * v + p - 1) // p2 * p:
                        prow[j] = r
                        pj = j
                        break
                    del prow[j]
                    cols[j].discard(pi)
                else:
                    moduli.append(rows.pop(pi)[pj])
                    cols[pj].discard(pi)
                    break
    return moduli, unit_rows


def smith_normal_form(m: IntMatrix, skip=()) -> tuple[list[int], int, list[int]]:
    """The invariant factors (the nonzero SNF diagonal, each dividing the
    next), the rank and the unit-prefix rows of ``m`` with the columns in
    ``skip`` left out.  The unit-prefix rows are the pivot rows popped
    before any pivot held a value other than +-1, in the order they were
    popped.

    >>> smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    ([1, 6], 2, [])
    >>> smith_normal_form(IntMatrix.from_rows(3, 2, {}))
    ([], 0, [])
    >>> smith_normal_form(IntMatrix([[1, 2], [3, 4]]))
    ([1, 2], 2, [0])
    >>> smith_normal_form(IntMatrix([[1, 2], [3, 4]]), skip=[0])
    ([2], 1, [])
    """
    if not isinstance(m, IntMatrix):
        raise TypeError(f"smith_normal_form takes an IntMatrix, got {type(m).__name__}")
    skip = tuple(skip)  # read once: the checks would use up an iterator
    for j in skip:
        _check_index(j, m.ncols, "skipped column")
    moduli, unit_rows = _diagonal_moduli(m, skip)
    return invariant_factor_chain(moduli), len(moduli), unit_rows


__all__ = ["IntMatrix", "smith_normal_form", "invariant_factor_chain"]

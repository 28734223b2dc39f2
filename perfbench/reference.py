"""Independent references: integer arithmetic that never calls kleingroup.

Abelian groups are compared in one normal form, (rank, sorted prime-power
elementary divisors), which neither side's invariant-factor code
produces.  Group elements are (n, m) tuples under the twisted law
(n1, m1)(n2, m2) = (n1 + (-1)^m1 n2, m1 + m2); powers go by repeated
squaring, not by the library's closed form.
"""

from __future__ import annotations

import math


def prime_powers(d: int) -> list[int]:
    """The prime-power factors of d >= 1, by trial division."""
    out, p = [], 2
    while p * p <= d:
        if d % p == 0:
            q = 1
            while d % p == 0:
                q *= p
                d //= p
            out.append(q)
        p += 1
    if d > 1:
        out.append(d)
    return out


def group(rank: int, moduli) -> tuple[int, list[int]]:
    """Z^rank + sum of Z/d over moduli, as (rank, elementary divisors)."""
    return rank, sorted(q for d in moduli for q in prime_powers(d))


def graded(h) -> list[tuple[int, list[int]]]:
    """A kleingroup GradedGroups in the normal form of :func:`group`."""
    return [group(g.rank, g.torsion) for g in h.groups]


def trim(groups: list) -> list:
    """Drop trailing trivial degrees, as GradedGroups does."""
    while groups and groups[-1] == (0, []):
        groups.pop()
    return groups


def join_model(n: int) -> list:
    """H(join of n circles with the Klein bottle) = Z; 0; (Z+Z_2)^(n-1); (Z+Z_2)^n."""
    return trim([group(1, []), group(0, []), group(n - 1, [2] * (n - 1)),
                 group(n, [2] * n)])


def circles_times_klein(n: int) -> list:
    """H(n disjoint circles x K): n copies of H(S^1 x K) = Z; Z^2+Z_2; Z+Z_2."""
    return [group(n, []), group(2 * n, [2] * n), group(n, [2] * n)]


def mul(g, h):
    return (g[0] + (-1) ** (g[1] % 2) * h[0], g[1] + h[1])


def inv(g):
    return (-((-1) ** (g[1] % 2)) * g[0], -g[1])


def power(g, k: int):
    if k < 0:
        g, k = inv(g), -k
    acc = (0, 0)
    while k:
        if k & 1:
            acc = mul(acc, g)
        g = mul(g, g)
        k >>= 1
    return acc


def canonical(g):
    """The generator of <g> with m > 0, or m == 0 and n > 0."""
    return inv(g) if g[1] < 0 or (g[1] == 0 and g[0] < 0) else g


def contains(gen, g) -> bool:
    """Whether g is a power of gen, by computing the only candidate power."""
    n, m = canonical(gen)
    if m == 0:
        return g[1] == 0 and g[0] % n == 0
    return g[1] % m == 0 and power((n, m), g[1] // m) == g


def comm_class(gen) -> dict:
    """The class of <gen>: H (horizontal), K (odd or vertical), or R with
    the primitive even direction, first coordinate made nonnegative."""
    n, m = canonical(gen)
    if m == 0:
        return {"tag": "H"}
    if m % 2 or n == 0:
        return {"tag": "K"}
    d = math.gcd(n, m // 2)
    return {"tag": "R", "representative": {"n": abs(n) // d, "m": m // d}}

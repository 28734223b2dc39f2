"""The four benchmark workloads and their independent references.

A workload turns a seeded ``random.Random`` into one *round*: a list of
tasks.  A task is one call into kleingroup's public API (``run``) plus a
check of its output against a reference computed here (``check``).  The
library modules are looked up as module attributes at call time, so the
traced run sees the wrapped functions.

References never go through the code under test:

* ``sweep``: each suite is its own brute-force oracle; it must report
  ``ok`` with a nonzero check count.
* ``homology``: the closed forms for the join model and the Kunneth
  tables for the products, compared as ranks and prime-power torsion.
* ``chain-torsion``: the homology prescribed by the generator.
* ``cli``: the golden stdout in ``tests/golden/cases.json``, and integer
  arithmetic in reference.py for the seeded calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
from typing import Callable, NamedTuple

import reference as ref
from kleingroup import cli, homology, simplicial, snf, verify


class Task(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _permuted(x, perm: list[int]):
    """The same complex with its sorted vertex labels renamed by perm."""
    names = dict(zip(x.vertices, perm))
    return simplicial.SimplicialComplex(
        [tuple(names[v] for v in s) for s in x.all_faces()], closed=True)


# ------------------------------------------------------------------ sweep


def sweep_round(rng) -> list[Task]:
    """The eight suites at their contractual bounds; the seed reaches
    the randomized part of group-law."""
    seed = rng.randrange(2**31)

    def ok(report) -> bool:
        return report.ok and report.checks > 0

    return [Task(name, lambda name=name: verify.run_suite(name, seed=seed), ok)
            for name in sorted(verify.SUITES)]


def sweep_warm_up() -> None:
    verify.group_law_suite(bound=1, samples=10)
    for name in sorted(verify.SUITES):
        if name != "group-law":
            verify.run_suite(name, bound=1, max_denominator=1)


# --------------------------------------------------------------- homology

JOIN_CIRCLES = range(1, 9)
KUNNETH_CIRCLES = (16, 32, 64, 128, 256)
PRODUCT_CIRCLES = (1, 2)  # S^1 x K and the larger (S^1 + S^1) x K


def homology_round(rng) -> list[Task]:
    """Simplicial homology of the join model for N in JOIN_CIRCLES and
    of two products, each with seed-permuted vertex labels, plus the
    Kunneth route at larger N."""
    tasks = []
    for n in JOIN_CIRCLES:
        perm = rng.sample(range(3 * n + 9), 3 * n + 9)

        def run(n=n, perm=perm):
            x = simplicial.join(simplicial.disjoint_circles(n), simplicial.klein_complex())
            return homology.simplicial_homology(_permuted(x, perm))

        tasks.append(Task(f"join-{n}", run,
                          lambda h, n=n: ref.graded(h) == ref.join_model(n)))
    for n in PRODUCT_CIRCLES:
        perm = rng.sample(range(27 * n), 27 * n)

        def run(n=n, perm=perm):
            x = simplicial.product(simplicial.disjoint_circles(n), simplicial.klein_complex())
            return homology.simplicial_homology(_permuted(x, perm))

        tasks.append(Task(f"product-{n}", run,
                          lambda h, n=n: ref.graded(h) == ref.circles_times_klein(n)))
    for n in KUNNETH_CIRCLES:
        tasks.append(Task(f"kunneth-{n}", lambda n=n: homology.model_homology(n),
                          lambda h, n=n: ref.graded(h) == ref.join_model(n)))
    return tasks


def homology_warm_up() -> None:
    homology.model_homology(1)
    homology.model_homology(1, method="simplicial")


# ---------------------------------------------------------- chain-torsion

CHAIN_DEGREES = 4          # chain groups C_0..C_3, three boundary maps
CHAIN_RANKS = (6, 10)      # rank of each chain group, inclusive range
CHAIN_MODULI = (1, 30)     # d of each piece Z --d--> Z, inclusive range
CHAIN_TASKS = 200          # complexes per round


def chain_complex(rng) -> tuple[list[list[list[int]]], list]:
    """A chain complex with prescribed homology, in a scrambled basis.

    The complex is a direct sum of pieces Z --d--> Z and free Z's.  Each
    chain group then gets ``rank`` random elementary basis changes
    (add +-1 times one basis vector to another).  A change U in degree k
    multiplies the boundary into degree k by U on the left and the
    boundary out of degree k by U^-1 on the right, so the double
    boundary stays zero while entries and pivots stop being units.
    Returns the boundary matrices (``b[k]``: degree k+1 -> k) and the
    expected homology per degree.
    """
    dims = [rng.randint(*CHAIN_RANKS) for _ in range(CHAIN_DEGREES)]
    top = CHAIN_DEGREES - 1
    b = [[[0] * dims[k + 1] for _ in range(dims[k])] for k in range(top)]
    used = [0] * CHAIN_DEGREES
    torsion: list[list[int]] = [[] for _ in dims]
    for k in range(top):
        for _ in range(rng.randint(0, min(dims[k] - used[k], dims[k + 1]))):
            d = rng.randint(*CHAIN_MODULI)
            b[k][used[k]][used[k + 1]] = d
            torsion[k].append(d)
            used[k] += 1
            used[k + 1] += 1
    for k, n in enumerate(dims):
        for _ in range(n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            if k < top:  # rows of b[k] are the basis of C_k
                row_i, row_j = b[k][i], b[k][j]
                for t in range(len(row_i)):
                    row_i[t] += c * row_j[t]
            if k > 0:  # columns of b[k-1] are the basis of C_k
                for row in b[k - 1]:
                    row[j] -= c * row[i]
    expected = ref.trim([ref.group(n - used[k], torsion[k]) for k, n in enumerate(dims)])
    return b, expected


def chain_round(rng) -> list[Task]:
    tasks = []
    for i in range(CHAIN_TASKS):
        mats, expected = chain_complex(rng)
        tasks.append(Task(
            f"chain-{i}",
            lambda mats=mats: homology.homology_of_chain([snf.IntMatrix(m) for m in mats]),
            lambda h, expected=expected: ref.graded(h) == expected))
    return tasks


def chain_warm_up() -> None:
    mats, _ = chain_complex(random.Random("warm-up"))
    homology.homology_of_chain([snf.IntMatrix(m) for m in mats])


# -------------------------------------------------------------------- cli

BIG = 10**30
CLI_CALLS = 30             # seeded calls per round, besides the golden cases
GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "cases.json"


def call_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``kleingroup.cli.main(argv + ["--json"])``: exit code
    and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--json"])
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def _elem(g) -> dict:
    return {"element": {"n": g[0], "m": g[1]}}


def _coord(rng) -> int:
    return rng.randint(-BIG, BIG)


def _generator(rng) -> tuple[int, int]:
    """A nonzero (n, m) that hits each commensurability class."""
    kind = rng.randrange(4)
    n, m = _coord(rng) or 1, _coord(rng)
    if kind == 0:
        return n, 0
    if kind == 1:
        return 0, m or 1
    if kind == 2:
        return n, m | 1
    return n, (m & ~1) or 2


def _seeded_call(rng, op: str) -> tuple[list[str], dict]:
    """argv for one generated CLI call and the expected ``result``."""
    g, h = (_coord(rng), _coord(rng)), (_coord(rng), _coord(rng))
    if op == "mul":
        return ["mul", *map(str, g + h)], _elem(ref.mul(g, h))
    if op == "inv":
        return ["inv", *map(str, g)], _elem(ref.inv(g))
    if op == "pow":
        k = rng.randint(-10**6, 10**6)
        return ["pow", *map(str, g), str(k)], _elem(ref.power(g, k))
    if op == "conj":
        return ["conj", *map(str, g + h)], _elem(ref.mul(ref.mul(g, h), ref.inv(g)))
    if op == "contains":
        gen = _generator(rng)
        if rng.random() < 0.5:
            h = ref.power(gen, rng.randint(-20, 20))
        return ["contains", *map(str, gen + h)], {"member": ref.contains(gen, h)}
    gen = _generator(rng)
    return ["class", *map(str, gen)], ref.comm_class(gen)


CLI_OPS = ("mul", "inv", "pow", "conj", "contains", "class")


def _golden_ok(expected: str):
    return lambda out: out == (0, expected)


def _result_ok(command: str, result: dict):
    def check(out) -> bool:
        code, text = out
        if code != 0:
            return False
        record = json.loads(text)
        return record["command"] == command and record["result"] == result
    return check


def cli_round(rng) -> list[Task]:
    """The golden transcript byte for byte, interleaved with seeded
    calls whose results are recomputed here."""
    cases = json.loads(GOLDEN.read_text())
    tasks = [Task(name, lambda argv=case["argv"]: call_cli(argv), _golden_ok(case["stdout"]))
             for name, case in sorted(cases.items())]
    for i in range(CLI_CALLS):
        op = CLI_OPS[i % len(CLI_OPS)]
        argv, result = _seeded_call(rng, op)
        tasks.append(Task(op, lambda argv=argv: call_cli(argv), _result_ok(op, result)))
    rng.shuffle(tasks)
    return tasks


def cli_warm_up() -> None:
    call_cli(["mul", "1", "2", "3", "4"])


WORKLOADS = {
    "sweep": (sweep_round, sweep_warm_up),
    "homology": (homology_round, homology_warm_up),
    "chain-torsion": (chain_round, chain_warm_up),
    "cli": (cli_round, cli_warm_up),
}

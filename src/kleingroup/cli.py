"""Command-line front end.

Rationals are written p/q (q > 0) or as bare integers; vertical slopes
are written "inf".  Every command emits a record with the echoed
command, normalized inputs, the result payload, and the case that
fired; --json switches from the one-line text rendering to canonical
JSON (sorted keys, compact separators), which is byte-deterministic.
One ``json.JSONEncoder`` writes it: its ``default`` hook, ``_json``,
gives each library value's form one level deep, and the encoder walks
the dicts, lists, strings and numbers.

``product`` and ``join`` read the homology of their factors from the
closed forms in ``homology``, so they build no complex and run no Smith
normal form; only ``homology --method simplicial`` does.

Exit codes: 0 on success, 1 on a precondition violation (the violated
precondition is named on stderr) or a failed verification sweep, 2 on
a parse error.

An argv naming a subcommand first is read by that subcommand's parser alone,
the one call the top-level parser would make, so no message or exit code changes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction

from .abelian import AbelianGroup, GradedGroups
from .core import GroupElement, conj, inv, mul, power
from .homology import (
    KNOWN_HOMOLOGY,
    circles_homology,
    kunneth_join,
    kunneth_product,
    model_homology,
)
from .isotropy import FixedSetDescriptor, fixed_set, isotropy_group
from .models import ModelDescriptor, piece_action, piece_coordinate, piece_text, pushout_report
from .plane import (
    Line,
    LineDistance,
    PlanePoint,
    VERTICAL,
    act_line,
    act_point,
    line_distance,
    stabilizes,
)
from .subgroups import (
    CommClass,
    CyclicSubgroup,
    comm_class,
    commensurable,
    commensurator,
    conj_subgroup,
    contains,
    family_contains,
    fixed_direction,
    maximal_translations,
    subgroup,
)
from .verify import SUITES, SuiteReport, suite_options


# --- argument kinds -----------------------------------------------------------


# Fraction expands the decimal exponent of "1e9999999" into 10**exponent, so
# a huge one hangs; cap it at the digit limit Python puts on int arguments
EXPONENT_CAP = 4_300
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")


def _rational(text: str) -> Fraction:
    try:
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent[1])) > EXPONENT_CAP:
            raise ValueError(f"decimal exponent capped at {EXPONENT_CAP}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({e})")


def _slope(text: str):
    if text.strip() in ("inf", "Inf", "INF"):
        return VERTICAL
    return _rational(text)


def _space_name(text: str) -> str:
    if text in KNOWN_HOMOLOGY or re.fullmatch(r"circles:[1-9]\d*", text):
        return text
    raise argparse.ArgumentTypeError(
        f"unknown space {text!r}; use point, circle, klein, or circles:N"
    )


# circles:N in product and join.  The factors are closed forms, but a
# result holds N-long torsion tuples: join circles:10000 klein takes about
# 0.01 s in process on a 2-vCPU host, and the Kunneth route's 10^6 circles
# about 1.7 s in a fresh process
CIRCLES_CAP = 10_000


def _space_homology(name: str) -> GradedGroups:
    """The unreduced homology of a named space, from its closed form."""
    if name in KNOWN_HOMOLOGY:
        return KNOWN_HOMOLOGY[name]
    digits = name.split(":")[1]
    # no leading zeros, so compare lengths first: int() refuses > 4,300 digits
    if len(digits) > len(str(CIRCLES_CAP)) or int(digits) > CIRCLES_CAP:
        raise ValueError(f"circles:N capped at {CIRCLES_CAP}")
    return circles_homology(int(digits))


_KINDS = {"int": int, "rational": _rational, "slope": _slope, "space": _space_name}


# --- encoders: one JSON form and one text form per value type -----------------


def _fmt_q(x) -> str:
    if x == VERTICAL:
        return "inf"
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _class_counts(d: ModelDescriptor) -> Counter:
    return Counter(c.tag for c in d.pieces)


def _family(c: CommClass) -> dict:
    """The record of class c's family: "odd-class" for K, which has no one
    maximal anchor, else "commensurable-into" its maximal translations."""
    if c.tag == "K":
        return {"kind": "odd-class"}
    return {"kind": "commensurable-into", "anchor": maximal_translations(*c.direction).gen}


def _piece(c: CommClass) -> dict:
    """The record of the pushout piece of the class c."""
    label, space = piece_text(c)
    return {"label": label, "space": space, "class": c,
            "commensurator": commensurator(c), "family": _family(c)}


def _present(fields: dict) -> dict:
    """``fields`` without the entries that are None."""
    return {k: v for k, v in fields.items() if v is not None}


def _json(v):
    """The JSON form of a library value, one level deep; rationals become
    "p/q" strings.  It is the ``default`` hook of ``_ENCODER``, which walks
    the dicts, lists, strings and numbers of a record itself and calls
    back here for every other value, those in a returned form included."""
    match v:
        case Fraction():
            return _fmt_q(v)
        case GroupElement():
            return {"n": v.n, "m": v.m}
        case PlanePoint():
            return {"t": _fmt_q(v.t), "r": _fmt_q(v.r)}
        case Line():
            return {"slope": _fmt_q(v.slope), "intercept": _fmt_q(v.intercept)}
        case CyclicSubgroup():
            return {"generator": v.gen}
        case CommClass():
            return _present({"tag": v.tag, "representative": v.rep and v.rep.gen})
        case FixedSetDescriptor():
            return _present({"kind": v.kind, "slope": v.slope, "line": v.line})
        case LineDistance():
            return {"parallel": v.parallel, "width_sq": v.width_sq, "distance": v.value}
        case AbelianGroup():
            return {"rank": v.rank, "torsion": v.torsion}
        case GradedGroups():
            groups = {str(n): g for n, g in enumerate(v)}
            return {"homology": {"reduced": v.reduced, "groups": groups}, "text": v.text()}
        case ModelDescriptor():
            return {"kind": v.kind, "base": v.base, "pieces": [_piece(c) for c in v.pieces],
                    "identifications": v.identifications, "counts": _class_counts(v)}
        case SuiteReport():
            return {"suite": v.suite, "parameters": v.parameters, "checks": v.checks,
                    "failures": v.failures, "ok": v.ok}
    raise TypeError(f"no JSON form for {type(v).__name__}")


# canonical JSON: sorted keys and compact separators, so byte-deterministic
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_json)


def _text(v) -> str:
    """The one-line text form of a record's result.  A dict result reads
    as its last entry, the answer; earlier entries give its context."""
    match v:
        case bool():
            return str(v).lower()
        case Fraction():
            return _fmt_q(v)
        case dict():
            return _text(list(v.values())[-1])
        case GroupElement():
            return f"({v.n}, {v.m})"
        case PlanePoint():
            return f"({_fmt_q(v.t)}, {_fmt_q(v.r)})"
        case Line():
            return f"line(slope={_fmt_q(v.slope)}, intercept={_fmt_q(v.intercept)})"
        case CyclicSubgroup():
            return f"<{_text(v.gen)}>"
        case CommClass():
            return v.tag if v.rep is None else f"{v.tag} with representative {_text(v.rep)}"
        case FixedSetDescriptor(kind="single-point"):
            return f"single line {_text(v.line)}"
        case FixedSetDescriptor(kind="vertical-family"):
            return "all vertical lines"
        case FixedSetDescriptor(kind="slope-family"):
            return f"all lines of slope {_fmt_q(v.slope)}"
        case LineDistance():
            return f"distance {v.value}"
        case GradedGroups():
            return v.text()
        case ModelDescriptor():
            counts = _class_counts(v)
            return f"pieces: H={counts['H']} K={counts['K']} R={counts['R']}"
        case SuiteReport():
            return f"{v.suite}: {'ok' if v.ok else 'FAILED'} ({v.checks} checks)"
    return str(v)


# --- the command table ----------------------------------------------------------

_COMMON = argparse.ArgumentParser(add_help=False)
_COMMON.add_argument("--json", action="store_true", help="emit canonical JSON")
_COMMON.add_argument("--out", metavar="FILE", default=None,
                     help="also write the output to FILE")

_PARSER = argparse.ArgumentParser(
    prog="kleingroup",
    description="Exact computations in and around the Klein bottle group.",
)
_SUBCOMMANDS = _PARSER.add_subparsers(dest="command", required=True)


def _command(name: str, help_text: str, params: str = "", options=()):
    """Register a handler as the subcommand ``name`` of the parser.

    ``params`` names its positional arguments in order, each as ``name``
    (an integer) or ``name:kind`` with a kind of ``_KINDS``; ``options``
    lists its own options as (flag, ``add_argument`` keywords) pairs.  The
    handler takes the parsed arguments and yields (inputs, result,
    provenance) records of library values, which ``_ENCODER`` and ``_text``
    encode.
    """
    def register(handler):
        p = _SUBCOMMANDS.add_parser(name, parents=[_COMMON], help=help_text)
        p.set_defaults(handler=handler)
        for param in params.split():
            dest, _, kind = param.partition(":")
            p.add_argument(dest, type=_KINDS[kind or "int"])
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        return handler
    return register


@_command("mul", "product of two elements", "n1 m1 n2 m2")
def _h_mul(a):
    g, h = GroupElement(a.n1, a.m1), GroupElement(a.n2, a.m2)
    yield {"left": g, "right": h}, {"element": mul(g, h)}, "twisted product law"


@_command("inv", "inverse of an element", "n m")
def _h_inv(a):
    g = GroupElement(a.n, a.m)
    yield {"element": g}, {"element": inv(g)}, "inverse law"


@_command("pow", "integer power of an element", "n m k")
def _h_pow(a):
    g = GroupElement(a.n, a.m)
    if g.m % 2 == 0:
        case = "power: straight line (even generator)"
    elif a.k % 2 == 0:
        case = "power: odd generator, even exponent collapse"
    else:
        case = "power: odd generator, odd exponent"
    yield {"base": g, "exponent": a.k}, {"element": power(g, a.k)}, case


@_command("conj", "conjugate t g t^-1", "t1 t2 n m")
def _h_conj(a):
    t, g = GroupElement(a.t1, a.t2), GroupElement(a.n, a.m)
    yield {"by": t, "element": g}, {"element": conj(t, g)}, "conjugation closed form"


@_command("act-point", "apply an element to a plane point", "n m t:rational r:rational")
def _h_act_point(a):
    g, p = GroupElement(a.n, a.m), PlanePoint(a.t, a.r)
    yield {"element": g, "point": p}, {"point": act_point(g, p)}, "plane action"


@_command("act-line", "apply an element to a line", "n m slope:slope intercept:rational")
def _h_act_line(a):
    g, line = GroupElement(a.n, a.m), Line(a.slope, a.intercept)
    case = ("line action: vertical line shifted" if line.vertical
            else "line action: slope reflected by parity")
    yield {"element": g, "line": line}, {"line": act_line(g, line)}, case


@_command("isotropy", "stabilizer of a line", "slope:slope intercept:rational")
def _h_isotropy(a):
    line = Line(a.slope, a.intercept)
    s = isotropy_group(line)
    # a glide stabilizes only a vertical line through a half-integer, and
    # the maximal translations are doubled exactly for an odd direction
    if s.gen.m % 2:
        case = "isotropy: vertical line, twice-intercept integral"
    elif line.vertical:
        case = "isotropy: vertical line, twice-intercept non-integral"
    elif line.a == 0:
        case = "isotropy: zero slope"
    elif (s.gen.n, s.gen.m) == fixed_direction(s):
        case = "isotropy: finite slope, even reduced numerator"
    else:
        case = "isotropy: finite slope, odd reduced numerator"
    yield {"line": line}, s, case


@_command("fixed-set", "fixed lines of a cyclic subgroup", "n m")
def _h_fixed_set(a):
    s = subgroup(a.n, a.m)
    d = fixed_set(s)
    case = {
        "single-point": "fixed lines: odd generator fixes one vertical line",
        "vertical-family": "fixed lines: vertical even generator fixes all vertical lines",
        "slope-family": "fixed lines: even generator fixes its slope family",
    }[d.kind]
    yield {"generator": s.gen}, d, case


@_command("class", "commensurability class of a subgroup", "n m")
def _h_class(a):
    c = comm_class(subgroup(a.n, a.m))
    case = {
        "H": "class: horizontal",
        "K": "class: odd or purely vertical",
        "R": "class: flat direction, reduced by gcd",
    }[c.tag]
    yield {"generator": GroupElement(a.n, a.m)}, c, case


@_command("commensurator", "commensurator of a class", "n m")
def _h_commensurator(a):
    c = comm_class(subgroup(a.n, a.m))
    kind = commensurator(c)
    yield ({"generator": GroupElement(a.n, a.m), "class": c}, {"kind": kind},
           f"commensurator: {kind.replace('-', ' ')}")


@_command("family-contains", "membership in the family of a class", "n m q1 q2")
def _h_family_contains(a):
    c = comm_class(subgroup(a.n, a.m))
    f = _family(c)
    yield ({"class_generator": GroupElement(a.n, a.m),
            "candidate_generator": GroupElement(a.q1, a.q2)},
           {"family": f, "member": family_contains(c, subgroup(a.q1, a.q2))},
           f"family membership: {f['kind']}")


@_command("contains", "membership of an element in a subgroup", "n m g1 g2")
def _h_contains(a):
    s, g = subgroup(a.n, a.m), GroupElement(a.g1, a.g2)
    case = ("power membership: even generator" if s.gen.m % 2 == 0
            else "power membership: odd generator")
    yield {"generator": s.gen, "element": g}, {"member": contains(s, g)}, case


@_command("commensurable", "commensurability of two subgroups", "n1 m1 n2 m2")
def _h_commensurable(a):
    s, t = subgroup(a.n1, a.m1), subgroup(a.n2, a.m2)
    yield ({"left": s, "right": t}, {"commensurable": commensurable(s, t)},
           "parity and parallel case analysis")


@_command("conj-subgroup", "conjugate a subgroup", "t1 t2 n m")
def _h_conj_subgroup(a):
    t, s = GroupElement(a.t1, a.t2), subgroup(a.n, a.m)
    yield ({"by": t, "generator": s.gen}, conj_subgroup(t, s),
           "conjugation closed form on a generator")


@_command("line-distance", "distance in the space of lines",
          "slope1:slope b1:rational slope2:slope b2:rational")
def _h_line_distance(a):
    l1, l2 = Line(a.slope1, a.b1), Line(a.slope2, a.b2)
    d = line_distance(l1, l2)
    case = ("strip metric: parallel lines" if d.parallel
            else "strip metric: non-parallel lines at distance 1")
    yield {"left": l1, "right": l2}, d, case


@_command("stabilizes", "does an element stabilize a line",
          "n m slope:slope intercept:rational")
def _h_stabilizes(a):
    g, line = GroupElement(a.n, a.m), Line(a.slope, a.intercept)
    case = ("stabilizer criterion: vertical line" if line.vertical
            else "stabilizer criterion: finite slope")
    yield {"element": g, "line": line}, {"stabilizes": stabilizes(g, line)}, case


@_command("is-axis", "is a line the axis of a nontrivial element",
          "slope:slope intercept:rational")
def _h_is_axis(a):
    # every line with an integer triple is the axis of a nontrivial element
    yield ({"line": Line(a.slope, a.intercept)}, {"axis": True},
           "every rational or vertical line is an axis")


@_command("kn-act", "index action on the odd family", "t1 t2 index")
def _h_kn_act(a):
    g = GroupElement(a.t1, a.t2)
    yield ({"element": g, "index": a.index}, {"index": piece_action((0, 1), g, a.index)},
           "index action on the odd family")


@_command("map-p", "projection to the vertical axis", "t:rational r:rational")
def _h_map_p(a):
    p = PlanePoint(a.t, a.r)
    yield {"point": p}, {"value": piece_coordinate((1, 0), p)}, "projection to the vertical axis"


@_command("map-f", "line quotient functional of a flat representative",
          "a b t:rational r:rational")
def _h_map_f(a):
    rep, p = subgroup(a.a, a.b), PlanePoint(a.t, a.r)
    # keyed by the fixed direction, not by the class key, which drops p's
    # sign; a flat representative is the maximal translations along it
    d = fixed_direction(rep)
    if 0 in d or rep != maximal_translations(*d):
        raise ValueError("flat representative must have reduced form (n, 2m) with n, m nonzero")
    yield ({"representative": rep.gen, "point": p}, {"value": piece_coordinate(d, p)},
           "line quotient functional, unit-shift normalized")


@_command("shift-act", "shift action on the horizontal piece", "n m x:rational")
def _h_shift_act(a):
    g = GroupElement(a.n, a.m)
    yield ({"element": g, "value": a.x}, {"value": piece_action((1, 0), g, a.x)},
           "shift action on the horizontal piece")


@_command("pushout-report", "assemble the pushout model",
          options=[("--bound", {"type": int, "default": 2})])
def _h_pushout_report(a):
    yield {"bound": a.bound}, pushout_report(a.bound), "class census for the pushout model"


@_command("homology", "homology of the join of circles with the Klein bottle", options=[
    ("--circles", {"type": int, "default": 1}),
    ("--method", {"choices": ("kunneth", "simplicial"), "default": "kunneth"}),
])
def _h_homology(a):
    yield ({"circles": a.circles, "method": a.method},
           model_homology(a.circles, method=a.method),
           f"join of circles with the Klein bottle, {a.method} route")


@_command("product", "homology of a product of named spaces", "left:space right:space")
def _h_product(a):
    hx, hy = _space_homology(a.left), _space_homology(a.right)
    yield ({"left": a.left, "right": a.right}, kunneth_product(hx, hy),
           "product assembled from factor homologies")


@_command("join", "homology of a join of named spaces", "left:space right:space")
def _h_join(a):
    hx = _space_homology(a.left).to_reduced()
    hy = _space_homology(a.right).to_reduced()
    yield ({"left": a.left, "right": a.right}, kunneth_join(hx, hy),
           "join assembled from reduced factor homologies")


@_command("verify", "run a verification sweep", options=[
    ("--suite", {"choices": sorted(SUITES) + ["all"], "default": "all"}),
    ("--bound", {"type": int}),
    ("--seed", {"type": int, "default": 0, "help": "seed for randomized sweeps"}),
    ("--max-denominator", {"type": int, "help": "denominator bound for sampling grids"}),
])
def _h_verify(a):
    """One record per suite; --suite all runs every suite in name order,
    once every suite has accepted the options."""
    names = sorted(SUITES) if a.suite == "all" else [a.suite]
    runs = [(name, suite_options(name, a.bound, a.seed, a.max_denominator))
            for name in names]
    for name, kwargs in runs:
        yield {"suite": name, "bound": a.bound}, SUITES[name](**kwargs), "verification sweep"


_NEGATIVE = re.compile(r"-\.?\d[\d_./eE+-]*")


def _preprocess(argv: list[str]) -> list[str]:
    # argparse takes only "-7" and "-.5" for negative numbers and reads any
    # other token that starts with "-" as an option; pad every token spelled
    # like a negative number ("-3/4", "-1e3", "-.5e1", "-1_000") with a space
    # so it stays positional, and let its type reject it if malformed
    return [" " + a if _NEGATIVE.fullmatch(a) else a for a in argv]


def main(argv: list[str] | None = None) -> int:
    """Run one call; the top-level parser reads an argv that names no subcommand first."""
    argv = _preprocess(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS.choices:
        args, extra = _SUBCOMMANDS.choices[argv[0]].parse_known_args(argv[1:])
        if extra:
            _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    else:
        args = _PARSER.parse_args(argv)
    ok = True
    try:
        for inputs, result, provenance in args.handler(args):
            _emit(args, inputs, result, provenance)
            if isinstance(result, SuiteReport) and not result.ok:
                ok = False
        sys.stdout.flush()
    except ValueError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout: end quietly, and send what is still
        # buffered, and the flush at exit, to devnull so neither raises again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0 if ok else 1


def _emit(args, inputs, result, provenance) -> None:
    # a result may run past the digit limit Python puts on int-to-str
    # conversion; only the inputs are held to it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.json:
            record = {"command": args.command, "inputs": inputs, "result": result,
                      "provenance": provenance}
            out = _ENCODER.encode(record) + "\n"
        else:
            out = f"{_text(result)}  [{provenance}]\n"
    finally:
        sys.set_int_max_str_digits(limit)
    # the file first, so a record that cannot be written is not printed
    if args.out:
        try:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as e:
            raise ValueError(f"cannot write --out file {args.out!r} ({e.strerror})") from None
    sys.stdout.write(out)


if __name__ == "__main__":
    sys.exit(main())

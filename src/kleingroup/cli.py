"""Command-line front end.

Rationals are written p/q (q > 0) or as bare integers; vertical slopes
are written "inf".  Every command emits a record with the echoed
command, normalized inputs, the result payload, and the case that
fired; --json switches from the one-line text rendering to canonical
JSON (sorted keys, compact separators), which is byte-deterministic.

Exit codes: 0 on success, 1 on a precondition violation (the violated
precondition is named on stderr), 2 on a parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from math import gcd

from .abelian import GradedGroups
from .core import GroupElement, as_affine, conj, inv, mul, power
from .homology import (
    kunneth_join,
    kunneth_product,
    model_homology,
    simplicial_homology,
)
from .isotropy import fixed_set, isotropy_group
from .models import (
    ModelDescriptor,
    axis_projection,
    index_action,
    line_quotient,
    pushout_report,
    shift_action,
)
from .plane import (
    Line,
    PlanePoint,
    VERTICAL,
    act_line,
    act_point,
    is_axis,
    line_distance,
    stabilizes,
)
from .simplicial import (
    circle_complex,
    disjoint_circles,
    klein_complex,
    point_complex,
)
from .subgroups import (
    CommClass,
    CyclicSubgroup,
    SubgroupFamily,
    canonicalize,
    class_family,
    comm_class,
    commensurable,
    commensurator,
    conj_subgroup,
    contains,
    family_contains,
    subgroup,
)
from .verify import SUITES, run_suite


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({e})")


def _slope(text: str):
    if text.strip() in ("inf", "Inf", "INF"):
        return VERTICAL
    return _rational(text)


def _fmt_q(x) -> str:
    if x == VERTICAL:
        return "inf"
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _elem_json(g: GroupElement) -> dict:
    return {"n": g.n, "m": g.m}


def _line_json(line: Line) -> dict:
    return {"slope": _fmt_q(line.slope), "intercept": _fmt_q(line.intercept)}


def _subgroup_json(s: CyclicSubgroup) -> dict:
    return {"generator": _elem_json(s.gen)}


def _class_json(c: CommClass) -> dict:
    out: dict = {"tag": c.tag}
    if c.rep is not None:
        out["representative"] = _elem_json(c.rep.gen)
    return out


def _family_json(f: SubgroupFamily) -> dict:
    out: dict = {"kind": f.kind}
    if f.anchor is not None:
        out["anchor"] = _elem_json(f.anchor.gen)
    return out


def _homology_json(h: GradedGroups) -> dict:
    return {"homology": h.to_json(), "text": h.text()}


def _model_json(d: ModelDescriptor) -> dict:
    pieces = []
    for p in d.pieces:
        pj: dict = {"label": p.label, "space": p.space}
        if p.cls is not None:
            pj["class"] = _class_json(p.cls)
        if p.commensurator is not None:
            pj["commensurator"] = p.commensurator.kind
        if p.family is not None:
            pj["family"] = _family_json(p.family)
        if p.isotropy is not None:
            pj["isotropy"] = _subgroup_json(p.isotropy)
        pieces.append(pj)
    counts: dict = {}
    for p in d.pieces:
        if p.cls is not None:
            counts[p.cls.tag] = counts.get(p.cls.tag, 0) + 1
    return {
        "kind": d.kind,
        "base": d.base,
        "pieces": pieces,
        "identifications": list(d.identifications),
        "counts": counts,
    }


def _elem_text(g: GroupElement) -> str:
    return f"({g.n}, {g.m})"


def _line_text(line: Line) -> str:
    return f"line(slope={_fmt_q(line.slope)}, intercept={_fmt_q(line.intercept)})"


# --- handlers: each returns (inputs, result, provenance, text) ---------------


def _h_mul(a):
    g, h = GroupElement(a.n1, a.m1), GroupElement(a.n2, a.m2)
    p = mul(g, h)
    return (
        {"left": _elem_json(g), "right": _elem_json(h)},
        {"element": _elem_json(p)},
        "twisted product law",
        _elem_text(p),
    )


def _h_inv(a):
    g = GroupElement(a.n, a.m)
    p = inv(g)
    return ({"element": _elem_json(g)}, {"element": _elem_json(p)},
            "inverse law", _elem_text(p))


def _h_pow(a):
    g = GroupElement(a.n, a.m)
    p = power(g, a.k)
    if g.m % 2 == 0:
        case = "power: straight line (even generator)"
    elif a.k % 2 == 0:
        case = "power: odd generator, even exponent collapse"
    else:
        case = "power: odd generator, odd exponent"
    return ({"base": _elem_json(g), "exponent": a.k}, {"element": _elem_json(p)},
            case, _elem_text(p))


def _h_conj(a):
    t, g = GroupElement(a.t1, a.t2), GroupElement(a.n, a.m)
    p = conj(t, g)
    return ({"by": _elem_json(t), "element": _elem_json(g)},
            {"element": _elem_json(p)}, "conjugation closed form", _elem_text(p))


def _h_act_point(a):
    g = GroupElement(a.n, a.m)
    q = act_point(g, PlanePoint(a.t, a.r))
    return (
        {"element": _elem_json(g), "point": {"t": _fmt_q(a.t), "r": _fmt_q(a.r)}},
        {"point": {"t": _fmt_q(q.t), "r": _fmt_q(q.r)}},
        "plane action",
        f"({_fmt_q(q.t)}, {_fmt_q(q.r)})",
    )


def _h_act_line(a):
    g = GroupElement(a.n, a.m)
    line = Line(a.slope, a.intercept)
    img = act_line(g, line)
    case = "line action: vertical line shifted" if line.b == 0 else \
        "line action: slope reflected by parity"
    return ({"element": _elem_json(g), "line": _line_json(line)},
            {"line": _line_json(img)}, case, _line_text(img))


def _h_isotropy(a):
    line = Line(a.slope, a.intercept)
    s = isotropy_group(line)
    if line.b == 0:
        case = ("isotropy: vertical line, twice-intercept integral"
                if 2 * line.c % line.a == 0
                else "isotropy: vertical line, twice-intercept non-integral")
    elif line.a == 0:
        case = "isotropy: zero slope"
    elif line.a // gcd(line.a, line.b) % 2 == 0:
        case = "isotropy: finite slope, even reduced numerator"
    else:
        case = "isotropy: finite slope, odd reduced numerator"
    return ({"line": _line_json(line)}, _subgroup_json(s), case,
            f"<{_elem_text(s.gen)}>")


def _h_fixed_set(a):
    s = subgroup(a.n, a.m)
    d = fixed_set(s)
    result: dict = {"kind": d.kind}
    if d.slope is not None:
        result["slope"] = _fmt_q(d.slope)
    if d.line is not None:
        result["line"] = _line_json(d.line)
    cases = {
        "single-point": "fixed lines: odd generator fixes one vertical line",
        "vertical-family": "fixed lines: vertical even generator fixes all vertical lines",
        "slope-family": "fixed lines: even generator fixes its slope family",
    }
    texts = {
        "single-point": f"single line {_line_text(d.line)}" if d.line else "",
        "vertical-family": "all vertical lines",
        "slope-family": f"all lines of slope {_fmt_q(d.slope)}" if d.slope is not None else "",
    }
    return ({"generator": _elem_json(s.gen)}, result, cases[d.kind], texts[d.kind])


def _h_class(a):
    c = comm_class(subgroup(a.n, a.m))
    cases = {
        "H": "class: horizontal",
        "K": "class: odd or purely vertical",
        "R": "class: flat direction, reduced by gcd",
    }
    text = c.tag if c.rep is None else f"{c.tag} with representative <{_elem_text(c.rep.gen)}>"
    return ({"generator": {"n": a.n, "m": a.m}}, _class_json(c), cases[c.tag], text)


def _h_commensurator(a):
    c = comm_class(subgroup(a.n, a.m))
    com = commensurator(c)
    case = ("commensurator: whole group" if com.kind == "whole-group"
            else "commensurator: translation subgroup")
    return ({"generator": {"n": a.n, "m": a.m}, "class": _class_json(c)},
            {"kind": com.kind}, case, com.kind)


def _h_family_contains(a):
    c = comm_class(subgroup(a.n, a.m))
    f = class_family(c)
    member = family_contains(f, subgroup(a.q1, a.q2))
    return (
        {"class_generator": {"n": a.n, "m": a.m},
         "candidate_generator": {"n": a.q1, "m": a.q2}},
        {"family": _family_json(f), "member": member},
        f"family membership: {f.kind}",
        str(member).lower(),
    )


def _h_contains(a):
    s = subgroup(a.n, a.m)
    g = GroupElement(a.g1, a.g2)
    member = contains(s, g)
    case = ("power membership: even generator" if s.gen.m % 2 == 0
            else "power membership: odd generator")
    return ({"generator": _elem_json(s.gen), "element": _elem_json(g)},
            {"member": member}, case, str(member).lower())


def _h_commensurable(a):
    s, t = subgroup(a.n1, a.m1), subgroup(a.n2, a.m2)
    res = commensurable(s, t)
    return ({"left": _subgroup_json(s), "right": _subgroup_json(t)},
            {"commensurable": res}, "parity and parallel case analysis",
            str(res).lower())


def _h_conj_subgroup(a):
    t = GroupElement(a.t1, a.t2)
    s = subgroup(a.n, a.m)
    c = conj_subgroup(t, s)
    return ({"by": _elem_json(t), "generator": _elem_json(s.gen)},
            _subgroup_json(c), "conjugation closed form on a generator",
            f"<{_elem_text(c.gen)}>")


def _h_line_distance(a):
    l1, l2 = Line(a.slope1, a.b1), Line(a.slope2, a.b2)
    d = line_distance(l1, l2)
    result = {
        "parallel": d.parallel,
        "width_sq": None if d.width_sq is None else _fmt_q(d.width_sq),
        "distance": d.value,
    }
    case = ("strip metric: parallel lines" if d.parallel
            else "strip metric: non-parallel lines at distance 1")
    return ({"left": _line_json(l1), "right": _line_json(l2)}, result, case,
            f"distance {d.value}")


def _h_stabilizes(a):
    g = GroupElement(a.n, a.m)
    line = Line(a.slope, a.intercept)
    res = stabilizes(g, line)
    case = ("stabilizer criterion: vertical line" if line.vertical
            else "stabilizer criterion: finite slope")
    return ({"element": _elem_json(g), "line": _line_json(line)},
            {"stabilizes": res}, case, str(res).lower())


def _h_is_axis(a):
    line = Line(a.slope, a.intercept)
    return ({"line": _line_json(line)}, {"axis": is_axis(line)},
            "every rational or vertical line is an axis", "true")


def _h_kn_act(a):
    g = GroupElement(a.t1, a.t2)
    out = index_action(g, a.index)
    return ({"element": _elem_json(g), "index": a.index}, {"index": out},
            "index action on the odd family", str(out))


def _h_map_p(a):
    v = axis_projection(PlanePoint(a.t, a.r))
    return ({"point": {"t": _fmt_q(a.t), "r": _fmt_q(a.r)}},
            {"value": _fmt_q(v)}, "projection to the vertical axis", _fmt_q(v))


def _h_map_f(a):
    rep = subgroup(a.a, a.b)
    v = line_quotient(rep, PlanePoint(a.t, a.r))
    return (
        {"representative": _elem_json(rep.gen),
         "point": {"t": _fmt_q(a.t), "r": _fmt_q(a.r)}},
        {"value": _fmt_q(v)},
        "line quotient functional, unit-shift normalized",
        _fmt_q(v),
    )


def _h_shift_act(a):
    g = GroupElement(a.n, a.m)
    v = shift_action(g, a.x)
    return ({"element": _elem_json(g), "value": _fmt_q(a.x)},
            {"value": _fmt_q(v)}, "shift action on the horizontal piece", _fmt_q(v))


def _h_pushout_report(a):
    d = pushout_report(a.bound)
    payload = _model_json(d)
    return ({"bound": a.bound}, payload, "class census for the pushout model",
            f"pieces: H={payload['counts'].get('H', 0)} "
            f"K={payload['counts'].get('K', 0)} R={payload['counts'].get('R', 0)}")


def _h_homology(a):
    h = model_homology(a.circles, method=a.method)
    return ({"circles": a.circles, "method": a.method}, _homology_json(h),
            f"join of circles with the Klein bottle, {a.method} route", h.text())


_SPACES = {
    "point": point_complex,
    "circle": circle_complex,
    "klein": klein_complex,
}


def _space_name(text: str) -> str:
    if text in _SPACES or re.fullmatch(r"circles:[1-9]\d*", text):
        return text
    raise argparse.ArgumentTypeError(
        f"unknown space {text!r}; use point, circle, klein, or circles:N"
    )


def _build_space(name: str):
    if name in _SPACES:
        return _SPACES[name]()
    return disjoint_circles(int(name.split(":")[1]))


def _h_product(a):
    hx = simplicial_homology(_build_space(a.left))
    hy = simplicial_homology(_build_space(a.right))
    h = kunneth_product(hx, hy)
    return ({"left": a.left, "right": a.right}, _homology_json(h),
            "product assembled from factor homologies", h.text())


def _h_join(a):
    hx = simplicial_homology(_build_space(a.left), reduced=True)
    hy = simplicial_homology(_build_space(a.right), reduced=True)
    h = kunneth_join(hx, hy)
    return ({"left": a.left, "right": a.right}, _homology_json(h),
            "join assembled from reduced factor homologies", h.text())


def _h_verify(a):
    """One record per suite; --suite all runs every suite in name order."""
    for name in sorted(SUITES) if a.suite == "all" else [a.suite]:
        report = run_suite(name, bound=a.bound, seed=a.seed,
                           max_denominator=a.max_denominator)
        yield ({"suite": name, "bound": a.bound}, report.to_json(),
               "verification sweep",
               f"{report.suite}: {'ok' if report.ok else 'FAILED'} "
               f"({report.checks} checks)")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit canonical JSON")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    common.add_argument("--max-denominator", type=int, default=None,
                        help="denominator bound for sampling grids")
    common.add_argument("--out", metavar="FILE", default=None,
                        help="also write the output to FILE")

    parser = argparse.ArgumentParser(
        prog="kleingroup",
        description="Exact computations in and around the Klein bottle group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = cmd("mul", _h_mul, "product of two elements")
    for f in ("n1", "m1", "n2", "m2"):
        p.add_argument(f, type=int)
    p = cmd("inv", _h_inv, "inverse of an element")
    for f in ("n", "m"):
        p.add_argument(f, type=int)
    p = cmd("pow", _h_pow, "integer power of an element")
    for f in ("n", "m", "k"):
        p.add_argument(f, type=int)
    p = cmd("conj", _h_conj, "conjugate t g t^-1")
    for f in ("t1", "t2", "n", "m"):
        p.add_argument(f, type=int)

    p = cmd("act-point", _h_act_point, "apply an element to a plane point")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("t", type=_rational)
    p.add_argument("r", type=_rational)

    p = cmd("act-line", _h_act_line, "apply an element to a line")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("slope", type=_slope)
    p.add_argument("intercept", type=_rational)

    p = cmd("isotropy", _h_isotropy, "stabilizer of a line")
    p.add_argument("slope", type=_slope)
    p.add_argument("intercept", type=_rational)

    p = cmd("fixed-set", _h_fixed_set, "fixed lines of a cyclic subgroup")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)

    p = cmd("class", _h_class, "commensurability class of a subgroup")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)

    p = cmd("commensurator", _h_commensurator, "commensurator of a class")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)

    p = cmd("family-contains", _h_family_contains,
            "membership in the family of a class")
    for f in ("n", "m", "q1", "q2"):
        p.add_argument(f, type=int)

    p = cmd("contains", _h_contains, "membership of an element in a subgroup")
    for f in ("n", "m", "g1", "g2"):
        p.add_argument(f, type=int)

    p = cmd("commensurable", _h_commensurable, "commensurability of two subgroups")
    for f in ("n1", "m1", "n2", "m2"):
        p.add_argument(f, type=int)

    p = cmd("conj-subgroup", _h_conj_subgroup, "conjugate a subgroup")
    for f in ("t1", "t2", "n", "m"):
        p.add_argument(f, type=int)

    p = cmd("line-distance", _h_line_distance, "distance in the space of lines")
    p.add_argument("slope1", type=_slope)
    p.add_argument("b1", type=_rational)
    p.add_argument("slope2", type=_slope)
    p.add_argument("b2", type=_rational)

    p = cmd("stabilizes", _h_stabilizes, "does an element stabilize a line")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("slope", type=_slope)
    p.add_argument("intercept", type=_rational)

    p = cmd("is-axis", _h_is_axis, "is a line the axis of a nontrivial element")
    p.add_argument("slope", type=_slope)
    p.add_argument("intercept", type=_rational)

    p = cmd("kn-act", _h_kn_act, "index action on the odd family")
    for f in ("t1", "t2", "index"):
        p.add_argument(f, type=int)

    p = cmd("map-p", _h_map_p, "projection to the vertical axis")
    p.add_argument("t", type=_rational)
    p.add_argument("r", type=_rational)

    p = cmd("map-f", _h_map_f, "line quotient functional of a flat representative")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("t", type=_rational)
    p.add_argument("r", type=_rational)

    p = cmd("shift-act", _h_shift_act, "shift action on the horizontal piece")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("x", type=_rational)

    p = cmd("pushout-report", _h_pushout_report, "assemble the pushout model")
    p.add_argument("--bound", type=int, default=2)

    p = cmd("homology", _h_homology, "homology of the truncated join model")
    p.add_argument("--circles", type=int, default=1)
    p.add_argument("--method", choices=("kunneth", "simplicial"), default="kunneth")

    p = cmd("product", _h_product, "homology of a product of named spaces")
    p.add_argument("left", type=_space_name)
    p.add_argument("right", type=_space_name)

    p = cmd("join", _h_join, "homology of a join of named spaces")
    p.add_argument("left", type=_space_name)
    p.add_argument("right", type=_space_name)

    p = cmd("verify", _h_verify, "run a verification sweep")
    p.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    p.add_argument("--bound", type=int, default=None)

    return parser


def _preprocess(argv: list[str]) -> list[str]:
    # argparse only special-cases plain negative integers; pad negative
    # rationals with a space so they stay positional
    return [" " + a if re.fullmatch(r"-\d+/\d+", a) else a for a in argv]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_preprocess(argv))

    try:
        if args.command == "verify":
            ok = True
            for inputs, result, provenance, text in _h_verify(args):
                _emit("verify", inputs, result, provenance, text, args)
                ok = ok and result["ok"]
            return 0 if ok else 1
        inputs, result, provenance, text = args.handler(args)
    except ValueError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return 1
    _emit(args.command, inputs, result, provenance, text, args)
    return 0


def _emit(command, inputs, result, provenance, text, args) -> bool:
    record = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "provenance": provenance,
    }
    if args.json:
        out = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        out = f"{text}  [{provenance}]\n"
    sys.stdout.write(out)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(out)
    return True


if __name__ == "__main__":
    sys.exit(main())

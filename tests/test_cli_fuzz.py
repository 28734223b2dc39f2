"""Fuzz of the command line: every subcommand but verify, over huge,
negative, malformed and small arguments.  Each call exits 0, 1 or 2
without a traceback, prints nothing on stdout unless it succeeded, and
returns quickly.  verify is fuzzed apart, below and just above its caps:
each call exits 0 with every record ok, or 1 with a named precondition
or a failed record."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kleingroup.cli import _KINDS, _SUBCOMMANDS, EXPONENT_CAP, main
from kleingroup.verify import _OPTIONS, SUITES

NINES = "9" * EXPONENT_CAP
INTS = ["0", "1", "-1", "2", "3", "-4", "7", NINES, "-" + NINES]  # ±(10^4300 - 1)
RATIONALS = INTS + [f"1e{EXPONENT_CAP}", f"1e-{EXPONENT_CAP}", "-3/4", "-7/2", "-1/9"]
TOKENS = {  # well-formed tokens of each argument kind
    "int": INTS,
    "rational": RATIONALS,
    "slope": RATIONALS + ["inf"],
    "space": ["circles:1", "circles:3", "circles:" + "9" * 4301, "point", "circle", "klein"],
}
MALFORMED = ["", "x", "1..2", "1/0", "2/-3", "0x10", "--", "circles:0", f"-1e{EXPONENT_CAP}"]
POOL = sorted(set(MALFORMED).union(*TOKENS.values()))
KIND_OF = {kind: name for name, kind in _KINDS.items()}
COMMANDS = sorted(set(_SUBCOMMANDS.choices) - {"verify"})
CALL_LIMIT_S = 2.0


@st.composite
def argvs(draw):
    """A subcommand with a token for each positional and for some of its
    own options: in half the calls a well-formed token of the argument's
    kind (or one of its choices), in the other half any pool token."""
    name = draw(st.sampled_from(COMMANDS))
    typed = draw(st.booleans())
    argv = [name]
    for action in _SUBCOMMANDS.choices[name]._actions:
        if action.dest in ("help", "json", "out"):
            continue
        if action.option_strings and not draw(st.booleans()):
            continue
        tokens = list(action.choices or TOKENS[KIND_OF[action.type]]) if typed else POOL
        argv += action.option_strings[:1] + [draw(st.sampled_from(tokens))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=400, deadline=None)
@given(argvs())
# a leftover token, which the top-level parser's error reports
@example(["mul", "1", "2", "3", "4", "5"])
def test_cli_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "set_int_max_str_digits" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == ""
    assert elapsed < CALL_LIMIT_S


# the largest --bound each suite accepts; all takes the smallest of them
BOUND_CAPS = {name: options["bound"][1] for name, options in _OPTIONS.items()}
BOUND_CAPS["all"] = min(BOUND_CAPS.values())


@st.composite
def verify_argvs(draw):
    """verify below every cap, or just above the suite's bound cap; the
    denominators 7 and 9 straddle the caps of isotropy and fixed-set."""
    suite = draw(st.sampled_from(sorted(SUITES) + ["all"]))
    bound = draw(st.sampled_from([-1, 0, 1, 2, BOUND_CAPS[suite] + 1]))
    argv = ["verify", "--suite", suite, "--bound", str(bound),
            "--seed", str(draw(st.integers(-3, 3)))]
    denominator = draw(st.sampled_from([None, -1, 0, 1, 2, 7, 9]))
    if denominator is not None:
        argv += ["--max-denominator", str(denominator)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def record_ok(line: str) -> bool:
    if line.startswith("{"):
        return json.loads(line)["result"]["ok"]
    status = line.split(": ", 1)[1].split()[0]
    assert status in ("ok", "FAILED"), line
    return status == "ok"


# each call that runs group-law takes about 0.5 s, whatever the bound
@settings(max_examples=40, deadline=None)
@given(verify_argvs())
# a negative bound that reached group-law would raise IndexError
@example(["verify", "--suite", "group-law", "--bound", "-1"])
# one index: kn-action's gather returns the bare entry, not a 1-tuple
@example(["verify", "--suite", "kn-action", "--bound", "0"])
def test_verify_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    records = [record_ok(line) for line in out.getvalue().splitlines()]
    if code == 0:
        assert records and all(records)
    elif not records:
        assert err.getvalue().startswith("precondition violated:")
    else:
        assert not all(records)

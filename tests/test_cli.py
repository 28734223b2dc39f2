"""Command-line behavior: output shape, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from kleingroup import (
    circle_complex,
    cli,
    disjoint_circles,
    join,
    klein_complex,
    point_complex,
    product,
    pushout_report,
    simplicial_homology,
)
from kleingroup.cli import EXPONENT_CAP, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_text_output(capsys):
    code, out, err = run_cli(["mul", "2", "1", "3", "1"], capsys)
    assert code == 0
    assert out == "(-1, 2)  [twisted product law]\n"
    assert err == ""


@pytest.mark.parametrize("argv, line", [
    ("act-line 1 1 2/3 1",
     "line(slope=-2/3, intercept=8/3)  [line action: slope reflected by parity]"),
    ("isotropy 0 5", "<(1, 0)>  [isotropy: zero slope]"),
    ("isotropy inf 3/2", "<(3, 1)>  [isotropy: vertical line, twice-intercept integral]"),
    ("pow 3 1 3", "(3, 3)  [power: odd generator, odd exponent]"),
    ("contains 1 2 2 4", "true  [power membership: even generator]"),
    ("stabilizes 3 1 inf 3/2", "true  [stabilizer criterion: vertical line]"),
    # no golden case runs join
    ("join circle klein", "~H_0 = 0, ~H_1 = 0, ~H_2 = 0, ~H_3 = Z + Z_2"
     "  [join assembled from reduced factor homologies]"),
    ("join klein circle", "~H_0 = 0, ~H_1 = 0, ~H_2 = 0, ~H_3 = Z + Z_2"
     "  [join assembled from reduced factor homologies]"),
    ("join circles:2 klein", "~H_0 = 0, ~H_1 = 0, ~H_2 = Z + Z_2, ~H_3 = Z^2 + Z_2^2"
     "  [join assembled from reduced factor homologies]"),
    ("join klein klein", "~H_0 = 0, ~H_1 = 0, ~H_2 = 0, ~H_3 = Z + Z_2^3, ~H_4 = Z_2"
     "  [join assembled from reduced factor homologies]"),
    ("family-contains 3 1 0 4", "true  [family membership: odd-class]"),
    # a family is keyed by its class's representative, (1, 2) here, so a
    # flat subgroup with p < 0 is not in the family of its own class
    ("family-contains -1 2 -1 2", "false  [family membership: commensurable-into]"),
    ("commensurator 0 4", "whole-group  [commensurator: whole group]"),
])
def test_provenance_labels(argv, line, capsys):
    # labels the golden transcripts do not reach
    assert run_cli(argv.split(), capsys) == (0, line + "\n", "")


def test_json_output_shape(capsys):
    code, out, _ = run_cli(["mul", "2", "1", "3", "1", "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == {"command", "inputs", "result", "provenance"}
    assert rec["command"] == "mul"
    assert rec["result"] == {"element": {"n": -1, "m": 2}}


def test_json_is_byte_deterministic(capsys):
    _, out1, _ = run_cli(["isotropy", "2/3", "5", "--json"], capsys)
    _, out2, _ = run_cli(["isotropy", "2/3", "5", "--json"], capsys)
    assert out1 == out2
    # canonical form: sorted keys, compact separators, one trailing newline
    canonical = json.dumps(json.loads(out1), sort_keys=True,
                           separators=(",", ":")) + "\n"
    assert out1 == canonical


def test_negative_rational_arguments(capsys):
    code, out, _ = run_cli(["act-point", "1", "1", "-3/4", "2"], capsys)
    assert code == 0
    assert "(7/4, 3)" in out
    code, out, _ = run_cli(["isotropy", "-2/3", "0", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["result"] == {"generator": {"n": -3, "m": 2}}
    # decimal forms argparse would read as options
    for token, value in [("-1e3", "-1000"), ("-.5e1", "-5")]:
        code, out, _ = run_cli(["map-p", token, "0", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["inputs"]["point"]["t"] == value


def test_negative_integer_arguments(capsys):
    code, out, _ = run_cli(["pow", "5", "1", "-3"], capsys)
    assert code == 0
    assert out.startswith("(5, -3)")
    code, out, _ = run_cli(["pow", "1", "1", "-1_000"], capsys)
    assert code == 0
    assert out.startswith("(0, -1000)")


def test_negative_numbers_leave_options_alone(capsys):
    # --json is read as the option in the tests above
    with pytest.raises(SystemExit) as exc:
        main(["map-p", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: kleingroup map-p")


def test_vertical_slope_token(capsys):
    code, out, _ = run_cli(["isotropy", "inf", "3/2", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["result"] == {"generator": {"n": 3, "m": 1}}


def test_precondition_violation_exits_1(capsys):
    code, out, err = run_cli(["fixed-set", "0", "0"], capsys)
    assert code == 1
    assert out == ""
    assert "precondition violated" in err
    assert "nonzero" in err


def test_quotient_rejection_exits_1(capsys):
    code, _, err = run_cli(["map-f", "2", "4", "0", "0"], capsys)
    assert code == 1
    assert "reduced form" in err


@pytest.mark.parametrize("a, b", [(1, 2), (-1, 2), (2, 2), (-2, 2), (3, -4), (-3, -4)])
def test_map_f_reads_the_signed_representative(a, b, capsys):
    # the functional (b*t - a*r)/2 of the canonical generator (a, b) > 0: a
    # representative and its mirror (-a, b), one class, are read apart
    n, m = (-a, -b) if b < 0 else (a, b)
    for t, r in [(0, 2), (Fraction(1, 3), Fraction(-5, 7)), (10**30, -(10**30) + 1)]:
        code, out, _ = run_cli(["map-f", str(a), str(b), str(t), str(r), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["value"] == cli._fmt_q((m * t - n * r) / Fraction(2))


def test_parse_error_exits_2():
    for argv in (["mul", "1", "2", "3"],        # missing argument
                 ["pow", "1", "2", "x"],        # not an integer
                 ["isotropy", "1..2", "0"],     # not a rational
                 ["nonsense"],                  # unknown command
                 # only verify takes --seed and --max-denominator
                 ["mul", "1", "1", "1", "1", "--max-denominator", "3"],
                 ["homology", "--seed", "9"],
                 # integer arguments keep Python's 4,300-digit limit
                 ["mul", "9" * (EXPONENT_CAP + 1), "0", "0", "0"],
                 []):                           # no command
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


# arguments a subcommand rejects, leftover tokens, "--", then the argvs
# that go through the top-level parser, then every subcommand's help
PARITY_ARGVS = [
    ["mul", "1", "2", "3"], ["pow", "1", "2", "x"], ["isotropy", "1..2", "0"],
    ["mul", "1", "2", "3", "4", "5"], ["mul", "1", "2", "3", "4", "-x"],
    ["mul", "1", "1", "1", "1", "--max-denominator", "3"], ["homology", "--seed", "9"],
    ["verify", "--suite", "nope"], ["mul", "1", "2", "3", "4", "--out"],
    ["pow", "2", "2", "--", "-3"], ["mul", "1", "2", "3", "4", "--"],
    ["nonsense"], [], ["--json"], ["-h"],
] + [[name, "-h"] for name in sorted(cli._SUBCOMMANDS.choices)]


def outcome(call, capsys):
    try:
        result = call()
    except SystemExit as exc:
        result = exc
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=lambda argv: " ".join(argv) or "no-argv")
def test_main_parses_as_the_top_level_parser(argv, monkeypatch, capsys):
    # the live parser is the reference: usage lines wrap differently across
    # Python versions
    expected, out, err = outcome(lambda: cli._PARSER.parse_args(cli._preprocess(argv)),
                                 capsys)
    if isinstance(expected, argparse.Namespace):
        parsed = []
        monkeypatch.setattr(cli, "_emit", lambda args, *record: parsed.append(args))
        assert main(argv) == 0
        assert parsed == [expected]
    else:
        got, got_out, got_err = outcome(lambda: main(argv), capsys)
        assert isinstance(got, SystemExit)
        assert (got.code, got_out, got_err) == (expected.code, out, err)


def test_huge_decimal_exponent_exits_2(capsys):
    # Fraction expands 10**exponent: map-p 1e10000000 0 took 11 s, and
    # 0 1e-5000 was computed only to fail while printing
    for argv in (["map-p", "1e10000000", "0"], ["map-p", "1e100000000", "0"],
                 ["map-p", "0", "1e-5000"], ["map-p", "0", f"1E+{EXPONENT_CAP + 1}"],
                 ["map-p", "0", "1e4_301"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "not a rational" in capsys.readouterr().err
    code, out, _ = run_cli(["map-p", "0", f"1e-{EXPONENT_CAP - 1}"], capsys)
    assert code == 0
    assert out.startswith("1/1000")


def test_results_print_past_the_digit_limit(capsys):
    # results of more than 4,300 digits exited 1 with Python's digit-limit
    # message; the limit is lifted while the record is encoded, then restored
    limit = sys.get_int_max_str_digits()
    nines = "9" * EXPONENT_CAP  # the largest integer argument Python parses
    twice = "1" + "9" * (EXPONENT_CAP - 1) + "8"  # 2 * (10**4300 - 1)
    code, out, err = run_cli(["mul", nines, "0", nines, "0"], capsys)
    assert (code, err) == (0, "")
    assert out == f"({twice}, 0)  [twisted product law]\n"
    code, out, _ = run_cli(["mul", nines, "0", nines, "0", "--json"], capsys)
    assert code == 0
    assert f'"result":{{"element":{{"m":0,"n":{twice}}}}}' in out
    code, out, err = run_cli(["map-p", "0", f"1e-{EXPONENT_CAP}"], capsys)
    assert (code, err) == (0, "")
    assert out == f"1/1{'0' * EXPONENT_CAP}  [projection to the vertical axis]\n"
    assert sys.get_int_max_str_digits() == limit


def test_homology_command(capsys):
    code, out, _ = run_cli(["homology", "--circles", "2", "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    groups = rec["result"]["homology"]["groups"]
    assert groups["0"] == {"rank": 1, "torsion": []}
    assert groups["1"] == {"rank": 0, "torsion": []}
    assert groups["2"] == {"rank": 1, "torsion": [2]}
    assert groups["3"] == {"rank": 2, "torsion": [2, 2]}


def test_homology_methods_agree_via_cli(capsys):
    _, out1, _ = run_cli(["homology", "--circles", "2", "--json"], capsys)
    _, out2, _ = run_cli(
        ["homology", "--circles", "2", "--method", "simplicial", "--json"], capsys)
    r1 = json.loads(out1)["result"]
    r2 = json.loads(out2)["result"]
    assert r1["homology"] == r2["homology"]


def test_homology_cap_exits_1(capsys):
    # the Kunneth route builds a list of N moduli, so its time and memory
    # grow linearly: 10^6 circles took 3.9 s and 98 MiB
    for argv in (["--circles", "9", "--method", "simplicial"], ["--circles", "1000001"]):
        code, out, err = run_cli(["homology", *argv], capsys)
        assert code == 1, argv
        assert out == ""
        assert "capped" in err


def test_pushout_report_cap_exits_1(capsys):
    code, out, err = run_cli(["pushout-report", "--bound", "100000"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("precondition violated:")
    assert "capped" in err


@pytest.mark.parametrize("command", ["product", "join"])
def test_space_circles_cap_exits_1(command, capsys):
    # a result holds N-long torsion tuples, so N stays capped; int()
    # refuses more than 4,300 digits
    for space in ("circles:10001", "circles:100000000", "circles:" + "9" * 4301):
        code, out, err = run_cli([command, space, "klein"], capsys)
        assert code == 1, space
        assert out == ""
        assert err.startswith("precondition violated:")
        assert "capped" in err


def test_cli_runs_with_docstrings_stripped():
    # importing kleingroup formatted a docstring, which -OO sets to None
    proc = subprocess.run(
        [sys.executable, "-OO", "-m", "kleingroup.cli", "homology", "--circles", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("H_0 = Z, H_1 = 0, H_2 = Z^2 + Z_2^2")


def test_pushout_report_counts(capsys):
    code, out, _ = run_cli(["pushout-report", "--bound", "2", "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["result"]["counts"] == {"H": 1, "K": 1, "R": 3}
    labels = [p["label"] for p in rec["result"]["pieces"]]
    assert labels == ["horizontal", "odd-vertical",
                      "flat(1,2)", "flat(1,4)", "flat(2,2)"]


def test_one_encoding_of_family_and_commensurator(capsys):
    # each piece of the report carries the records that family-contains and
    # commensurator give for a generator of its class
    _, out, _ = run_cli(["pushout-report", "--bound", "6", "--json"], capsys)
    pieces = json.loads(out)["result"]["pieces"]
    classes = pushout_report(6).pieces
    assert len(pieces) == len(classes) == 25
    gens = {"H": (1, 0), "K": (0, 1)}
    for c, piece in zip(classes, pieces):
        n, m = gens.get(c.tag) or (c.rep.gen.n, c.rep.gen.m)
        _, out, _ = run_cli(["family-contains", str(n), str(m), "1", "0", "--json"], capsys)
        assert json.loads(out)["result"]["family"] == piece["family"], c
        _, out, _ = run_cli(["commensurator", str(n), str(m), "--json"], capsys)
        assert json.loads(out)["result"]["kind"] == piece["commensurator"], c
    # the records themselves, also read off non-maximal generators: K is the
    # odd class, H and R commensurable into the maximal translations
    for (n, m), piece in zip([(3, 0), (3, 1), (2, 4)], pieces):
        _, out, _ = run_cli(["family-contains", str(n), str(m), "1", "0", "--json"], capsys)
        assert json.loads(out)["result"]["family"] == piece["family"], (n, m)
    assert [p["family"] for p in pieces[:3]] == [
        {"kind": "commensurable-into", "anchor": {"n": 1, "m": 0}},
        {"kind": "odd-class"},
        {"kind": "commensurable-into", "anchor": {"n": 1, "m": 2}},
    ]
    assert [p["commensurator"] for p in pieces[:3]] == [
        "whole-group", "whole-group", "translation-subgroup"]


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "i-complex", "--bound", "2", "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["result"]["ok"] is True
    assert rec["result"]["suite"] == "i-complex"


def test_verify_all_runs_every_suite(capsys):
    code, out, _ = run_cli(["verify", "--bound", "2", "--json"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    names = {json.loads(line)["result"]["suite"] for line in lines}
    assert len(names) == 8


def test_verify_all_passes_at_bound_1(capsys):
    # equivariant-maps looked for the unit shift on the --bound grid, which
    # at bound 1 misses it for most flat representatives
    code, out, _ = run_cli(["verify", "--bound", "1", "--json"], capsys)
    assert code == 0
    records = [json.loads(line)["result"] for line in out.splitlines()]
    assert len(records) == 8
    assert all(r["ok"] for r in records)


def test_verify_all_runs_each_suite_once(monkeypatch, capsys):
    # the module global is patched too, so a suite that runs another
    # suite by name is counted
    from kleingroup import verify

    calls = dict.fromkeys(verify.SUITES, 0)
    for name, fn in list(verify.SUITES.items()):
        def counted(*args, name=name, fn=fn, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setitem(verify.SUITES, name, counted)
        monkeypatch.setattr(verify, fn.__name__, counted)
    code, _, _ = run_cli(["verify", "--bound", "1"], capsys)
    assert code == 0
    assert calls == dict.fromkeys(verify.SUITES, 1)


def test_verify_zero_checks_fails(capsys):
    code, out, _ = run_cli(["verify", "--suite", "isotropy", "--max-denominator", "0"], capsys)
    assert code == 1
    assert out.startswith("isotropy: FAILED (0 checks)")


def test_verify_fixed_set_empty_own_sweep_fails(capsys):
    # an empty line grid leaves fixed-set with no checks, and a suite
    # that checked nothing is not ok
    code, out, _ = run_cli(["verify", "--suite", "fixed-set", "--max-denominator", "0"], capsys)
    assert code == 1
    assert out == "fixed-set: FAILED (0 checks)  [verification sweep]\n"


@pytest.mark.parametrize("argv, named", [
    (["--suite", "group-law", "--bound", "-1"], "group-law: bound"),
    (["--bound", "-1"], "commensurability: bound"),
    (["--suite", "isotropy", "--bound", "-3"], "isotropy: element_bound"),
    (["--suite", "fixed-set", "--max-denominator", "-1"], "fixed-set: line_bound"),
])
def test_verify_negative_bound_exits_1(argv, named, capsys):
    # group-law at --bound -1 drew from an empty box and raised IndexError;
    # verify --bound -1 printed three FAILED records before it
    code, out, err = run_cli(["verify", *argv], capsys)
    assert code == 1
    assert out == ""
    assert err == f"precondition violated: {named} must be nonnegative\n"


def test_verify_failed_single_suite_exits_1(monkeypatch, capsys):
    from kleingroup import cli
    from kleingroup.verify import SuiteReport

    def broken(**kwargs):
        return SuiteReport("kn-action", {}, checks=1, failures=["forced"])

    monkeypatch.setitem(cli.SUITES, "kn-action", broken)
    code, out, _ = run_cli(["verify", "--suite", "kn-action", "--json"], capsys)
    assert code == 1
    assert json.loads(out)["result"]["failures"] == ["forced"]


@pytest.mark.parametrize("suite, key", [
    ("group-law", "bound"),
    ("representation", "bound"),
    ("isotropy", "element_bound"),
    ("fixed-set", "gen_bound"),
    ("commensurability", "bound"),
    ("kn-action", "bound"),
    ("equivariant-maps", "bound"),
    ("i-complex", "bound"),
])
def test_verify_bound_reaches_suite_parameter(suite, key, capsys):
    code, out, _ = run_cli(["verify", "--suite", suite, "--bound", "2",
                            "--max-denominator", "1", "--json"], capsys)
    assert code == 0
    params = json.loads(out)["result"]["parameters"]
    assert params[key] == 2
    if "line_bound" in params:
        assert params["line_bound"] == 1


@pytest.mark.parametrize("suite, option, cap", [
    ("group-law", "--bound", 12),
    ("representation", "--bound", 14),
    ("isotropy", "--bound", 12),
    ("isotropy", "--max-denominator", 6),
    ("fixed-set", "--bound", 12),
    ("fixed-set", "--max-denominator", 8),
    ("commensurability", "--bound", 16),
    ("kn-action", "--bound", 10),
    ("equivariant-maps", "--bound", 20),
    ("i-complex", "--bound", 16),
])
def test_verify_cap_exits_1(suite, option, cap, capsys):
    # each suite runs in about 5 s or less at its caps; its time grows as a
    # power of the bound, and group-law at --bound 3000 was still running
    # after 10 s
    code, out, err = run_cli(["verify", "--suite", suite, option, str(cap + 1)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("precondition violated:")
    assert "capped" in err


def test_verify_all_checks_every_cap_before_running(capsys):
    # bound 13 is within the commensurability and equivariant-maps caps
    # but over fixed-set's, so no suite may have printed a record
    code, out, err = run_cli(["verify", "--bound", "13"], capsys)
    assert code == 1
    assert out == ""
    assert "fixed-set" in err


@pytest.mark.parametrize("far", ["1e400", "1e-400"])
def test_line_distance_beyond_float_exits_1(far, capsys):
    # 1e400 overflowed the float width; 1e-400 printed distance 0.0 for
    # two distinct lines
    code, out, err = run_cli(["line-distance", "0", "0", "0", far], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("precondition violated: ")
    assert "Traceback" not in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "log.json"
    code, out, _ = run_cli(
        ["inv", "3", "1", "--json", "--out", str(target)], capsys)
    assert code == 0
    assert target.read_text() == out


@pytest.mark.parametrize("where", [
    "missing/log.json",  # a missing directory
    ".",  # a directory in place of the file
    pytest.param("/dev/full", marks=pytest.mark.skipif(  # a failing write
        not os.path.exists("/dev/full"), reason="no /dev/full")),
])
def test_unwritable_out_file_exits_1(where, tmp_path, capsys):
    target = tmp_path / where  # an absolute where replaces tmp_path
    code, out, err = run_cli(["mul", "1", "1", "1", "1", "--out", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("precondition violated: ")
    assert str(target) in err
    assert "Traceback" not in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kleingroup.cli", "mul", "1", "0", "0", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "(1, 1)" in proc.stdout


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_broken_pipe_exits_1_quietly(capsys, monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        assert main(["mul", "1", "0", "0", "1"]) == 1
        # what is still buffered, and the flush at exit, go to devnull
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_ends_without_a_traceback(unbuffered):
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "kleingroup.cli", "verify", "--suite", "i-complex"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader goes away before the first record
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert err == b""


def test_product_and_join_commands(capsys):
    code, out, _ = run_cli(["product", "circle", "klein", "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["inputs"] == {"left": "circle", "right": "klein"}
    groups = rec["result"]["homology"]["groups"]
    assert groups["1"] == {"rank": 2, "torsion": [2]}

    code, out, _ = run_cli(["join", "circles:2", "klein", "--json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["result"]["homology"]["reduced"] is True

    with pytest.raises(SystemExit) as exc:
        main(["product", "torus", "klein"])
    assert exc.value.code == 2


# the spaces of the product and join commands, built by the library's own
# constructors
SPACES = {"point": point_complex(), "circle": circle_complex(),
          "klein": klein_complex(), "circles:2": disjoint_circles(2)}


def graded_json(h):
    groups = {str(n): {"rank": h[n].rank, "torsion": list(h[n].torsion)}
              for n in range(max(h.top_degree, 0) + 1)}
    return {"homology": {"reduced": h.reduced, "groups": groups}, "text": h.text()}


@pytest.mark.parametrize("right", SPACES)
@pytest.mark.parametrize("left", SPACES)
def test_join_matches_the_triangulated_join(left, right, capsys):
    # the CLI assembles a join by Kunneth from the reduced closed forms of
    # its factors; the triangulated join is the independent route
    code, out, _ = run_cli(["join", left, right, "--json"], capsys)
    assert code == 0
    h = simplicial_homology(join(SPACES[left], SPACES[right])).to_reduced()
    assert json.loads(out)["result"] == graded_json(h)


@pytest.mark.parametrize("right", SPACES)
@pytest.mark.parametrize("left", SPACES)
def test_product_matches_the_triangulated_product(left, right, capsys):
    # the CLI assembles a product by Kunneth from the closed forms of its
    # factors; the triangulated product is the independent route
    code, out, _ = run_cli(["product", left, right, "--json"], capsys)
    assert code == 0
    h = simplicial_homology(product(SPACES[left], SPACES[right]))
    assert json.loads(out)["result"] == graded_json(h)


@pytest.mark.parametrize("argv, text", [
    (["join", "circles:10000", "klein"], "~H_3 = Z^10000 + Z_2^10000"),
    (["product", "circles:10000", "klein"], "H_0 = Z^10000, "),
])
def test_circles_at_the_cap_build_no_complex(argv, text, capsys):
    # the factors are closed forms, so the cap costs no triangulation and
    # no Smith normal form; triangulated, each took over half a second on a
    # 2-vCPU host
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0 and text in out
    assert elapsed < 0.2, f"{argv} took {elapsed:.2f} s"

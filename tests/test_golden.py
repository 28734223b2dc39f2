"""Byte-exact replay of the committed CLI transcript.

tests/golden/cases.json freezes the JSON output ("stdout") and the text
output ("text") of one invocation per documented example.  Regenerate deliberately with
``python3 tests/golden/regen.py`` and review the diff.
"""

import json
import pathlib

import pytest

from kleingroup import cli
from kleingroup.cli import main

CASES_PATH = pathlib.Path(__file__).parent / "golden" / "cases.json"
CASES = json.loads(CASES_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys):
    case = CASES[name]
    code = main(case["argv"] + ["--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == case["stdout"], f"drift in {name}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_text(name, capsys):
    case = CASES[name]
    code = main(case["argv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == case["text"], f"text drift in {name}"


def test_well_formed_calls_skip_the_top_level_parser(monkeypatch, capsys):
    # each call is parsed once, by its subcommand's parser alone
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(cli._PARSER, "parse_known_args", refuse)
    for name, case in sorted(CASES.items()):
        for flags, key in ((["--json"], "stdout"), ([], "text")):
            assert main(case["argv"] + flags) == 0, name
            assert capsys.readouterr().out == case[key], f"{key} drift in {name}"


def test_manifest_covers_every_subcommand_with_output_examples():
    commands = {case["argv"][0] for case in CASES.values()}
    expected = {
        "mul", "inv", "pow", "conj", "contains", "commensurable", "class",
        "commensurator", "family-contains", "conj-subgroup", "act-point",
        "act-line", "line-distance", "stabilizes", "is-axis", "isotropy",
        "fixed-set", "kn-act", "map-p", "map-f", "shift-act",
        "pushout-report", "product", "homology",
    }
    assert expected <= commands

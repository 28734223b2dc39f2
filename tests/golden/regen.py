"""Regenerate the golden CLI transcript.

Run as ``python3 tests/golden/regen.py`` from the repo root after an
intentional output change, then eyeball the diff before committing.
The test suite replays cases.json byte-for-byte, so regenerating
without review defeats its purpose.
"""

import io
import json
import pathlib
import sys
from contextlib import redirect_stdout

from kleingroup.cli import main

CASES = [
    ("mul-identity-left", ["mul", "0", "0", "5", "7"]),
    ("mul-glide-glide", ["mul", "2", "1", "3", "1"]),
    ("inv-glide", ["inv", "5", "1"]),
    ("inv-translation", ["inv", "4", "2"]),
    ("pow-even-generator", ["pow", "3", "2", "5"]),
    ("pow-odd-generator-even-exponent", ["pow", "3", "1", "2"]),
    ("conj-horizontal-by-glide", ["conj", "0", "1", "1", "0"]),
    ("conj-horizontal-by-translation", ["conj", "4", "2", "1", "0"]),
    ("conj-translation-by-glide", ["conj", "3", "1", "5", "4"]),
    ("contains-square-of-glide", ["contains", "3", "1", "0", "2"]),
    ("commensurable-horizontals", ["commensurable", "7", "0", "1", "0"]),
    ("commensurable-glide-vertical", ["commensurable", "4", "3", "0", "2"]),
    ("class-horizontal", ["class", "5", "0"]),
    ("class-glide", ["class", "7", "3"]),
    ("class-flat-reduced", ["class", "2", "4"]),
    ("commensurator-horizontal", ["commensurator", "5", "0"]),
    ("commensurator-flat", ["commensurator", "1", "2"]),
    ("commensurator-glide", ["commensurator", "7", "3"]),
    ("family-flat-contains-multiple", ["family-contains", "1", "2", "3", "6"]),
    ("conj-subgroup-flat-flip", ["conj-subgroup", "0", "1", "1", "2"]),
    ("act-point-glide", ["act-point", "1", "1", "1/2", "0"]),
    ("act-line-vertical", ["act-line", "3", "1", "inf", "2"]),
    ("line-distance-crossing", ["line-distance", "0", "0", "1", "0"]),
    ("line-distance-vertical-strip", ["line-distance", "inf", "0", "inf", "3"]),
    ("stabilizes-matching-slope", ["stabilizes", "1", "2", "2", "7/3"]),
    ("is-axis-rational-slope", ["is-axis", "2/3", "5"]),
    ("is-axis-vertical", ["is-axis", "inf", "1/2"]),
    ("isotropy-even-numerator", ["isotropy", "2/3", "1/5"]),
    ("isotropy-odd-numerator", ["isotropy", "1/2", "0"]),
    ("isotropy-vertical-generic", ["isotropy", "inf", "1/4"]),
    ("fixed-set-flat", ["fixed-set", "1", "2"]),
    ("fixed-set-vertical", ["fixed-set", "0", "2"]),
    ("fixed-set-glide", ["fixed-set", "3", "1"]),
    ("kn-act-flip-shift", ["kn-act", "1", "1", "3"]),
    ("map-p-projection", ["map-p", "3/2", "4"]),
    ("map-f-vertical-step", ["map-f", "1", "2", "0", "2"]),
    ("shift-act-horizontal-fixes", ["shift-act", "5", "0", "1/2"]),
    ("pushout-report-bound-3", ["pushout-report", "--bound", "3"]),
    ("product-circle-klein", ["product", "circle", "klein"]),
    ("join-model-one-circle", ["homology", "--circles", "1"]),
    ("join-model-two-circles", ["homology", "--circles", "2"]),
    ("join-model-three-circles-simplicial",
     ["homology", "--circles", "3", "--method", "simplicial"]),
]


def _run(name: str, argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"case {name} exited {code}")
    return buf.getvalue()


def generate() -> dict:
    """Each case's stdout with --json under "stdout", without it under "text"."""
    return {
        name: {"argv": argv, "stdout": _run(name, argv + ["--json"]),
               "text": _run(name, argv)}
        for name, argv in CASES
    }


if __name__ == "__main__":
    path = pathlib.Path(__file__).with_name("cases.json")
    path.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {path}", file=sys.stderr)

"""Regenerate the golden CLI transcript.

Run as ``python3 tests/golden/regen.py`` from the repo root after an
intentional output change, then eyeball the diff before committing.
The case names and argv come from cases.json itself; to add a case, add
an entry holding only its "argv" and regenerate.  The names of the cases
whose transcript changed are printed on stderr.
The test suite replays cases.json byte-for-byte, so regenerating
without review defeats its purpose.
"""

import io
import json
import pathlib
import sys
from contextlib import redirect_stdout

from kleingroup.cli import main

CASES_PATH = pathlib.Path(__file__).with_name("cases.json")


def _run(name: str, argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"case {name} exited {code}")
    return buf.getvalue()


def generate(cases: dict) -> dict:
    """Each case's stdout with --json under "stdout", without it under "text"."""
    return {
        name: {"argv": case["argv"], "stdout": _run(name, case["argv"] + ["--json"]),
               "text": _run(name, case["argv"])}
        for name, case in cases.items()
    }


if __name__ == "__main__":
    old = json.loads(CASES_PATH.read_text())
    cases = generate(old)
    CASES_PATH.write_text(json.dumps(cases, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {CASES_PATH}", file=sys.stderr)
    for name in sorted(name for name in cases if cases[name] != old[name]):
        print(f"changed: {name}", file=sys.stderr)

"""Write tests/golden/cli_calls.jsonl, the per-call golden file that tier-1 checks.

`PYTHONPATH=src python tools/cli_digest.py --write` rewrites it: one line
per call of CALLS + PARSE_CALLS and format, with the argv, the format,
the exit code and the sha256 of stdout and of stderr. The `elapsed:`
line, the one line that differs from run to run, is dropped from
stderr. tests/test_cli.py reruns every line and names each call whose
line differs; to compare a changed tree with its parent, run that test in
the changed tree against the parent's golden file. Help and error text
are argparse's, so the file pins the Python version it was written with
(3.11). Run with no argument, the tool prints its usage and exits 2.
Calls run in-process through pkcore.cli.main, with COLUMNS=80 so that
argparse wraps help and usage the same in any terminal.

From `core -p 3 -k 40` on, CALLS probes the -p/-k size guard (cli.cell_modulus):
`waring -p 8209 -k 2` is refused by the sumset-level limit and `core -p
5 -k 1366` by the residue-bit limit, both exit 4, while `core -p 3 -k 40`
and `pairsums -p 5 -k 1000` are admitted. `waring -p 9 -k 2` is not prime.
The guard's edges: `decompose -p 3 -k 2048 7` is admitted at exactly
k*bitlen(p) = 4096 and `core -p 3 -k 2049` refused at 4098 bits;
`core -p 67108879 -k 1`, the first prime above 2^26, is refused by the
level limit. The heavy call, `pairsums -p 8191 -k 315`, sits at both
limits at once (8191^2 < 2^26, 315*13 = 4095 bits): its core count is read
at 8191^K_p, K_8191 = 3, and its line pins the bytes that the count read
off the core table of 8191^315 itself gave.

PARSE_CALLS are the argv forms that cli._match leaves to argparse (help,
errors, `--`, `=` forms, abbreviations, values starting with '-') plus a
repeated option that it reads itself. The last one, `scan wieferich --to
20 --checkpoint x`, pins that scans take no state file: exit 6, nothing
written.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from pkcore.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden" / "cli_calls.jsonl"
FORMATS = ("human", "jsonl", "csv")

CELLS = [(3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (3, 3), (5, 3), (7, 3), (3, 11), (41, 2), (37, 3)]
CALLS = [[cmd, "-p", str(p), "-k", str(k)] for p, k in CELLS for cmd in ("core", "increments", "pairsums", "waring")]
CALLS += [["decompose", "-p", str(p), "-k", str(k), str(x)] for p, k in CELLS for x in (0, 1, p, -5, p * p - 1)]
CALLS += [["divisors", "-p", "11"], ["divisors", "-p", "73"], ["kp", "--to", "120"]]
CALLS += [["scan", "wieferich", "--to", "4000"], ["scan", "exceptions", "--to", "120"], ["scan", "note4", "--to", "40"]]
CALLS += [["scan", "note4", "--to", "40", "-k", "5"]]
CALLS += [["core", "-p", "3", "-k", "40"], ["waring", "-p", "9", "-k", "2"]]
CALLS += [["waring", "-p", "8209", "-k", "2"], ["core", "-p", "5", "-k", "1366"], ["pairsums", "-p", "5", "-k", "1000"]]
CALLS += [["decompose", "-p", "3", "-k", "2048", "7"], ["core", "-p", "3", "-k", "2049"], ["core", "-p", "67108879", "-k", "1"]]
CALLS += [["pairsums", "-p", "8191", "-k", "315"]]

PARSE_CALLS = [[], ["-h"], ["nope"], ["core", "-h"], ["scan", "-h"], ["scan", "wieferich", "-h"]]
PARSE_CALLS += [["decompose", "-p5", "-k", "3", "14"], ["decompose", "-p", "5", "-k", "3", "--form", "csv", "14"]]
PARSE_CALLS += [["decompose", "-p", "5", "-k", "3", "--format=csv", "14"], ["decompose", "-p", "7", "-k", "3", "--", "-5"]]
PARSE_CALLS += [["decompose", "-p", "-5", "-k", "3", "14"], ["decompose", "-p", "7", "-k", "3", "14", "-p", "5"]]
PARSE_CALLS += [["decompose", "-p", "7", "14"], ["decompose", "-p", "7", "-k", "3", "14", "15"]]
PARSE_CALLS += [["decompose", "-p", "7", "-k", "x", "14"], ["core", "-p", "5", "-k", "2", "--format", "bogus"]]
PARSE_CALLS += [["scan", "--to", "50", "wieferich"], ["scan", "bogus", "--to", "5"]]
PARSE_CALLS += [["scan", "wieferich", "--to", "20", "--checkpoint", "x"]]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    err_lines = err.getvalue().splitlines(True)
    return code, out.getvalue(), "".join(line for line in err_lines if not line.startswith("elapsed: "))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_line(argv: list[str], fmt: str) -> dict:
    """What the golden file holds for argv run with --format fmt appended."""
    code, out, err = run(argv + ["--format", fmt])
    return {"argv": argv, "format": fmt, "exit": code, "stdout": _sha(out), "stderr": _sha(err)}


def golden_lines() -> list[dict]:
    return [golden_line(argv, fmt) for fmt in FORMATS for argv in CALLS + PARSE_CALLS]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        print("usage: PYTHONPATH=src python tools/cli_digest.py --write", file=sys.stderr)
        sys.exit(2)
    lines = golden_lines()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(json.dumps(line) + "\n" for line in lines))
    print(f"{len(lines)} lines written to {GOLDEN}")

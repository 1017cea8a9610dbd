"""Two sha256 digests over a fixed set of CLI calls, printed on one line.

`outputs` hashes each call's argv, format, exit code and stdout; `full`
adds its stderr. Run as `PYTHONPATH=<tree>/src python tools/cli_digest.py`
against two trees: equal `outputs` mean every call below printed the
same bytes to stdout and exited with the same code, and equal `full`
mean its error text matched too, so a change that only rewords an error
keeps `outputs` and changes `full`. The `elapsed:` line, the one line
that differs from run to run, is dropped from stderr.
Calls run in-process through pkcore.cli.main.

The last two lines of CALLS probe the -p/-k size guard (cli.cell_modulus):
`waring -p 8209 -k 2` is refused by the sumset-level limit and `core -p
5 -k 1366` by the residue-bit limit, both exit 4, while `core -p 3 -k 40`
and `pairsums -p 5 -k 1000` are admitted. `waring -p 9 -k 2` is not prime.
"""

import contextlib
import hashlib
import io

from pkcore.cli import main

CELLS = [(3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (3, 3), (5, 3), (7, 3), (3, 11), (41, 2), (37, 3)]
CALLS = [[cmd, "-p", str(p), "-k", str(k)] for p, k in CELLS for cmd in ("core", "increments", "pairsums", "waring")]
CALLS += [["decompose", "-p", str(p), "-k", str(k), str(x)] for p, k in CELLS for x in (0, 1, p, -5, p * p - 1)]
CALLS += [["divisors", "-p", "11"], ["divisors", "-p", "73"], ["kp", "--to", "120"]]
CALLS += [["scan", "wieferich", "--to", "4000"], ["scan", "exceptions", "--to", "120"], ["scan", "note4", "--to", "40"]]
CALLS += [["core", "-p", "3", "-k", "40"], ["waring", "-p", "9", "-k", "2"]]
CALLS += [["waring", "-p", "8209", "-k", "2"], ["core", "-p", "5", "-k", "1366"], ["pairsums", "-p", "5", "-k", "1000"]]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    err_lines = err.getvalue().splitlines(True)
    return code, out.getvalue(), "".join(line for line in err_lines if not line.startswith("elapsed: "))


def digests() -> tuple[str, str]:
    outputs, full = hashlib.sha256(), hashlib.sha256()
    for fmt in ("human", "jsonl", "csv"):
        for argv in CALLS:
            code, out, err = run(argv + ["--format", fmt])
            outputs.update(f"{argv} {fmt} {code}\n{out}\n".encode())
            full.update(f"{argv} {fmt} {code}\n{out}\n{err}\n".encode())
    return outputs.hexdigest(), full.hexdigest()


if __name__ == "__main__":
    outputs, full = digests()
    print(f"{len(CALLS) * 3} calls  outputs sha256 {outputs}  full sha256 {full}")

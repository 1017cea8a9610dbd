"""Command line frontend.

Subcommands: core, increments, kp, pairsums, waring, divisors,
scan {wieferich|exceptions|note4}, decompose. Every command builds a
Report (command, p, k, rows) and renders it as human text (residues in
base-p), jsonl (one self-describing record per row), or csv. Timing
goes to stderr so stdout stays stable.

A report's jsonl is one json.dumps of its rows, each line a row's text
behind the meta prefix, encoded once; else one json.dumps per record
meta | row.

kp and the scans run on generators.scan_primes (--from/--to/--jobs):
the Wieferich scan through its batched block kernel, kp, exceptions and
note4 through per-prime rows. A report is printed only when its range
is done; Ctrl-C prints one line saying so instead of a traceback and
exits 130, and a long survey runs as --from/--to windows. Each scan kind
has its own parser, so a flag is accepted only where it is read: --jobs
by kp and the scans, --base by scan wieferich and -k by scan note4.
Anywhere else it is an "unrecognized arguments" error (exit 6).

cell_modulus refuses a -p/-k cell before any work (nothing of size p^k
is built) past k*bitlen(p) > MAX_RESIDUE_BITS, p^min(k, 2) >
MAX_LEVEL_BITS (exit 4) or the int-to-str digit limit (exit 6).

Each call takes one of two routes. build_parser keeps the Action
objects add_argument returns and, for each single-parser subcommand
(all but scan), builds a _Table from them: option string -> action,
the positionals, and the namespace of defaults. A well-formed argv for
such a command (exact option strings, each followed by a value that
does not start with '-', bare positionals, every value of its type and
choices, nothing missing or extra) is read off that table by _match,
with no argparse pass, into the namespace argparse would give. Any
other argv (no argv, -h/--help, an unknown command, an option first, or
a form _match declines) takes one argparse pass, by the top-level
parser. So argparse stays the one source of help, usage, error text and
exit codes. A scan option before the kind (scan --to 50 wieferich) exits
6 naming the order: pkcore scan wieferich --to 50.

Every setting comes from argv: its flag, else the flag's default
(--format human, --jobs 1, --base 2, note4's -k 3). No environment
variable or file is read. A --jobs below 1 or a --base below 2 is
refused by the library before any work (exit 6).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import partial

from . import corefst, generators, pairsums, waring
from .errors import (
    EXIT_BAD_INPUT,
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_INTERRUPTED,
    EXIT_OK,
    CheckFailure,
    OutOfRange,
    Oversize,
    PkcoreError,
)
from .modring import PrimePowerModulus, base_p_encode, make_modulus

SCHEMA_VERSION = 1

FORMATS = ("human", "jsonl", "csv")
MAX_RESIDUE_BITS = 4096  # k*bitlen(p): the bits of a residue powered or printed
MAX_LEVEL_BITS = 1 << 26  # p^min(k, 2): the bits of a sumset level; per-n tables hold p - 1


@dataclass
class Report:
    command: str
    rows: list[dict]
    p: int | None = None
    k: int | None = None
    check_failed: bool = False


# --- rendering ----------------------------------------------------------

# per command: row fields holding a residue or a list of them (base-p in human output)
RESIDUE_FIELDS = {
    "core": ("core", "increment"),
    "increments": ("value",),
    "decompose": ("residue", "summands"),
    "waring": ("residue", "summands"),
}


def _columns(rows: list[dict]) -> list[str]:
    """Every key of the rows, in order of first appearance."""
    return list(dict.fromkeys(key for row in rows for key in row))


def _fmt_value(command: str, key: str, value, mod) -> str:
    if mod is not None and key in RESIDUE_FIELDS.get(command, ()):
        if isinstance(value, int):
            return base_p_encode(mod, value)
        if isinstance(value, (list, tuple)):
            return "+".join(base_p_encode(mod, v) for v in value)
    if key == "carry" and mod is not None:  # one base-p digit
        return base_p_encode(make_modulus(mod.p, 1), value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    if isinstance(value, dict):
        return " ".join(f"{a}:{b}" for a, b in value.items())
    return str(value)


def render_human(report: Report) -> str:
    mod = make_modulus(report.p, report.k) if report.p is not None and report.k is not None else None
    lines = [f"# {report.command}" + (f" p={report.p}" if report.p else "") + (f" k={report.k}" if report.k else "")]
    if not report.rows:
        lines.append("(no rows)")
        return "\n".join(lines) + "\n"
    keys = _columns(report.rows)
    table = [[_fmt_value(report.command, key, row.get(key, ""), mod) for key in keys] for row in report.rows]
    widths = [max(len(key), *(len(r[i]) for r in table)) for i, key in enumerate(keys)]
    lines.append("  ".join(key.ljust(w) for key, w in zip(keys, widths)))
    for r in table:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def render_jsonl(report: Report) -> str:
    """One line per row, meta | row, or one {"rows": 0} record when empty.

    The rows are encoded by one json.dumps of their list, whose default
    separators put "}, {" between two rows. When only those boundaries
    hold "}, {" and every row is non-empty and free of meta keys, each
    line is the meta prefix '{"schema_version": 1, ..., "k": K, ', encoded
    once, and a row's text. Otherwise (kp, scan and waring rows carry p
    or k) each record meta | row is encoded on its own.
    """
    meta = {"schema_version": SCHEMA_VERSION, "command": report.command, "p": report.p, "k": report.k}
    rows = report.rows or [{"rows": 0}]
    text = json.dumps(rows)
    if text.count("}, {") == len(rows) - 1 and all(rows) and all(map(meta.keys().isdisjoint, rows)):
        head = json.dumps(meta)[:-1] + ", "
        return head + text[2:-2].replace("}, {", "}\n" + head) + "}\n"
    return "".join(json.dumps(meta | row) + "\n" for row in rows)


def render_csv(report: Report) -> str:
    import csv as _csv
    import io

    if not report.rows:
        return ""
    keys = _columns(report.rows)
    buf = io.StringIO()
    writer = _csv.writer(buf)
    writer.writerow(keys)
    for row in report.rows:
        writer.writerow(
            [json.dumps(v) if isinstance(v, (list, tuple, dict)) else v for v in (row.get(k, "") for k in keys)]
        )
    return buf.getvalue()


def emit(report: Report, fmt: str) -> None:
    if fmt == "jsonl":
        sys.stdout.write(render_jsonl(report))
    elif fmt == "csv":
        sys.stdout.write(render_csv(report))
    else:
        sys.stdout.write(render_human(report))


# --- commands -----------------------------------------------------------


def _check_printable(scale: int, base: int, k: int, what: str) -> None:
    """Refuse (exit 6, message opened by what) output holding integers up to
    scale*base^(k-1), base/2 <= scale <= base, past the int-to-str limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    # that integer is within a factor 2 of base^k: it fits below limit - 1 digits, cannot
    # past limit + 1, and in between it has at most limit + 2 digits and is cheap to build
    if not limit or base < 2 or k < (limit - 1) / math.log10(base):
        return
    if k > (limit + 1) / math.log10(base) or scale * base ** (k - 1) >= 10 ** limit:
        raise OutOfRange(f"{what} have more than {limit} digits, the integer output limit")


def cell_modulus(p: int, k: int) -> PrimePowerModulus:
    """The descriptor of a -p/-k cell, or its refusal before any work, from ints
    only (never p^k); a bad p is reported first. Every printed integer is <= p^k."""
    bits = k * p.bit_length()
    if bits <= MAX_RESIDUE_BITS and (k < 1 or p ** min(k, 2) <= MAX_LEVEL_BITS):
        mod = make_modulus(p, k)
        _check_printable(p, p, k, f"p^k = {p}^{k} is too large: integers up to p^k")
        return mod
    make_modulus(p, 1)  # validates p
    if bits > MAX_RESIDUE_BITS:
        raise Oversize(f"p^k = {p}^{k} is too large: residues of k*bitlen(p) = {bits} bits, over {MAX_RESIDUE_BITS}")
    raise Oversize(f"p^k = {p}^{k} is too large: a sumset level of p^min(k, 2) bits, over {MAX_LEVEL_BITS}")


def cmd_core(args) -> Report:
    mod = cell_modulus(args.p, args.k)
    table = corefst.build_core_table(mod)
    rows = [
        {
            "n": n,
            "core": table.core[n - 1],
            "carry": table.carries[n - 1],
            "increment": table.increments[n],
        }
        for n in range(1, mod.p)
    ]
    return Report(command="core", rows=rows, p=mod.p, k=mod.k)


def cmd_increments(args) -> Report:
    cell_modulus(args.p, args.k)
    vals = corefst.integer_increments(args.p, args.i, args.k)
    rows = [{"n": n, "i": args.i, "value": v} for n, v in enumerate(vals, start=1)]
    return Report(command="increments", rows=rows, p=args.p, k=args.k)


def _kp_row(p: int) -> dict:
    try:
        res = corefst.critical_precision(p)
    except CheckFailure as exc:  # a theorem violation: report the row, exit 2
        return {"p": p, "warning": str(exc)}
    return {"p": p, "kp": res.kp, "profile": {str(a): b for a, b in res.distinct_counts.items()}}


def cmd_kp(args) -> Report:
    rows = generators.scan_primes(generators.per_prime(_kp_row), max(args.start, 3), args.to, jobs=args.jobs)
    return Report(command="kp", rows=rows, check_failed=any("warning" in row for row in rows))


def cmd_pairsums(args) -> Report:
    mod = cell_modulus(args.p, args.k)
    observed, predicted = pairsums.core_pairsum_count(mod)
    core_row = {
        "kind": "core",
        "observed": observed,
        "predicted": predicted,
        # |D_k| = (p-1)/2 iff k >= K_p, and K_p >= 2
        "note": "" if args.k >= 2 and predicted == (args.p - 1) ** 2 // 2 else "k < critical precision",
    }
    rows = [core_row]
    fermat_failed = False
    if args.k >= 2:
        fr = pairsums.fermat_pairsum_count(mod)
        rows.append(
            {
                "kind": "pthPower",
                "observed": fr.observed,
                "predicted": fr.predicted,
                "nonunit_nonzero": fr.nonunit_nonzero,
            }
        )
        fermat_failed = not fr.matches
    return Report(
        command="pairsums",
        rows=rows,
        p=args.p,
        k=args.k,
        check_failed=observed != predicted or fermat_failed,
    )


def cmd_waring(args) -> Report:
    mod = cell_modulus(args.p, args.k)
    report = waring.sumset_levels(mod, 4)
    rows = [
        {
            "p": args.p,
            "k": args.k,
            "counts": {str(t): c for t, c in report.counts.items()},
            "theorem_holds": report.theorem_holds,
            "n0_covered_by3": report.n0_covered_by3,
            "conjecture_f3_in_f4": report.conjecture_f3_in_f4,
            "disjoint_f3_f4": report.disjoint_f3_f4,
        }
    ]
    for residue, summands in sorted(report.witness_decompositions.items()):
        rows.append({"residue": residue, "level": len(summands), "summands": list(summands)})
    return Report(
        command="waring", rows=rows, p=args.p, k=args.k, check_failed=not report.theorem_holds
    )


def cmd_divisors(args) -> Report:
    audits = generators.audit_divisors(args.p, assert_non_core=False)
    rows = [
        {
            "r": a.r,
            "cofactor": a.cofactor,
            "order_g3": a.order_in_g3,
            "core_mod_p2": a.is_core_mod_p2,
            "core_mod_p3": a.is_core_mod_p3,
            "sign_trivial": a.sign_trivial,
            "classification": "exceptional" if a.exceptional else "regular",
        }
        for a in audits
    ]
    failed = any(a.is_core_mod_p3 for a in audits)
    return Report(command="divisors", rows=rows, p=args.p, k=None, check_failed=failed)


def _note4_row(k: int, p: int) -> dict:
    """The best generator of p-1 and p+1's divisors: a primitive root, else a half-group one."""
    good = [v for v in generators.survey_pm1_generators(p, k).verdicts if v.klass != "other"]
    best = min(good, key=lambda v: v.klass != "primitiveRoot", default=None)  # min keeps the first tie
    if best is None:
        return {"p": p, "g": 0, "order": 0, "classification": "counterexample"}
    return {"p": p, "g": best.g, "order": best.order, "classification": best.klass,
            "minus_one_in_cycle": best.minus_one_in_cycle}


def cmd_scan(args) -> Report:
    scan = partial(generators.scan_primes, lo=max(args.start, 3), hi=args.to, jobs=args.jobs)
    k = None  # set by note4, whose rows are orders mod p^k
    if args.kind == "wieferich":
        base = args.base
        hits = scan(generators.wieferich_test(base))
        rows = [{"p": p, "base": base, "residual": 0, "classification": "wieferich"} for p in hits]
    elif args.kind == "exceptions":
        pairs = scan(generators.per_prime(generators.exception_row))
        rows = [{"p": p, "r": r, "residual": 0, "classification": "exceptional"} for p, r in pairs]
    else:  # orders mod p^k reach (p-1)*p^(k-1), p <= --to
        k, hi = args.k, args.to
        _check_printable(hi - 1, hi, k, f"-k {k} is too large for --to {hi}: orders up to {hi - 1}*{hi}^{k - 1}")
        rows = scan(generators.per_prime(partial(_note4_row, k)))
    failed = any(row["classification"] == "counterexample" for row in rows)
    return Report(command="scan", rows=rows, k=k, check_failed=failed)


def cmd_decompose(args) -> Report:
    mod = cell_modulus(args.p, args.k)
    x = args.residue % mod.modulus
    if args.max_t < 1:
        raise OutOfRange(f"need at least one summand, got --max-t {args.max_t}")
    summands = waring.least_decomposition(mod, x, args.max_t) or ()
    rows = [{"residue": x, "level": len(summands), "summands": list(summands)}]
    return Report(command="decompose", rows=rows, p=args.p, k=args.k, check_failed=not summands)


# --- parser / main ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pkcore",
        description="structure of the unit group and p-th power sums mod p^k",
    )
    common = _Parser(add_help=False)
    fmt = common.add_argument("--format", choices=FORMATS, default="human")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.tables = {}  # name -> _Table, for the single-parser subcommands

    def command(name, func, help, *arguments):
        """A subcommand read by one parser: its parser, and the _Table of the same actions."""
        sp = sub.add_parser(name, parents=[common], help=help)
        actions = [fmt] + [sp.add_argument(*flags, **kwargs) for flags, kwargs in arguments]
        sp.set_defaults(func=func)
        parser.tables[name] = _Table(name, func, actions)

    def arg(*flags, **kwargs):
        return flags, kwargs

    p = arg("-p", type=int, required=True)
    k = arg("-k", type=int, required=True)  # with p: a cell (p, k), checked by cell_modulus
    command("core", cmd_core, "core table: values, carries, increments", p, k)
    command("increments", cmd_increments, "fixed-precision power differences e_i(n)", p, k,
            arg("--i", type=int, default=1))
    command("kp", cmd_kp, "critical precision per prime", arg("--from", dest="start", type=int, default=3),
            arg("--to", type=int, default=100), arg("--jobs", type=int, default=1))
    command("pairsums", cmd_pairsums, "core and p-th power pairsum counts", p, k)
    command("waring", cmd_waring, "sumset levels and coverage verdicts", p, k)
    command("divisors", cmd_divisors, "order audit of divisors of p^2-1", p)

    scan = _Parser(add_help=False, parents=[common])  # what every scan kind reads
    scan_options = [
        scan.add_argument("--from", dest="start", type=int, default=3),
        scan.add_argument("--to", type=int, required=True),
        scan.add_argument("--jobs", type=int, default=1),
    ]
    sp = sub.add_parser("scan", help="prime scans")
    sp.set_defaults(func=cmd_scan)
    kinds = sp.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    kind = kinds.add_parser("wieferich", parents=[scan], help="primes p with base^p = base mod p^2")
    scan_options.append(kind.add_argument("--base", type=int, default=2))
    kinds.add_parser("exceptions", parents=[scan], help="divisors r of p^2-1 with r^p = r mod p^2")
    kind = kinds.add_parser("note4", parents=[scan], help="generator survey of the divisors of p-1 and p+1")
    scan_options.append(kind.add_argument("-k", type=int, default=3))
    parser.scan_options = {flag for action in [fmt, *scan_options] for flag in action.option_strings}
    parser.scan, parser.scan_kinds = sp, kinds.choices  # for _refuse_options_before_kind

    command("decompose", cmd_decompose, "p-th power summand witness for a residue", p, k,
            arg("residue", type=int), arg("--max-t", dest="max_t", type=int, default=4))

    return parser


class _Table:
    """One subcommand's arguments, read off the actions add_argument returned:
    option string -> action, the positionals, the required actions, and the
    namespace of a call that sets nothing (command, func and each dest's default)."""

    __slots__ = ("options", "positionals", "required", "defaults")

    def __init__(self, name, func, actions):
        self.options = {flag: action for action in actions for flag in action.option_strings}
        self.positionals = tuple(action for action in actions if not action.option_strings)
        self.required = tuple(action for action in actions if action.required)
        self.defaults = {"command": name, "func": func} | {action.dest: action.default for action in actions}


def _match(table: _Table, argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a well-formed argv, or None for any other.

    Accepted: an exact option string followed by a value that does not
    start with '-', and bare positionals, each converted by its type and
    checked against its choices; a repeated option keeps its last value.
    Everything else (-h, --, --opt=value, an abbreviation, -p5, a value or
    residue that starts with '-', a bad value, a missing or extra argument)
    returns None and is left to argparse, with its help and error text.
    """
    values = {}
    positionals = iter(table.positionals)
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("-"):
            action, value = table.options.get(token), next(tokens, "-")  # no value reads as "-"
            if action is None or value.startswith("-"):
                return None
        else:
            action, value = next(positionals, None), token
            if action is None:
                return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if any(action.dest not in values for action in table.required):
        return None
    return argparse.Namespace(**(table.defaults | values))


def _refuse_options_before_kind(scan: argparse.ArgumentParser, kinds, argv: list[str]) -> None:
    """Exit 6 naming the order a scan's options take, for an argv that opens with one."""
    kind = next((token for token in argv if token in kinds), None)
    rest = list(argv)
    if kind is None:
        kind = "{" + ",".join(kinds) + "}"
    else:
        rest.remove(kind)
    scan.error(f"options follow the kind: pkcore scan {kind} {' '.join(rest)}")


_parser: argparse.ArgumentParser | None = None


def _parse_argv(argv=None) -> argparse.Namespace:
    """A well-formed call to a single-parser subcommand is read off its
    _Table; any other call takes one argparse pass, by the top-level parser."""
    global _parser
    if _parser is None:  # built on first use, then reused by every call
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    table = _parser.tables.get(argv[0]) if argv else None
    args = _match(table, argv[1:]) if table is not None else None
    if args is not None:
        return args
    if len(argv) > 1 and argv[0] == "scan" and argv[1].partition("=")[0] in _parser.scan_options:
        _refuse_options_before_kind(_parser.scan, _parser.scan_kinds, argv[1:])
    return _parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_argv(argv)
    try:
        t0 = time.perf_counter()
        try:
            report: Report = args.func(args)
        except KeyboardInterrupt:  # before any output: a report is printed whole, once its work is done
            hint = "; run the range again, or split it into --from/--to windows" if hasattr(args, "to") else ""
            print(f"interrupted: no rows were printed{hint}", file=sys.stderr)
            return EXIT_INTERRUPTED
        elapsed_s = time.perf_counter() - t0
        emit(report, args.format)
        print(f"elapsed: {elapsed_s:.3f}s", file=sys.stderr)
        return EXIT_CHECK_FAILED if report.check_failed else EXIT_OK
    except PkcoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

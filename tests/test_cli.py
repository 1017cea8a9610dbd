import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import oracles
import pkcore.cli
import pkcore.pairsums
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pkcore import corefst, waring
from pkcore.cli import FORMATS, Report, cell_modulus, main, render_human, render_jsonl
from pkcore.errors import CheckFailure, EvenPrime, NotPrime, OutOfRange, Oversize
from pkcore.primes import primes_in_range

GRID = [(3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (3, 3), (5, 3), (7, 3)]  # the acceptance grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_core_golden_row(capsys):
    code, out, _ = run(capsys, "core", "-p", "11", "-k", "3")
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("2 "))
    assert "4a2" in row and "711" in row


def test_core_5_2_rows(capsys):
    code, out, _ = run(capsys, "core", "-p", "5", "-k", "2")
    assert code == 0
    cores = {
        oracles.naive_base_p_decode(line.split()[1], 5)
        for line in out.splitlines()
        if line[:1].isdigit()
    }
    assert cores == {1, 7, 18, 24}


def parse_jsonl(text: str) -> Report:
    """The Report a jsonl text was rendered from: meta keys off each record, rows in order."""
    rows = []
    command, p, k = "", None, None
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        command = rec.pop("command", command)
        p = rec.pop("p", p)
        k = rec.pop("k", k)
        rec.pop("schema_version", None)
        if rec != {"rows": 0}:
            rows.append(rec)
    return Report(command=command, rows=rows, p=p, k=k)


def test_jsonl_round_trip(capsys):
    for argv in (("pairsums", "-p", "7", "-k", "3"), ("decompose", "-p", "7", "-k", "3", "14")):
        code, human, _ = run(capsys, *argv)
        assert code == 0
        code, jsonl, _ = run(capsys, *argv, "--format", "jsonl")
        assert code == 0
        assert render_human(parse_jsonl(jsonl)) == human, argv


def test_jsonl_records_self_describing(capsys):
    _, out, _ = run(capsys, "core", "-p", "5", "-k", "2", "--format", "jsonl")
    for line in out.splitlines():
        rec = json.loads(line)
        assert rec["schema_version"] == 1
        assert rec["command"] == "core"
        assert (rec["p"], rec["k"]) == (5, 2)


def test_csv_header(capsys):
    _, out, _ = run(capsys, "core", "-p", "5", "-k", "2", "--format", "csv")
    assert out.splitlines()[0] == "n,core,carry,increment"
    assert len(out.splitlines()) == 5


def test_timing_goes_to_stderr(capsys):
    _, out, err = run(capsys, "kp", "--from", "3", "--to", "13")
    assert "elapsed" in err and "elapsed" not in out


def test_kp_values_above_2000(capsys):
    code, out, _ = run(capsys, "kp", "--from", "2000", "--to", "2100", "--format", "jsonl")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["p"] for r in recs] == primes_in_range(2000, 2100)
    assert all("warning" not in r for r in recs)
    assert {r["p"]: r["kp"] for r in recs} == {r["p"]: oracles.naive_critical_precision(r["p"]) for r in recs}


def test_kp_check_failure_exits_2(monkeypatch, capsys):
    real = corefst.critical_precision

    def violated_at_7(p):
        if p == 7:
            raise CheckFailure("critical precision bound violated: K_7 = 7 >= p")
        return real(p)

    monkeypatch.setattr(corefst, "critical_precision", violated_at_7)
    code, out, _ = run(capsys, "kp", "--to", "20", "--format", "jsonl")
    assert code == 2
    recs = {r["p"]: r for r in map(json.loads, out.splitlines())}
    assert list(recs) == primes_in_range(3, 20)
    assert "K_7" in recs[7]["warning"] and "kp" not in recs[7]
    assert all(r["kp"] == real(p).kp for p, r in recs.items() if p != 7)


def test_tables_come_from_the_power_sieve_alone(capsys):
    # every table command builds its tables from a cold cache
    corefst._core_table.cache_clear()
    pk = ["-p", "11", "-k", "3"]
    for argv in (["core", *pk], ["increments", *pk], ["pairsums", *pk], ["decompose", *pk, "1"], ["waring", *pk]):
        assert run(capsys, *argv)[0] == 0, argv
    assert run(capsys, "kp", "--from", "73", "--to", "73")[0] == 0


def test_pairsums_computes_kp_once(monkeypatch, capsys):
    calls = []
    real = corefst.critical_precision

    def counted(p):
        calls.append(p)
        return real(p)

    # pairsums holds its own reference, so count through both names
    monkeypatch.setattr(corefst, "critical_precision", counted)
    monkeypatch.setattr(pkcore.pairsums, "critical_precision", counted)
    for p, k in [(7, 3), (11, 2), (13, 4)]:
        calls.clear()
        code, _, _ = run(capsys, "pairsums", "-p", str(p), "-k", str(k))
        assert code == 0 and calls == [p], (p, k, calls)


def test_parser_built_once(monkeypatch, capsys):
    built = []
    real = pkcore.cli.build_parser
    monkeypatch.setattr(pkcore.cli, "_parser", None)
    monkeypatch.setattr(pkcore.cli, "build_parser", lambda: built.append(1) or real())
    _, first, _ = run(capsys, "core", "-p", "5", "-k", "2")
    _, second, _ = run(capsys, "core", "-p", "5", "-k", "2")
    assert first == second and len(built) == 1


def test_known_command_parsed_once(monkeypatch, capsys):
    # a well-formed call is read off its command's table with no argparse pass;
    # a form the table declines takes one pass, by the top-level parser, which
    # hands the rest to the command's parser
    parsed = []
    real = pkcore.cli._Parser.parse_known_args

    def counted(self, *args, **kwargs):
        parsed.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(pkcore.cli._Parser, "parse_known_args", counted)
    code, _, _ = run(capsys, "decompose", "-p", "7", "-k", "3", "14")
    assert code == 0 and parsed == []
    code, _, _ = run(capsys, "decompose", "-p", "7", "-k", "3", "--format=jsonl", "14")
    assert code == 0 and parsed == ["pkcore", "pkcore decompose"]


def subcommands(parser):
    """name -> parser of each subcommand, read off the top-level parser's subparsers action."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


VALID_ARGV = [
    ["core", "-p", "5", "-k", "2"],
    ["core", "-p", "5", "-k", "2", "--format", "csv"],
    ["increments", "-p", "11", "-k", "3", "--i", "2", "--format=jsonl"],
    ["kp", "--from", "5", "--to", "50", "--jobs", "2"],
    ["pairsums", "-p", "7", "-k", "3"],
    ["waring", "--format", "human", "-p", "3", "-k", "4"],
    ["divisors", "-p", "11"],
    ["scan", "wieferich", "--to", "100", "--base", "3", "--jobs", "2", "--checkpoint", "ck.jsonl"],
    ["scan", "note4", "--from", "5", "--to", "30", "-k", "4"],
    ["scan", "exceptions", "--to", "50", "--format", "jsonl"],
    ["decompose", "-p", "7", "-k", "3", "14", "--max-t", "3"],
    ["decompose", "-p", "7", "-k", "3", "--", "-5"],
    ["increments", "-p", "5", "-k", "2", "--i", "3", "-p", "7", "--format", "csv", "--format", "jsonl"],
]


def test_single_parse_namespace_matches_full_parser():
    for argv in VALID_ARGV:
        single = pkcore.cli._parse_argv(argv)
        assert vars(single) == vars(pkcore.cli._parser.parse_args(argv)), argv
    assert {argv[0] for argv in VALID_ARGV} == set(subcommands(pkcore.cli._parser))


def built_parser():
    pkcore.cli._parse_argv(["divisors", "-p", "11"])  # builds the parser on first use
    return pkcore.cli._parser


def test_table_reads_well_formed_calls_as_argparse_does():
    parser = built_parser()
    assert set(parser.tables) == set(subcommands(parser)) - {"scan"}
    accepted = set()
    for argv in VALID_ARGV:
        table = parser.tables.get(argv[0])
        args = pkcore.cli._match(table, argv[1:]) if table is not None else None
        if args is not None:
            accepted.add(argv[0])
            assert vars(args) == vars(parser.parse_args(argv)), argv
    assert accepted == set(parser.tables)  # each table command has a plain call in VALID_ARGV


# what the table leaves to argparse: -p5, an abbreviation, an = form, --, a value or residue
# starting with '-', help, a bad value, a missing or an extra argument
DECLINED_ARGV = [
    ["-p5", "-k", "3", "14"],
    ["-p", "7", "-k", "3", "--form", "jsonl", "14"],
    ["-p", "7", "-k", "3", "--format=jsonl", "14"],
    ["-p", "7", "-k", "3", "--", "-5"],
    ["-p", "7", "-k", "3", "-5"],
    ["-p", "-5", "-k", "3", "14"],
    ["-p", "7", "-k", "3", "14", "-h"],
    ["-p", "7", "-k", "x", "14"],
    ["-p", "7", "-k", "3", "14", "--format", "bogus"],
    ["-p", "7", "14"],
    ["-p", "7", "-k", "3"],
    ["-p", "7", "-k", "3", "14", "15"],
    ["-p", "7", "-k", "3", "14", "-p"],
]


def test_table_declines_every_unusual_form():
    table = built_parser().tables["decompose"]
    for argv in DECLINED_ARGV:
        assert pkcore.cli._match(table, argv) is None, argv


ARG_TOKENS = st.one_of(
    st.integers(-20, 60).map(str),
    st.sampled_from(["x", "", "1.5", "-", "--", "-h", "--help", "bogus", *FORMATS]),
)


def good_value(action):
    return st.sampled_from(action.choices) if action.choices else st.integers(0, 60).map(str)


@st.composite
def command_argv(draw):
    """A table command and its arguments, mostly well formed, shuffled among
    repeated options, abbreviations, = forms, --, -h, negative ints, non-ints
    and bad choices."""
    parser = built_parser()
    name = draw(st.sampled_from(sorted(parser.tables)))
    table = parser.tables[name]
    flags = sorted(table.options)
    valued = st.sampled_from(flags).flatmap(lambda flag: st.tuples(st.just(flag), good_value(table.options[flag])))
    abbreviated = st.sampled_from([flag[:-1] for flag in flags if len(flag) > 3] or flags)
    noise = st.one_of(
        st.tuples(st.sampled_from(flags) | abbreviated, ARG_TOKENS),
        st.tuples(st.sampled_from(flags), ARG_TOKENS).map(lambda pair: ("=".join(pair),)),
        st.tuples(ARG_TOKENS),
    )
    pieces = [
        (*action.option_strings[:1], draw(good_value(action)))
        for action in table.required
        if draw(st.integers(0, 9))  # a required argument is missing one time in ten
    ]
    pieces += draw(st.lists(valued | valued | noise, max_size=4))
    return [name] + [token for part in draw(st.permutations(pieces)) for token in part]


@settings(max_examples=200, deadline=None)
@given(command_argv())
def test_table_agrees_with_argparse_whenever_it_reads(argv):
    parser = built_parser()
    args = pkcore.cli._match(parser.tables[argv[0]], argv[1:])
    if args is not None:
        assert vars(args) == vars(parser.parse_args(argv)), argv


PARITY_ARGV = [
    [],
    ["--help"],
    ["core", "-h"],
    ["nope"],
    ["core", "-p", "5", "-k", "2", "extra"],
    ["divisors", "-p", "11", "--jobs", "2"],
    ["decompose", "-p", "7", "-k", "3"],
    ["kp", "--to", "x"],
    ["core", "-p", "5", "-k", "2", "--format", "bogus"],
    ["scan", "bogus", "--to", "5"],
    ["--format", "jsonl", "core", "-p", "5", "-k", "2"],
    ["core", "-p", "5", "-k", "2"],
    ["decompose", "-p", "7", "-k", "3", "14", "--format", "jsonl"],
    ["increments", "-p", "11", "-k", "3", "--i", "2"],
    ["kp", "--from", "5", "--to", "40", "--format", "csv"],
    ["pairsums", "-p", "7", "-k", "3"],
    ["waring", "-p", "5", "-k", "2", "--format", "jsonl"],
    ["divisors", "-p", "11"],
]


def test_single_parse_output_matches_full_parser(monkeypatch, capsys):
    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, "".join(line for line in err.splitlines(True) if not line.startswith("elapsed: "))

    single = [outcome(argv) for argv in PARITY_ARGV]
    tables = pkcore.cli._parser.tables  # each table command has a call here that its table reads
    read = {argv[0] for argv in PARITY_ARGV
            if argv and argv[0] in tables and pkcore.cli._match(tables[argv[0]], argv[1:])}
    assert read == set(tables)
    monkeypatch.setattr(pkcore.cli._parser, "tables", {})  # every argv takes the top-level parser
    full = [outcome(argv) for argv in PARITY_ARGV]
    for argv, got, want in zip(PARITY_ARGV, single, full):
        assert got == want, argv
    assert [code for code, _, _ in single] == [6, 0, 0, 6, 6, 6, 6, 6, 6, 6, 6] + [0] * 7


def test_oversize_rejected_before_computing_pk(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "core", "-p", "3", "-k", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == "" and "3^1000000000" in err and "k*bitlen(p)" in err and "4096" in err
    code, _, err = run(capsys, "waring", "-p", "3", "-k", "5000")
    assert code == 4 and "3^5000" in err and len(err) < 200, err


def test_not_prime_exit(capsys):
    code, _, err = run(capsys, "core", "-p", "4", "-k", "2")
    assert code == 3 and "not prime" in err


def test_oversize_exit_with_guidance(capsys):
    # each refusal names p^k as p and k, and the limit it broke
    code, _, err = run(capsys, "waring", "-p", "8209", "-k", "2")
    assert code == 4 and "8209^2" in err and "p^min(k, 2)" in err and str(1 << 26) in err, err
    code, _, err = run(capsys, "core", "-p", "5", "-k", "1366")
    assert code == 4 and "5^1366" in err and "k*bitlen(p)" in err and "4096" in err, err


def test_cell_guard_admits_every_cell_of_at_most_2_26():
    for p in primes_in_range(3, 199):
        k = 1
        while p**k <= 1 << 26:
            assert cell_modulus(p, k).modulus == p**k, (p, k)
            k += 1


@contextlib.contextmanager
def int_max_str_digits(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_cell_guard_edges():
    for p, k in [(8191, 2), (5, 1365), (3, 40), (11, 8)]:
        assert cell_modulus(p, k).modulus == p**k, (p, k)
    for p, k, limit in [(8209, 2, str(1 << 26)), (5, 1366, "4096"), (3, 10**9, "4096")]:
        with pytest.raises(Oversize) as exc:
            cell_modulus(p, k)
        message = str(exc.value)
        assert f"p^k = {p}^{k}" in message and limit in message and len(message) < 200, message
        assert k != 2 or str(p**k) not in message  # larger values cannot fit in 200 characters
    # a p that is not an odd prime is reported first, at any size
    for p, k, error in [(4, 10**9, NotPrime), (2, 10**9, EvenPrime), (9, 2, NotPrime)]:
        with pytest.raises(error):
            cell_modulus(p, k)
    # every printed integer is at most p^k: 5^915 has 640 digits, 5^916 has 641
    with int_max_str_digits(640):
        assert cell_modulus(5, 915).modulus == 5**915
        with pytest.raises(OutOfRange) as exc:
            cell_modulus(5, 916)
        assert "5^916" in str(exc.value) and "640 digits" in str(exc.value)


def test_cell_refuses_unprintable_integers(capsys):
    # 5^1365 has 955 digits: refused before any work, not an internal error at render time
    with int_max_str_digits(640):
        for fmt in FORMATS:
            code, out, err = run(capsys, "core", "-p", "5", "-k", "1365", "--format", fmt)
            assert code in (4, 6) and out == "" and "internal error" not in err, (fmt, err)


def test_note4_k_past_float_range_is_bad_input(capsys):
    # the digit check compares k, an int, with a float: a k no float can hold is refused
    code, out, err = run(capsys, "scan", "note4", "--to", "20", "-k", "1" + "0" * 400)
    assert code == 6 and out == "" and "-k 1000" in err and "internal error" not in err, err


def test_large_k_cells_answer_fast(capsys):
    for argv in (["pairsums"], ["decompose", "12345"], ["waring"]):
        start = time.perf_counter()
        code, out, _ = run(capsys, argv[0], "-p", "5", "-k", "1000", *argv[1:], "--format", "jsonl")
        assert time.perf_counter() - start < 1.0 and code == 0, argv
        witnesses = [row for row in map(json.loads, out.splitlines()) if "summands" in row]
        assert all(sum(row["summands"]) % 5**1000 == row["residue"] for row in witnesses), argv
        assert witnesses or argv[0] == "pairsums"


def test_waring_11_8_scales_11_3(capsys):
    summary = {}
    for k in (3, 8):
        code, out, _ = run(capsys, "waring", "-p", "11", "-k", str(k), "--format", "jsonl")
        assert code == 0
        summary[k] = json.loads(out.splitlines()[0])
    assert summary[8]["counts"] == {t: 11**5 * c for t, c in summary[3]["counts"].items()}
    for verdict in ("theorem_holds", "n0_covered_by3", "conjecture_f3_in_f4", "disjoint_f3_f4"):
        assert summary[8][verdict] == summary[3][verdict], verdict


BIG_CELLS = [(29, 6), (37, 5), (41, 5), (43, 5), (47, 5)]  # each p^k > 2^26


def _jsonl_rows(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "jsonl")
    assert code == 0, (argv, err)
    return [json.loads(line) for line in out.splitlines()]


def test_cells_past_2_26_match_independent_arithmetic(capsys):
    # F+t mod p^k is the preimage of S_t = F+t mod p^2, so every count is p^(k-2) times one at p^2
    for p, k in BIG_CELLS:
        m, q, scale, cell = p**k, p * p, p ** (k - 2), ("-p", str(p), "-k", str(k))
        assert m > 1 << 26 and k >= oracles.naive_critical_precision(p)
        rows = _jsonl_rows(capsys, "core", *cell)
        cores = [0] + [row["core"] for row in rows] + [0]  # the core of 0 and of p is 0
        assert [row["n"] for row in rows] == list(range(1, p))
        for row in rows:
            n, c = row["n"], row["core"]
            assert pow(c, p, m) == c and c % p == n, (p, k, n)
            assert row["carry"] == (pow(n, p - 1, q) - 1) // p, (p, k, n)
            assert row["increment"] == (cores[n + 1] - c) % m, (p, k, n)

        levels = oracles.naive_sum_levels(p, 2)  # S_1..S_4 on Z/p^2
        summary = _jsonl_rows(capsys, "waring", *cell)[0]
        assert summary["counts"] == {str(t): len(level) * scale for t, level in levels.items()}
        assert summary["theorem_holds"] == (levels[3] | levels[4] == set(range(q)))
        # past k = 2 every class mod p^2 of a multiple of p, 0 too, holds nonzero multiples of p
        assert summary["n0_covered_by3"] == (set(range(0, q, p)) <= levels[3])
        assert summary["conjecture_f3_in_f4"] == (levels[3] <= levels[4])
        assert summary["disjoint_f3_f4"] == (not levels[3] & levels[4])

        core_row, power_row = _jsonl_rows(capsys, "pairsums", *cell)
        assert core_row["observed"] == core_row["predicted"] == (p - 1) ** 2 // 2 and core_row["note"] == ""
        s2 = levels[2]
        assert power_row["observed"] == power_row["predicted"] == scale * sum(1 for x in s2 if x % p)
        assert power_row["nonunit_nonzero"] == scale * sum(1 for x in s2 if x % p == 0) - (0 in s2)

        order = (p - 1) * scale  # |F|: F is the subgroup of the units of this order
        for x in (0, 1, p, q, 12345, m // 3, m - 1):
            (row,) = _jsonl_rows(capsys, "decompose", *cell, str(x))
            summands = row["summands"]
            assert row["residue"] == x and sum(summands) % m == x, (p, k, x)
            assert row["level"] == len(summands) == min(t for t, level in levels.items() if x % q in level)
            assert all(pow(v, order, m) == 1 for v in summands), (p, k, x)


def test_table_bound_option_is_gone(tmp_path, monkeypatch, capsys):
    for argv in (["core"], ["increments"], ["pairsums"], ["waring"], ["decompose", "1"]):
        with pytest.raises(SystemExit) as e:
            main([argv[0], "-p", "5", "-k", "2", *argv[1:], "--table-bound", "100"])
        assert e.value.code == 6 and "unrecognized arguments: --table-bound 100" in capsys.readouterr().err, argv
    # the old variable and config key are ignored, like any unknown key
    conf = tmp_path / "pk.conf"
    conf.write_text("table_bound=1\n")
    for variable, path in (("1", tmp_path / "absent.conf"), (None, conf), ("1", conf)):
        if variable is None:
            monkeypatch.delenv("PKCORE_TABLE_BOUND", raising=False)
        else:
            monkeypatch.setenv("PKCORE_TABLE_BOUND", variable)
        monkeypatch.setenv("PKCORE_CONFIG", str(path))
        code, out, err = run(capsys, "core", "-p", "5", "-k", "2")
        assert code == 0 and out and "error" not in err, (variable, path, err)


def test_bad_format_exit():
    import pytest

    with pytest.raises(SystemExit) as e:
        main(["core", "-p", "5", "-k", "2", "--format", "bogus"])
    assert e.value.code == 6


def test_decompose_hit_and_miss(capsys):
    code, out, _ = run(capsys, "decompose", "-p", "7", "-k", "3", "14")
    assert code == 0 and out.splitlines()[2].split() == ["020", "3", "001+043+643"]  # 14 is 020 in base 7
    _, out, _ = run(capsys, "decompose", "-p", "7", "-k", "3", "14", "--format", "jsonl")
    assert json.loads(out)["residue"] == 14  # machine formats keep raw integers
    # 2 mod 27 is not a unit cube, so capping at one summand must miss
    code, out, _ = run(capsys, "decompose", "-p", "3", "-k", "3", "2", "--max-t", "1")
    assert code == 2


def test_waring_witness_residues_render_base_p(capsys):
    code, human, _ = run(capsys, "waring", "-p", "5", "-k", "2")
    assert code == 0
    witness_rows = [line.split() for line in human.splitlines()[3:]]
    assert witness_rows == [["00", "4", "01+01+44+44"], ["01", "3", "01+01+44"]]


def test_decompose_max_t_below_one_is_bad_input(capsys):
    for max_t in ("0", "-2"):
        code, out, err = run(capsys, "decompose", "-p", "7", "-k", "3", "14", "--max-t", max_t)
        assert code == 6 and out == "" and "--max-t" in err, max_t


def test_decompose_searches_once_per_call(monkeypatch, capsys):
    calls = []
    real = waring.decompose_residue

    def counted(mod, x, t):
        calls.append((mod.p, mod.k, x, t))
        return real(mod, x, t)

    monkeypatch.setattr(waring, "decompose_residue", counted)
    for p, k in [(5, 3), (7, 3)]:
        levels, seen = oracles.naive_sum_levels(p, k), set()
        for t in range(1, 5):
            for x in sorted(levels[t] - seen)[:3]:  # residues whose least level is t
                argv = ["decompose", "-p", str(p), "-k", str(k), str(x), "--format", "jsonl"]
                calls.clear()
                code, out, _ = run(capsys, *argv)
                assert code == 0 and json.loads(out)["level"] == t, (p, k, x)
                assert calls == [(p, k, x, t)], (p, k, x, calls)
                if t > 1:  # below its level: the level-0 row, exit 2, and no search
                    calls.clear()
                    code, out, _ = run(capsys, *argv, "--max-t", str(t - 1))
                    assert code == 2 and json.loads(out)["level"] == 0 and calls == [], (p, k, x)
            seen |= levels[t]


# every row non-empty, free of meta keys, and "}, {" only between rows: the meta prefix is encoded once
PREFIX_REPORTS = [
    Report("divisors", [{"r": 2, "cofactor": 60, "core_mod_p2": False}, {"r": 120, "classification": "regular"}], p=11),
    Report("decompose", [{"residue": 7, "level": 2, "summands": [1, 6]}], p=5, k=2),
    Report("x", [{"d": {"1": 2}, "v": [[1], []]}, {"s": "{x}, [y]", "e": {}}, {"\u00e9": 1.5, "n": None}], p=3, k=1),
    Report("scan", []),
]
# "}, {" inside a row, an empty row, a row carrying p: one json.dumps of meta | row per row
FALLBACK_REPORTS = [
    Report("x", [{"a": 1}, {"s": "}, {"}, {"b": [{}, {}]}], p=7, k=3),
    Report("x", [{"a": 1}, {}], p=7, k=3),
    Report("x", [{"a": 1}, {"p": 13, "b": 2}], p=7, k=3),
]
TRICKY_REPORTS = PREFIX_REPORTS + FALLBACK_REPORTS + [
    Report("x", [{"s": s} for s in ('say "hi"', "two\nlines", "}, {", '}, {"schema_version": 1', "\\\"")], p=5, k=2),
    Report("kp", [{"p": 7, "kp": 2, "profile": {"2": 3}}, {"p": 11, "k": 3, "warning": "}, {"}]),
    Report("waring", [{"p": 3, "k": 4, "counts": {"1": 18}}, {"residue": 0, "summands": [1, 80]}], p=3, k=4),
    Report("x", [{}], p=3, k=2),
    Report("x", [{}, {"v": [], "d": {}}, {}]),
    Report("divisors", [], p=11),
    # a list of objects can hold the text between two records, '}, {"schema_version": '
    Report("x", [{"v": [{"a": 1}, {"schema_version": 1}]}]),
    Report("x", [{}, {"v": [{}, {"schema_version": 2}]}, {}]),
]


def test_render_jsonl_matches_per_row_reference(monkeypatch, capsys):
    dumped = []  # what render_jsonl encodes: the meta dict once on the prefix route, meta | row per row else
    real_dumps = json.dumps
    monkeypatch.setattr(pkcore.cli.json, "dumps", lambda obj: dumped.append(obj) or real_dumps(obj))
    for report in TRICKY_REPORTS:
        dumped.clear()
        got = render_jsonl(report)
        meta = {"schema_version": 1, "command": report.command, "p": report.p, "k": report.k}
        encoded = [obj for obj in dumped if isinstance(obj, dict)]
        if report in PREFIX_REPORTS:
            assert encoded == [meta], report
        elif report in FALLBACK_REPORTS:
            assert encoded == [meta | row for row in report.rows], report
        assert got == oracles.naive_render_jsonl(report), report
    monkeypatch.undo()
    argvs = [["kp", "--from", "3", "--to", "13"], ["scan", "note4", "--to", "13"]]
    argvs += [["scan", kind, "--to", "13"] for kind in ("wieferich", "exceptions")]
    for p, k in GRID:
        pk = ["-p", str(p), "-k", str(k)]
        argvs += [["core", *pk], ["increments", *pk], ["pairsums", *pk], ["waring", *pk], ["divisors", "-p", str(p)]]
        argvs += [["decompose", *pk, str(x)] for x in (0, 1, p, 2 * p + 1)]
        argvs.append(["decompose", *pk, "2", "--max-t", "1"])
    got = [run(capsys, *argv, "--format", "jsonl")[:2] for argv in argvs]
    monkeypatch.setattr(pkcore.cli, "render_jsonl", oracles.naive_render_jsonl)
    want = [run(capsys, *argv, "--format", "jsonl")[:2] for argv in argvs]
    for argv, g, w in zip(argvs, got, want):
        assert g == w, argv
    assert {argv[0] for argv in argvs} == set(subcommands(pkcore.cli._parser))


def test_pairsums_below_critical_notes(capsys):
    code, out, _ = run(capsys, "pairsums", "-p", "11", "-k", "2")
    assert code == 0
    core_line = next(line for line in out.splitlines() if line.startswith("core"))
    assert "40" in core_line and "k < critical precision" in core_line


def test_scan_note4_counterexample_free(capsys):
    code, out, _ = run(capsys, "scan", "note4", "--to", "100", "-k", "3")
    assert code == 0
    assert "counterexample" not in out
    assert any("halfGroupNoMinusOne" in line for line in out.splitlines())


NOTE4_TO_12 = [
    {"p": 3, "g": 2, "order": 18},
    {"p": 5, "g": 2, "order": 100},
    {"p": 7, "g": 3, "order": 294},
    {"p": 11, "g": 2, "order": 1210},
]


def test_scan_note4_refuses_unprintable_orders(capsys):
    # orders up to 19*20^199999 would fail at render time, after the scan
    start = time.perf_counter()
    code, out, err = run(capsys, "scan", "note4", "--to", "20", "-k", "200000")
    assert time.perf_counter() - start < 1.0
    assert code == 6 and out == "" and "-k 200000" in err, err
    code, out, _ = run(capsys, "scan", "note4", "--to", "12", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [{key: row[key] for key in ("p", "g", "order")} for row in rows] == NOTE4_TO_12
    assert all(row["classification"] == "primitiveRoot" and row["minus_one_in_cycle"] for row in rows)


def test_scan_exceptions_stream(capsys):
    code, out, _ = run(capsys, "scan", "exceptions", "--to", "40", "--format", "jsonl")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [(r["p"], r["r"]) for r in recs] == [(11, 3), (29, 14), (37, 18)]
    assert all(r["classification"] == "exceptional" for r in recs)


def test_wieferich_checkpoint_resume(tmp_path, capsys):
    cp = str(tmp_path / "scan.ckpt")
    code, out1, _ = run(capsys, "scan", "wieferich", "--to", "2000", "--checkpoint", cp)
    assert code == 0 and "1093" in out1
    stored = json.loads(open(cp).read())["next"]
    assert stored > 2000
    code, out2, _ = run(capsys, "scan", "wieferich", "--to", "10000", "--checkpoint", cp)
    assert code == 0
    assert "3511" in out2 and "1093" not in out2
    code, full, _ = run(capsys, "scan", "wieferich", "--to", "10000")
    hits = lambda text: {
        line.split()[0] for line in text.splitlines() if line[:1].isdigit()
    }
    assert hits(out1) | hits(out2) == hits(full) == {"1093", "3511"}


def test_checkpoint_format(tmp_path, capsys):
    cp = tmp_path / "w.ckpt"
    run(capsys, "scan", "wieferich", "--to", "1500", "--checkpoint", str(cp))
    text = cp.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == {"version": 1, "base": 2, "next": 1501}


def test_checkpoint_refused_unless_same_scan(tmp_path, capsys):
    cp = tmp_path / "w.ckpt"
    code, _, _ = run(capsys, "scan", "wieferich", "--to", "5000", "--checkpoint", str(cp))
    assert code == 0
    # a base-3 run must not resume a base-2 checkpoint: it would skip [2, 5000] and miss 11
    code, out, err = run(
        capsys, "scan", "wieferich", "--to", "5000", "--base", "3", "--checkpoint", str(cp)
    )
    assert code == 6 and str(cp) in err and "base-2" in err and out == ""
    code, out, _ = run(capsys, "scan", "wieferich", "--to", "5000", "--base", "3", "--format", "jsonl")
    assert code == 0 and [json.loads(line)["p"] for line in out.splitlines()] == [11]
    refused = (
        "5001\n",  # the old bare-decimal format
        "not a checkpoint\n",
        "",
        '{"version": 2, "base": 2, "next": 5001}\n',
        '{"version": 1, "base": 2}\n',
        '{"version": 1, "next": 5001}\n',
    )
    for text in refused:
        cp.write_text(text)
        code, _, err = run(capsys, "scan", "wieferich", "--to", "6000", "--checkpoint", str(cp))
        assert code == 6 and str(cp) in err, text
    # every scan kind names itself and its parameters; another kind or parameter set is refused
    mismatched = (
        (("exceptions",), ("wieferich",)),
        (("wieferich",), ("exceptions",)),
        (("note4", "-k", "3"), ("note4", "-k", "4")),
    )
    for writer, reader in mismatched:
        cp.unlink()
        code, _, _ = run(capsys, "scan", *writer, "--to", "200", "--checkpoint", str(cp))
        assert code == 0 and cp.exists(), writer
        code, out, err = run(capsys, "scan", *reader, "--to", "400", "--checkpoint", str(cp))
        assert code == 6 and str(cp) in err and out == "", (writer, reader)


def test_scan_jobs_parity(monkeypatch, capsys):
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    # scan_primes imports the pool class from concurrent.futures when it starts a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    for argv in (
        ("scan", "wieferich", "--to", "4000"),
        ("scan", "exceptions", "--to", "2000"),
        ("scan", "note4", "--from", "50", "--to", "300", "-k", "3"),
        ("kp", "--to", "400"),
    ):
        pools.clear()
        _, seq, _ = run(capsys, *argv, "--jobs", "1", "--format", "jsonl")
        assert pools == [], argv
        _, par, _ = run(capsys, *argv, "--jobs", "2", "--format", "jsonl")
        assert seq == par and seq.count("\n") > 1, argv
        assert pools == [2], argv  # the second job really ran


def test_scan_resume_union_equals_cold_run(tmp_path, capsys):
    for kind in (("exceptions",), ("note4", "-k", "3")):
        cp = str(tmp_path / f"{kind[0]}.ckpt")
        _, first, _ = run(capsys, "scan", *kind, "--to", "200", "--checkpoint", cp, "--format", "jsonl")
        assert json.loads(open(cp).read())["next"] == 201
        _, second, _ = run(capsys, "scan", *kind, "--to", "600", "--checkpoint", cp, "--format", "jsonl")
        _, cold, _ = run(capsys, "scan", *kind, "--to", "600", "--format", "jsonl")
        assert first and second and first + second == cold, kind
        assert json.loads(second.splitlines()[0])["p"] > 200


def test_scan_honours_from(capsys):
    code, out, _ = run(capsys, "scan", "wieferich", "--from", "2000", "--to", "4000", "--format", "jsonl")
    assert code == 0 and [json.loads(line)["p"] for line in out.splitlines()] == [3511]


def test_flags_scoped_to_their_commands(capsys):
    for argv in (("divisors", "-p", "11", "--jobs", "2"), ("kp", "--table-bound", "5")):
        with pytest.raises(SystemExit) as e:
            main(list(argv))
        assert e.value.code == 6 and "unrecognized arguments" in capsys.readouterr().err, argv
    for argv in (("kp", "--to", "20"), ("scan", "exceptions", "--to", "20")):
        code, _, err = run(capsys, *argv, "--jobs", "0")
        assert code == 6 and "jobs" in err, argv


def test_divisors_command(capsys):
    code, out, _ = run(capsys, "divisors", "-p", "11")
    assert code == 0
    assert sum("exceptional" in line for line in out.splitlines()) == 2


def test_waring_3_16_under_default_bound(capsys):
    code, out, _ = run(capsys, "waring", "-p", "3", "-k", "16", "--format", "jsonl")
    assert code == 0
    summary = json.loads(out.splitlines()[0])
    assert summary["counts"] == {"1": 9565938, "2": 14348907, "3": 19131876, "4": 23914845}
    assert summary["theorem_holds"] is True
    assert summary["n0_covered_by3"] is False


def test_config_minimums_name_their_source(capsys):
    # a flag below its minimum is refused by the library before any work, naming the key
    commands = {
        "jobs": ("kp", "--to", "20"),
        "base": ("scan", "wieferich", "--to", "50"),
    }
    for key, least in {"jobs": 1, "base": 2}.items():
        for value in (least - 1, least):
            code, out, err = run(capsys, *commands[key], f"--{key}", str(value))
            if value < least:
                assert code == 6 and out == "" and key in err, (key, value, err)
            else:
                assert code == 0 and out, (key, value, err)


def test_scan_refuses_flags_its_kind_does_not_read(capsys):
    for argv, flag in (
        (("scan", "exceptions", "--to", "50", "--base", "3"), "--base 3"),
        (("scan", "note4", "--to", "50", "--base", "3"), "--base 3"),
        (("scan", "wieferich", "--to", "50", "-k", "9"), "-k 9"),
        (("scan", "exceptions", "--to", "50", "-k", "3"), "-k 3"),
    ):
        with pytest.raises(SystemExit) as e:
            main(list(argv))
        out, err = capsys.readouterr()
        assert e.value.code == 6 and out == "" and f"unrecognized arguments: {flag}" in err, (argv, err)
    # each kind's options follow the kind: an option before it is read by no parser
    with pytest.raises(SystemExit) as e:
        main(["scan", "--format", "jsonl", "wieferich", "--to", "50"])
    assert e.value.code == 6 and capsys.readouterr().out == ""


def test_scan_options_before_the_kind_name_their_order(capsys):
    for argv, hint in (
        (["scan", "--to", "50", "wieferich"], "pkcore scan wieferich --to 50"),
        (["scan", "--format=jsonl", "note4", "--to", "50"], "pkcore scan note4 --format=jsonl --to 50"),
        (["scan", "--to", "50"], "pkcore scan {wieferich,exceptions,note4} --to 50"),
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        out, err = capsys.readouterr()
        assert e.value.code == 6 and out == "", argv
        assert err.endswith(f"pkcore scan: error: options follow the kind: {hint}\n"), err
    # help and an unknown kind keep argparse's own text
    with pytest.raises(SystemExit) as e:
        main(["scan", "bogus", "--to", "5"])
    assert e.value.code == 6 and "argument kind: invalid choice: 'bogus'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as e:
        main(["scan", "-h"])
    assert e.value.code == 0 and "{wieferich,exceptions,note4}" in capsys.readouterr().out


def test_every_cli_call_matches_its_golden_line():
    spec = importlib.util.spec_from_file_location("cli_digest", Path(__file__).parents[1] / "tools" / "cli_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    want = [json.loads(line) for line in digest.GOLDEN.read_text().splitlines()]
    got = digest.golden_lines()
    assert [(line["argv"], line["format"]) for line in got] == [(line["argv"], line["format"]) for line in want]
    differ = [" ".join(w["argv"] + ["--format", w["format"]]) for w, g in zip(want, got) if w != g]
    assert not differ, f"output changed for {len(differ)} calls: {differ}"


def test_output_is_a_function_of_argv(tmp_path, monkeypatch, capsys):
    # variables and config files named like settings change nothing: argv alone decides
    calls = (("core", "-p", "5", "-k", "2"), ("kp", "--to", "20"), ("scan", "wieferich", "--to", "4000"))
    for key in [key for key in os.environ if key.startswith("PKCORE_")]:
        monkeypatch.delenv(key)
    clean = [run(capsys, *argv)[:2] for argv in calls]
    assert all(code == 0 and out for code, out in clean)
    settings = "format=csv\njobs=0\n"
    named = tmp_path / "named.conf"
    named.write_text(settings)
    (tmp_path / "pkcore.conf").write_text(settings)
    for key, value in (("FORMAT", "csv"), ("JOBS", "0"), ("BASE", "1"), ("CONFIG", str(named))):
        monkeypatch.setenv(f"PKCORE_{key}", value)
    monkeypatch.chdir(tmp_path)
    assert [run(capsys, *argv)[:2] for argv in calls] == clean


def test_scan_note4_k_defaults_to_3(tmp_path, capsys):
    code, bare, _ = run(capsys, "scan", "note4", "--to", "60", "--format", "jsonl")
    _, three, _ = run(capsys, "scan", "note4", "--to", "60", "-k", "3", "--format", "jsonl")
    assert code == 0 and bare.count("\n") > 1 and bare == three
    # so a checkpoint written without -k is resumed by -k 3
    cp = str(tmp_path / "note4.ckpt")
    run(capsys, "scan", "note4", "--to", "60", "--checkpoint", cp)
    assert run(capsys, "scan", "note4", "--to", "90", "-k", "3", "--checkpoint", cp)[0] == 0


def test_increments_huge_i_is_clamped(capsys):
    # e_i stops changing at i = k-1, so --i 10^9 costs what --i 2 does
    _, want, _ = run(capsys, "increments", "-p", "11", "-k", "3", "--i", "2", "--format", "jsonl")
    start = time.perf_counter()
    code, got, _ = run(capsys, "increments", "-p", "11", "-k", "3", "--i", "1000000000", "--format", "jsonl")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    strip = lambda out: [{k: v for k, v in json.loads(line).items() if k != "i"} for line in out.splitlines()]
    assert strip(got) == strip(want)


def _run_from_source(*args):
    """A fresh interpreter with the source tree first on its path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_python_m_pkcore_matches_main():
    # python -m pkcore runs from the source tree, without an install
    argv = ["kp", "--to", "50"]
    proc = _run_from_source("-m", "pkcore", *argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out.getvalue() and "47" in proc.stdout


def test_importing_pkcore_main_runs_nothing():
    # tools that import every module of the package (perfbench's tracer) must not start the CLI
    importlib.import_module("pkcore.__main__")


def test_import_leaves_pool_stack_unloaded():
    # the process-pool stack loads only when a scan starts a pool of 2+ workers
    proc = _run_from_source("-c", """
import sys
import pkcore, pkcore.cli
print([m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules])
from pkcore.generators import wieferich_scan
print(wieferich_scan(4000, jobs=2), "concurrent.futures" in sys.modules)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[1093, 3511] True"]

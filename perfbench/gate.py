"""Answer gate: invoke one call on pkcore and check its result.

Each kind has an invoker, which is the only code inside the timed region,
and a checker, which compares the result against the call's expected
answer (built by workloads.py) using independent arithmetic only: F
membership by the order test x^|F| = 1, multiplicative orders by
certificate. A checker returns None when the answer is right, else a
one-line reason.
"""

from __future__ import annotations

import contextlib
import io
import json


def in_f(x: int, p: int, k: int) -> bool:
    """x is a p-th power unit mod p^k: a unit whose |F|-th power is 1."""
    return x % p != 0 and pow(x, (p - 1) * p ** (k - 2), p ** k) == 1


def order_certified(g: int, order: int, m: int, group: int, group_primes: list[int]) -> bool:
    """order is the exact multiplicative order of g mod m, group the group order."""
    if order < 1 or group % order or pow(g, order, m) != 1:
        return False
    return all(order % q or pow(g, order // q, m) != 1 for q in group_primes)


def _witness_error(parts, x: int, p: int, k: int, size: int) -> str | None:
    if len(parts) != size:
        return f"witness for {x} has {len(parts)} summands, want {size}"
    if sum(parts) % p ** k != x:
        return f"witness {parts} does not sum to {x}"
    if not all(in_f(v, p, k) for v in parts):
        return f"witness {parts} for {x} has a summand outside F"
    return None


def _bits(mask: int) -> list[int]:
    s = bin(mask)[:1:-1]  # least significant bit first
    return [i for i, c in enumerate(s) if c == "1"]


# --- cells ----------------------------------------------------------------


def check_sumset(r, args, expect):
    p, k = args
    m = p ** k
    if r.counts[1] != expect["f_size"] or r.masks[1].bit_count() != expect["f_size"]:
        return f"|F| = {r.counts[1]}, want {expect['f_size']}"
    if not all(in_f(x, p, k) for x in _bits(r.masks[1])):
        return "level 1 holds a residue outside F"
    if any(r.counts[t] != r.masks[t].bit_count() for t in r.masks):
        return "level counts disagree with the level masks"
    if r.masks[3] | r.masks[4] != (1 << m) - 1 or not r.theorem_holds:
        return "F+3 and F+4 do not cover Z/p^k"
    if r.n0_covered_by3 != expect["n0_covered_by3"]:
        return f"n0_covered_by3 = {r.n0_covered_by3}, want {expect['n0_covered_by3']}"
    for x, parts in r.witness_decompositions.items():
        if not r.masks[len(parts)] >> x & 1:
            return f"witness residue {x} is not in F+{len(parts)}"
        err = _witness_error(parts, x, p, k, len(parts))
        if err:
            return err
    return None


def check_multiples(r, args, expect):
    p, k = args
    missing = expect["missing"]
    if list(r.missing) != missing:
        return f"missing multiples {list(r.missing)[:8]}..., want {missing[:8]}..."
    if r.all_covered != (not missing):
        return "all_covered disagrees with the missing list"
    if r.first_shell_covered != expect["first_shell_covered"]:
        return f"first_shell_covered = {r.first_shell_covered}"
    if r.missing_in_two_sums != expect["missing_in_two_sums"]:
        return f"missing_in_two_sums = {r.missing_in_two_sums}"
    gaps = set(missing)
    covered = [x for x in range(p, p ** k, p) if x not in gaps]
    if sorted(r.witnesses) != covered:
        return "witnesses do not cover exactly the covered multiples"
    for x in covered:
        err = _witness_error(r.witnesses[x], x, p, k, 3)
        if err:
            return err
    return None


def check_fermat(r, args, expect):
    if not r.observed == r.predicted == expect["observed"]:
        return f"observed {r.observed}, predicted {r.predicted}, want {expect['observed']}"
    if r.nonunit_nonzero != expect["nonunit_nonzero"]:
        return f"nonunit_nonzero {r.nonunit_nonzero}, want {expect['nonunit_nonzero']}"
    return None


def check_extension(r, args, expect):
    if r.e != args[2] or not r.passed:
        return f"extension check e={args[2]} did not pass"
    if not r.unit_sum_count == r.coset_union_count == expect["count"]:
        return f"counts {r.unit_sum_count}/{r.coset_union_count}, want {expect['count']}"
    return None


def check_corepairs(r, args, expect):
    want = (expect["count"], expect["count"])
    return None if tuple(r) == want else f"core pairsums {tuple(r)}, want {want}"


# --- primes ---------------------------------------------------------------


def check_kp(r, args, expect):
    (p,) = args
    if r.p != p or r.kp != expect["kp"]:
        return f"K_{p} = {r.kp}, want {expect['kp']}"
    if r.distinct_counts.get(r.kp) != (p - 1) // 2:
        return f"K_{p} profile does not reach h distinct increments"
    return None


def check_audit(r, args, expect):
    (p,) = args
    p2, p3 = p * p, p ** 3
    if [a.r for a in r] != expect["rs"]:
        return f"audited divisors of {p}^2-1 differ from the divisor list"
    for a in r:
        if a.is_core_mod_p3:
            return f"divisor {a.r} of {p}^2-1 reported core mod p^3"
        if a.r * a.cofactor != p2 - 1:
            return f"cofactor of {a.r} is wrong"
        if a.is_core_mod_p2 != (pow(a.r, p, p2) == a.r % p2):
            return f"core mod p^2 flag of {a.r} is wrong"
        if a.sign_trivial != (a.r % p2 in (1, p2 - 1)):
            return f"sign_trivial flag of {a.r} is wrong"
        group = (p - 1) * p2
        if a.r % p == 0:
            ok = a.order_in_g3 == 0
        else:
            ok = order_certified(a.r % p3, a.order_in_g3, p3, group, expect["group_primes"])
        if not ok:
            return f"order of {a.r} mod {p}^3 is not {a.order_in_g3}"
    return None


def check_survey(r, args, expect):
    p, k = args
    m = p ** k
    full = (p - 1) * p ** (k - 1)
    if [v.g for v in r.verdicts] != expect["gs"]:
        return f"surveyed generators for {p} differ from the divisors of p-1 and p+1"
    for v in r.verdicts:
        if not order_certified(v.g % m, v.order, m, full, expect["group_primes"]):
            return f"order of {v.g} mod {p}^{k} is not {v.order}"
        klass = "primitiveRoot" if v.order == full else "halfGroupNoMinusOne" if 2 * v.order == full else "other"
        if v.klass != klass:
            return f"class of {v.g} is {v.klass}, want {klass}"
        if v.minus_one_in_cycle != (v.order % 2 == 0 and pow(v.g, v.order // 2, m) == m - 1):
            return f"minus_one_in_cycle of {v.g} is wrong"
    if r.satisfied != any(v.klass != "other" for v in r.verdicts):
        return "satisfied disagrees with the verdicts"
    return None


def check_exceptions(r, args, expect):
    got = [list(x) for x in r]
    return None if got == expect["pairs"] else f"exception pairs differ: {got[:5]}..."


def check_wieferich(r, args, expect):
    return None if list(r) == expect["hits"] else f"Wieferich hits {list(r)}, want {expect['hits']}"


# --- queries (cli) --------------------------------------------------------


def _rows(r):
    rc, out = r
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def check_decompose(r, args, expect):
    (row,) = _rows(r)
    p, k, x = expect["p"], expect["k"], expect["residue"]
    if row["residue"] != x or row["level"] != expect["level"]:
        return f"{x} at level {row['level']}, want {expect['level']}"
    return _witness_error(row["summands"], x, p, k, expect["level"])


def check_core(r, args, expect):
    rows = _rows(r)
    for field in ("core", "carry", "increment"):
        if [row[field] for row in rows] != expect[field]:
            return f"core table column {field} differs"
    return None


def check_pairsums(r, args, expect):
    core_row, pth_row = _rows(r)
    if not core_row["observed"] == core_row["predicted"] == expect["core"]:
        return f"core pairsums {core_row['observed']}, want {expect['core']}"
    if not pth_row["observed"] == pth_row["predicted"] == expect["pth_units"]:
        return f"p-th power pairsums {pth_row['observed']}, want {expect['pth_units']}"
    if pth_row["nonunit_nonzero"] != expect["pth_nonunit"]:
        return "non-unit p-th power pairsums differ"
    return None


def check_divisors(r, args, expect):
    rows = _rows(r)
    q = expect["p"]
    if [row["r"] for row in rows] != expect["rs"]:
        return f"divisors of {q}^2-1 differ"
    if any(row["core_mod_p3"] or row["r"] * row["cofactor"] != q * q - 1 for row in rows):
        return f"a divisor of {q}^2-1 is reported core mod p^3 or has a wrong cofactor"
    return None


def run_cli(pk, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pk.cli.main(argv)
    return rc, out.getvalue()


# kind -> (invoker(pk, args), checker(result, args, expect)); pk holds the
# pkcore modules, so calls go through module attributes (and so through
# the trace wrappers when they are installed).
KINDS = {
    "sumset": (lambda pk, a: pk.waring.sumset_levels(pk.modring.make_modulus(*a), 4), check_sumset),
    "multiples": (lambda pk, a: pk.waring.verify_multiples_of_p(pk.modring.make_modulus(*a)), check_multiples),
    "fermat": (lambda pk, a: pk.pairsums.fermat_pairsum_count(pk.modring.make_modulus(*a)), check_fermat),
    "extension": (
        lambda pk, a: pk.pairsums.extension_pairsum_check(pk.modring.make_modulus(a[0], a[1]), a[2]),
        check_extension,
    ),
    "corepairs": (lambda pk, a: pk.pairsums.core_pairsum_count(pk.modring.make_modulus(*a)), check_corepairs),
    "kp": (lambda pk, a: pk.corefst.critical_precision(*a), check_kp),
    "audit": (lambda pk, a: pk.generators.audit_divisors(*a), check_audit),
    "survey": (lambda pk, a: pk.generators.survey_pm1_generators(*a), check_survey),
    "exceptions": (lambda pk, a: pk.generators.exception_scan(*a), check_exceptions),
    "wieferich": (lambda pk, a: pk.generators.wieferich_scan(a[0], jobs=1), check_wieferich),
    "decompose": (run_cli, check_decompose),
    "core": (run_cli, check_core),
    "pairsums": (run_cli, check_pairsums),
    "divisors": (run_cli, check_divisors),
}

"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: direct searches, exhaustive set
construction, sympy for number theory primitives. Slow is fine; these
run on small parameters and exist so the fast paths in pkcore are never
the only route to a value.
"""

from __future__ import annotations

import itertools
import json

import sympy


def naive_core_element(p: int, k: int, n: int) -> int:
    """The unique x = n (mod p) with x^p = x (mod p^k), found by scan."""
    m = p**k
    for x in range(n % p, m, p):
        if pow(x, p, m) == x % m:
            return x
    raise AssertionError(f"no core element for n={n} mod {p}^{k}")


def core_by_recurrence(p: int, n: int, k: int) -> int:
    """A_k(n) by the digit-gaining ladder: one p-th power per precision.

    Each step computes f_i = f_{i-1}^p mod p^(i+1); congruence mod p^i
    determines the p-th power mod p^(i+1), so every step fixes the known
    digits and produces exactly one new one. k-1 small powerings, no
    power table: the reference the core table is compared with.
    """
    assert 1 <= n < p and k >= 1, (p, n, k)
    f = n
    for i in range(1, k):
        f = pow(f, p, p ** (i + 1))
    return f


def recurrence_step_identity(p: int, n: int, i: int) -> bool:
    """The paper's carry recurrence n^(p^i) = n^(p^(i-1)) * (n'p^i + 1) mod
    p^(i+1), with the carry n' read off pkcore's core table of p^2.

    The identity relates full-precision values: the first factor must be
    carried at the target precision p^(i+1). Truncating it to p^i digits
    loses the top digit of the product, which is why the generation
    ladder uses p-th powers instead of carry multiplies.
    """
    # imported here: perfbench's harness imports this module without pkcore
    from pkcore.corefst import build_core_table
    from pkcore.modring import make_modulus

    assert 1 <= n < p, (p, n)
    carry = build_core_table(make_modulus(p, 2)).carries[n - 1]
    m = p ** (i + 1)
    return pow(n, p**i, m) == pow(n, p ** (i - 1), m) * (carry * p**i + 1) % m


def naive_core_set(p: int, k: int) -> set[int]:
    m = p**k
    return {x for x in range(1, m) if x % p and pow(x, p - 1, m) == 1}


def naive_pth_powers(p: int, k: int) -> set[int]:
    m = p**k
    return {pow(x, p, m) for x in range(1, m) if x % p}


def naive_order(a: int, m: int) -> int:
    return sympy.n_order(a, m)


def naive_base_p_decode(s: str, p: int) -> int:
    """The int a base_p_encode string stands for: digits 0-9a-z, or dot groups when p > 36."""
    digits = [int(d) for d in s.split(".")] if p > 36 else [int(ch, 36) for ch in s]
    return sum(d * p**i for i, d in enumerate(reversed(digits)))


def naive_pairsums(values: set[int], m: int) -> set[int]:
    return {(a + b) % m for a, b in itertools.combinations_with_replacement(values, 2)}


def naive_unit_pairsums(values: set[int], p: int, m: int) -> set[int]:
    return {s for s in naive_pairsums(values, m) if s % p}


def naive_critical_precision(p: int, guard: int = 50) -> int:
    """Smallest k with pairwise distinct first-half increments, by modular
    powers only (no exact integer route, unlike the library)."""
    h = (p - 1) // 2
    for k in itertools.count(2):
        if k > guard:
            raise AssertionError(f"no critical precision below guard for p={p}")
        m = p**k
        e1 = [(pow(n + 1, p, m) - pow(n, p, m)) % m for n in range(1, h + 1)]
        if len(set(e1)) == h:
            return k


def exact_critical_precision(p: int) -> tuple[int, dict[int, int], dict[int, tuple[int, int]]]:
    """(K_p, distinct counts per k, one colliding pair per pre-critical k)
    from the exact integers e_1(n) = (n+1)^p - n^p, about p*log10(p)
    digits each. For each k the pair is (latest earlier n with the same
    residue, n) at the first repeat, scanning n = 1..h ascending."""
    h = (p - 1) // 2
    e1 = [(n + 1) ** p - n**p for n in range(1, h + 1)]
    counts, witnesses = {}, {}
    for k in range(2, p + 1):
        m = p**k
        seen, collision = {}, None
        for n, v in enumerate(e1, start=1):
            if v % m in seen and collision is None:
                collision = (seen[v % m], n)
            seen[v % m] = n
        counts[k] = len(seen)
        if counts[k] == h:
            return k, counts, witnesses
        witnesses[k] = collision
    raise AssertionError(f"no critical precision below p for p={p}")


def naive_integer_increments(p: int, i: int, k: int) -> list[int]:
    """e_i(n) = (n+1)^(p^i) - n^(p^i) mod p^k for n = 1..p-1, at the given i."""
    m = p**k
    return [(pow(n + 1, p**i, m) - pow(n, p**i, m)) % m for n in range(1, p)]


def naive_fst_carry(p: int, n: int) -> int:
    r = pow(n, p - 1, p * p)
    assert r % p == 1
    return (r - 1) // p


def naive_wieferich(p: int, base: int = 2) -> bool:
    return pow(base, p, p * p) == base % (p * p)


def naive_audit_divisors(p: int) -> list[dict]:
    """The fields of generators.DivisorAudit for every divisor r > 1 of
    p^2-1, ascending: one pow mod p^3 per divisor and sympy's order."""
    p2, p3 = p * p, p**3
    out = []
    for r in naive_divisors(p2 - 1)[1:]:
        rp3 = pow(r, p, p3)
        rp2 = rp3 % p2
        out.append({
            "p": p,
            "r": r,
            "cofactor": (p2 - 1) // r,
            "order_in_g3": naive_order(r, p3),
            "is_core_mod_p2": rp2 == r % p2,
            "is_core_mod_p3": rp3 == r % p3,
            "sign_trivial": r % p2 in (1, p2 - 1),
        })
    return out


def naive_survey_pm1_generators(p: int, k: int) -> tuple[list[dict], bool]:
    """(verdict fields per divisor g > 1 of p-1 or p+1, ascending; satisfied),
    with sympy's order and -1 in the cycle tested as g^(t/2) = -1."""
    m, full = p**k, (p - 1) * p ** (k - 1)
    verdicts = []
    for g in sorted({g for n in (p - 1, p + 1) for g in naive_divisors(n) if g > 1}):
        t = naive_order(g % m, m)
        klass = "primitiveRoot" if t == full else "halfGroupNoMinusOne" if 2 * t == full else "other"
        minus_one = t % 2 == 0 and pow(g, t // 2, m) == m - 1
        verdicts.append({"p": p, "k": k, "g": g, "order": t, "klass": klass, "minus_one_in_cycle": minus_one})
    return verdicts, any(v["klass"] != "other" for v in verdicts)


# The walks pkcore.generators took before it read orders off r^(p-1) mod p^2:
# the divisor lattice mod p^3 for the audit and mod p^k for the survey, every
# order by split_order and both audit core flags from r^p mod p^3.


def p3_lattice_audit_divisors(p: int, assert_non_core: bool = True) -> list:
    """generators.audit_divisors's DivisorAudit records, from the lattice mod p^3."""
    # imported here: perfbench's harness imports this module without pkcore
    from pkcore.errors import CheckFailure
    from pkcore.generators import DivisorAudit, _divisor_powers, _p2_minus_1_factorization
    from pkcore.modring import core_order, make_modulus, split_order

    make_modulus(p, 3)
    n, p2, p3 = p * p - 1, p * p, p**3
    partner, audits = {}, []
    for r, w in sorted(_divisor_powers(p, _p2_minus_1_factorization(p), p3))[1:]:
        s = n // r
        d = partner.pop(r, 0)
        if not d:
            d = core_order(p, r)
            partner[s] = 2 * d if d & 1 else d // 2 if d & 3 == 2 else d
        rp3, r2 = w * r % p3, r % p2
        audit = DivisorAudit(p, r, s, split_order(p, 3, d, w), rp3 % p2 == r2, rp3 == r % p3, r2 in (1, p2 - 1))
        if assert_non_core and audit.is_core_mod_p3:
            raise CheckFailure(f"divisor {r} of {p}^2-1 is core mod {p}^3")
        audits.append(audit)
    return audits


def pk_lattice_survey_pm1_generators(p: int, k: int):
    """generators.survey_pm1_generators's GeneratorSurvey, from the lattices mod p^k."""
    from pkcore.generators import GeneratorSurvey, GeneratorVerdict, _divisor_powers
    from pkcore.modring import core_order, make_modulus, split_order
    from pkcore.primes import factorize

    mod = make_modulus(p, k)
    m, full = mod.modulus, mod.units_order
    powers = dict(_divisor_powers(p, factorize(p - 1), m) + _divisor_powers(p, factorize(p + 1), m))
    verdicts = []
    for g in sorted(powers)[1:]:
        order = split_order(p, k, core_order(p, g), powers[g])
        klass = "primitiveRoot" if order == full else "halfGroupNoMinusOne" if order * 2 == full else "other"
        verdicts.append(GeneratorVerdict(p, k, g, order, klass, order % 2 == 0))
    return GeneratorSurvey(p, k, tuple(verdicts), any(v.klass != "other" for v in verdicts))


def naive_sum_levels(p: int, k: int, t_max: int = 4) -> dict[int, set[int]]:
    """t-fold sumsets of the p-th power residues, exhaustively."""
    m = p**k
    f = sorted(naive_pth_powers(p, k))
    levels = {1: set(f)}
    for t in range(2, t_max + 1):
        levels[t] = {(a + b) % m for a in levels[t - 1] for b in f}
    return levels


def naive_divisors(n: int) -> list[int]:
    return sorted(sympy.divisors(n))


def naive_exception_scan(p_min: int, p_max: int) -> list[tuple[int, int]]:
    """(p, smallest r) with r^p = r mod p^2, over divisors 1 < r < p^2-1."""
    out = []
    for p in range(max(p_min, 3), p_max + 1):
        if not naive_is_prime(p):
            continue
        pp = p * p
        for r in naive_divisors(pp - 1)[1:-1]:
            if pow(r, p, pp) == r:
                out.append((p, r))
                break
    return out


def naive_is_prime(n: int) -> bool:
    return sympy.isprime(n)


def naive_factorint(n: int) -> dict[int, int]:
    return dict(sympy.factorint(n))


# --- shift-or bitset sumsets over the whole ring -------------------------
# The route pkcore.waring took before it reduced F+t to precision 2: F is
# built by one pow per unit, level t+1 is the cyclic convolution of level t
# with F by shift-or over [0, p^k), and witnesses scan F ascending.


def bitset_levels(p: int, k: int, t_max: int = 4) -> tuple[list[int], dict[int, int]]:
    """F ascending, and level t -> bitset over [0, p^k) of F+t for t = 1..t_max."""
    m = p**k
    f = sorted(naive_pth_powers(p, k))
    full = (1 << m) - 1
    levels = {1: sum(1 << v for v in f)}
    for t in range(2, t_max + 1):
        prev, out = levels[t - 1], 0
        for v in f:
            out |= ((prev << v) | (prev >> (m - v))) & full
        levels[t] = out
    return f, levels


def bitset_witness(f: list[int], m: int, levels: dict[int, int], x: int, t: int) -> tuple[int, ...] | None:
    """The t summands chosen by scanning F (ascending list f) at each
    level, or None when x is not in F+t mod m."""
    x %= m
    if not levels[t] >> x & 1:
        return None
    parts = []
    rem = x
    for lvl in range(t, 1, -1):
        v = next(v for v in f if levels[lvl - 1] >> ((rem - v) % m) & 1)
        parts.append(v)
        rem = (rem - v) % m
    return (*parts, rem)


def bitset_coverage(p: int, k: int, t_max: int = 4) -> dict:
    """The fields of waring.CoverageReport, from the bitset levels."""
    m = p**k
    f, levels = bitset_levels(p, k, t_max)
    n0 = 0
    for x in range(p, m, p):
        n0 |= 1 << x
    witnesses = {}
    for t in range(2, t_max + 1):
        probe = (levels[t] & -levels[t]).bit_length() - 1
        witnesses[probe] = bitset_witness(f, m, levels, probe, t)
    return {
        "masks": levels,
        "counts": {t: mask.bit_count() for t, mask in levels.items()},
        "theorem_holds": levels[3] | levels[4] == (1 << m) - 1,
        "n0_covered_by3": levels[3] & n0 == n0,
        "conjecture_f3_in_f4": levels[3] & ~levels[4] == 0,
        "disjoint_f3_f4": levels[3] & levels[4] == 0,
        "witness_decompositions": witnesses,
    }


def bitset_multiples(p: int, k: int) -> dict:
    """The fields of waring.MultiplesReport, from the bitset levels."""
    m = p**k
    f, levels = bitset_levels(p, k, 3)
    missing = [x for x in range(p, m, p) if not levels[3] >> x & 1]
    return {
        "all_covered": not missing,
        "first_shell_covered": all(x % (p * p) == 0 for x in missing),
        "missing": tuple(missing),
        "missing_in_two_sums": all(levels[2] >> x & 1 for x in missing),
        "witnesses": {
            x: bitset_witness(f, m, levels, x, 3) for x in range(p, m, p) if levels[3] >> x & 1
        },
    }


# The walk pkcore.waring.verify_multiples_of_p took before it went one class
# mod q at a time: one ascending pass over the multiples of p, each class's
# prefix searched when the class is first seen, and every summand tested for
# F by its order, x^|F| = 1 mod p^k with |F| = (p-1)*p^(k-2).


def per_x_multiples(p: int, k: int) -> dict:
    """The fields of waring.MultiplesReport, by the per-multiple walk."""
    # imported here: perfbench's harness imports this module without pkcore
    from pkcore import waring
    from pkcore.modring import make_modulus

    mod = make_modulus(p, k)
    m, f_order = p**k, (p - 1) * p ** (k - 2)
    small = waring.reduced_sumsets(mod, 3)
    q, _, levels = small
    missing, witnesses, prefixes = [], {}, {}
    for x in range(p, m, p):
        r = x % q
        if levels[2] >> r & 1:
            if r not in prefixes:
                prefixes[r] = waring._witness_prefix(mod, small, r)
                assert all(pow(v, f_order, m) == 1 for v in prefixes[r]), (p, k, r)
            v1, v2 = prefixes[r]
            last = (x - v1 - v2) % m
            assert pow(last, f_order, m) == 1, (p, k, x)
            witnesses[x] = (v1, v2, last)
        else:
            missing.append(x)
    return {
        "all_covered": not missing,
        "first_shell_covered": all(x % (p * p) == 0 for x in missing),
        "missing": tuple(missing),
        "missing_in_two_sums": all(levels[1] >> (x % q) & 1 for x in missing),
        "witnesses": witnesses,
    }


def fermat_pairsum_counts(p: int, k: int) -> tuple[int, int]:
    """(unit sums, nonzero non-unit sums) in F+F, from the bitset of F+F."""
    m = p**k
    bits = bin(bitset_levels(p, k, 2)[1][2])[:1:-1].ljust(m, "0")  # bits[x] == "1" iff x in F+F
    units = sum(1 for x in range(m) if bits[x] == "1" and x % p)
    nonunit_nonzero = sum(1 for x in range(p, m, p) if bits[x] == "1")
    return units, nonunit_nonzero


def naive_extension_members(p: int, k: int, e: int) -> set[int]:
    """X^(e) = A_k * Y^(e) by the product construction, |X^(e)| = (p-1)*p^e:
    every core element times every 1 + j*p^(k-e), j < p^e."""
    m = p**k
    step = p ** (k - e)
    return {a * (1 + j * step) % m for a in naive_core_set(p, k) for j in range(p**e)}


def naive_extension_pairsum_check(p: int, k: int, e: int) -> tuple[bool, int, int]:
    """(passed, unit_sum_count, coset_union_count) for X = X^(e) by the
    pair loop: the unit sums of X+X against the union of the cosets X*d,
    d running over the increments A(n+1) - A(n), n = 1..p-2."""
    m = p**k
    core = {x % p: x for x in naive_core_set(p, k)}  # n -> A_k(n)
    x = naive_extension_members(p, k, e)
    increments = {(core[n + 1] - core[n]) % m for n in range(1, p - 1)}
    units = naive_unit_pairsums(x, p, m)
    union = {v * d % m for d in increments for v in x}
    return units == union, len(units), len(union)


def naive_render_jsonl(report) -> str:
    """The jsonl of a pkcore.cli.Report, one json.dumps per record (schema 1)."""
    meta = {"schema_version": 1, "command": report.command, "p": report.p, "k": report.k}
    return "".join(json.dumps(meta | row) + "\n" for row in report.rows or [{"rows": 0}])

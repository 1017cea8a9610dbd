import dataclasses
import itertools
import random
from array import array

import pytest

import oracles
from pkcore import corefst, primes, waring
from pkcore.corefst import build_core_table, critical_precision, integer_increments
from pkcore.errors import CheckFailure, NotPrime, OutOfRange
from pkcore.modring import base_p_encode, make_modulus
from pkcore.pairsums import core_pairsum_count, extension_pairsum_check
from pkcore.waring import reduced_sumsets


def enc(x, p, k):
    return base_p_encode(make_modulus(p, k), x)


def test_fst_carry_golden():
    carries = build_core_table(make_modulus(11, 2)).carries
    assert (carries[3], carries[4], carries[5]) == (10, 7, 5)
    # tail digits of n^(p-1) mod p^2 written base p are <carry>1
    for n, digits in [(4, "a1"), (5, "71"), (6, "51")]:
        assert enc(pow(n, 10, 121), 11, 2) == digits


def test_fst_carry_matches_oracle():
    # the carry is n^(p-1) mod p^2, so every precision's table holds the same one
    rng = random.Random(3)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13, 101])
        n = rng.randint(1, p - 1)
        k = rng.randint(1, 4)
        assert build_core_table(make_modulus(p, k)).carries[n - 1] == oracles.naive_fst_carry(p, n)


def test_recurrence_vs_direct_and_scan():
    # the ladder oracle, the direct power and the scan agree with the table
    for p in (3, 5, 7, 11, 13):
        for k in (1, 2, 3, 4):
            table = build_core_table(make_modulus(p, k))
            for n in range(1, p):
                got = oracles.core_by_recurrence(p, n, k)
                assert got == pow(n, p ** (k - 1), p**k) == table.core[n - 1]
                assert got == oracles.naive_core_element(p, k, n)


def test_step_identity():
    for p in (3, 5, 7, 11, 13):
        for n in range(1, p):
            for i in (1, 2, 3):
                assert oracles.recurrence_step_identity(p, n, i), (p, n, i)


def test_step_identity_fails_on_a_wrong_carry(monkeypatch):
    # a carry off by one changes the right side by n^(p^(i-1)) * p^i, a
    # nonzero multiple of p^i mod p^(i+1); a check mod a lower power of p
    # would not see it
    real = corefst.build_core_table

    def carries_off_by_one(mod):
        table = real(mod)
        return dataclasses.replace(table, carries=tuple((c + 1) % mod.p for c in table.carries))

    monkeypatch.setattr(corefst, "build_core_table", carries_off_by_one)
    for p in (3, 5, 7, 11, 13):
        for n in range(1, p):
            for i in (1, 2, 3):
                assert not oracles.recurrence_step_identity(p, n, i), (p, n, i)


def test_core_table_11_3_golden():
    table = build_core_table(make_modulus(11, 3))
    assert [enc(x, 11, 3) for x in table.core] == [
        "001", "4a2", "103", "974", "525", "586", "137", "9a8", "609", "aaa",
    ]
    assert table.carries == (0, 5, 0, 10, 7, 5, 2, 4, 0, 1)
    assert [enc(x, 11, 3) for x in table.increments] == [
        "001", "4a1", "711", "871", "661", "061", "661", "871", "711", "4a1", "001",
    ]
    # K_11 = 3, so the h = 5 first-half increments are distinct
    d3 = sorted(enc(x, 11, 3) for x in table.distinct_increments)
    assert d3 == ["061", "4a1", "661", "711", "871"]


def test_core_table_built_once_per_modulus():
    mod = make_modulus(13, 3)
    table = build_core_table(mod)
    assert build_core_table(mod) is table
    assert build_core_table(make_modulus(13, 3)) is table  # equal descriptors share it
    assert build_core_table(make_modulus(13, 2)) is not table


def test_distinct_increments_match_naive():
    """Every per-n table against a route that makes no power table, for
    every p < 400 and k <= 4: the core and increments against the ladder,
    the carries against naive_fst_carry, e_i against one pow per n, and
    A_q against the ladder at precision min(k, 2) and, where p^k <= 2*10^4,
    against all p-th powers of units mod p^k reduced mod q.

    D_k is the set of all of d_k(1..p-2), not only of the first half, and
    has the naive size. naive_core_element scans the p^(k-1) lifts of n, so
    the naive count runs below p = 101 where p^k <= 10^6 (every k <= 3, and
    k = 4 up to p = 31); every cell with k >= 2 checks |D_k| = h exactly
    from k = K_p on."""
    for p in (q for q in range(3, 400) if oracles.naive_is_prime(q)):
        h = (p - 1) // 2
        kp = oracles.naive_critical_precision(p)
        carries = tuple(oracles.naive_fst_carry(p, n) for n in range(1, p))
        ladders = {}
        for k in (1, 2, 3, 4):
            m = p**k
            table = build_core_table(make_modulus(p, k))
            ladders[k] = [0] + [oracles.core_by_recurrence(p, n, k) for n in range(1, p)] + [0]
            assert table.core == tuple(ladders[k][1:p]) and table.carries == carries, (p, k)
            assert table.increments == tuple((b - a) % m for a, b in zip(ladders[k], ladders[k][1:])), (p, k)
            dk = table.distinct_increments
            assert dk == set(table.increments[1 : p - 1]), (p, k)
            assert k == 1 or (len(dk) == h) == (k >= kp), (p, k)
            if p < 101 and m <= 10**6:
                core = [oracles.naive_core_element(p, k, n) for n in range(1, h + 2)]
                assert len(dk) == len({(b - a) % m for a, b in zip(core, core[1:])}), (p, k)
            q, base, _ = reduced_sumsets(make_modulus(p, k), 1)
            assert (q, base) == (p ** min(k, 2), tuple(sorted(ladders[min(k, 2)][1:p]))), (p, k)
            if m <= 2 * 10**4:
                assert set(base) == {x % q for x in oracles.naive_pth_powers(p, k)}, (p, k)
            for i in (1, 2, 5):
                assert integer_increments(p, i, k) == oracles.naive_integer_increments(p, i, k), (p, i, k)


def test_core_table_cached_once_per_cell():
    # X^(e) reads the table of p^(k-e), and the core count that of
    # p^min(k, K_p): at 11^4 (K_11 = 3) the core count and e = 1, however
    # often, share the table of 11^3, and e = 0 adds the one table of 11^4
    mod = make_modulus(11, 4)
    corefst._core_table.cache_clear()
    core_pairsum_count(mod)
    extension_pairsum_check(mod, 1)
    extension_pairsum_check(mod, 1)
    info = corefst._core_table.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    extension_pairsum_check(mod, 0)
    info = corefst._core_table.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


def test_core_table_check_catches_a_wrong_product(monkeypatch):
    # factor[4] = 3 names a non-divisor, so the sieve writes A_k(3) at n = 4
    bad = array("I", primes.factor_table(12))
    bad[4] = 3
    monkeypatch.setattr(primes, "factor_table", lambda n: bad)
    for p, k in [(5, 2), (11, 3), (13, 1)]:
        with pytest.raises(CheckFailure):
            corefst._core_table.__wrapped__(make_modulus(p, k))
    # F's base goes through the same check: no cached table may answer for it
    corefst._core_table.cache_clear()
    waring._level_cache.cache_clear()
    try:
        for p, k in [(11, 3), (5, 2)]:
            with pytest.raises(CheckFailure):
                reduced_sumsets(make_modulus(p, k), 1)
    finally:
        corefst._core_table.cache_clear()
        waring._level_cache.cache_clear()


def test_core_table_increment_sum_closes():
    for p, k in [(5, 2), (7, 3), (13, 2)]:
        table = build_core_table(make_modulus(p, k))
        assert sum(table.increments) % p**k == 0


def test_critical_precision_golden():
    for p, kp in [(3, 2), (5, 2), (7, 2), (13, 2), (11, 3), (73, 4)]:
        assert critical_precision(p).kp == kp, p


def test_critical_precision_witnesses_11():
    res = critical_precision(11)
    assert res.distinct_counts == {2: 4, 3: 5}
    assert res.witnesses == {2: (4, 5)}
    m = 121
    assert (pow(5, 11, m) - pow(4, 11, m)) % m == (pow(6, 11, m) - pow(5, 11, m)) % m


def test_critical_precision_matches_oracle():
    # 2003 and up lie beyond the old exact-integer range; 8191 = 2^13 - 1
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 2003, 4093, 8191):
        assert critical_precision(p).kp == oracles.naive_critical_precision(p), p


def test_critical_precision_matches_exact_route():
    # 2777 is the only prime below 2*10^4 with K_p = 5, past the first K = 4;
    # 1151 and 1279 are the slowest K_p below 2000
    for p in [p for p in range(3, 301) if oracles.naive_is_prime(p)] + [1151, 1279, 2777]:
        res = critical_precision(p)
        assert (res.kp, res.distinct_counts, res.witnesses) == oracles.exact_critical_precision(p), p


def test_integer_increments_golden():
    e1 = integer_increments(11, 1, 3)
    assert enc(e1[3], 11, 3) == "061"
    assert enc(e1[4], 11, 3) == "561"
    e2 = integer_increments(11, 2, 3)
    assert enc(e2[3], 11, 3) == "661"
    assert enc(e2[4], 11, 3) == "061"
    # constant second difference at n = 4, 5
    m = 11**3
    d = (e1[3] - e2[3]) % m
    assert enc(d, 11, 3) == "500"
    assert (e1[4] - e1[3]) % m == d


def test_increment_ratio_is_pth_power():
    # e2(4)/e1(4) lands in the p-th power subgroup
    m = 11**3
    ratio = 793 * pow(67, -1, m) % m
    assert enc(ratio, 11, 3) == "601"
    assert ratio in oracles.naive_pth_powers(11, 3)
    assert 67 * 727 % m == 793


def test_integer_increments_clamp_matches_unclamped():
    # the powers are taken at i' = min(i, max(k-1, 1)); the values do not move past it
    for p in (3, 5, 7, 11, 13):
        for k in range(1, 5):
            for i in range(1, k + 4):
                assert integer_increments(p, i, k) == oracles.naive_integer_increments(p, i, k), (p, i, k)


def test_bare_p_entry_points_reject_composites():
    for call in (critical_precision, lambda p: integer_increments(p, 1, 2)):
        with pytest.raises(NotPrime):
            call(9)
        with pytest.raises(NotPrime):
            call(1)
        with pytest.raises(OutOfRange, match="p = 2 is not supported"):
            call(2)


def test_integer_increments_validation():
    with pytest.raises(OutOfRange):
        integer_increments(11, 0, 3)


def equivalence_level_multiset(p, i, k_cap):
    """For each non-symmetric pair n < m <= h: the largest j <= k_cap with
    e_i(n) = e_i(m) mod p^j, e_i read off pkcore's integer_increments. The
    paper's claim is that the multiset is i-invariant, which is what lets
    K_p be read off e_1."""
    h = (p - 1) // 2
    vals = integer_increments(p, i, k_cap)
    out = []
    # pairs within the first half are never mirror-symmetric (n+m <= p-2)
    for n, m in itertools.combinations(range(1, h + 1), 2):
        d = (vals[n - 1] - vals[m - 1]) % p**k_cap
        j = 0
        while j < k_cap and d % p ** (j + 1) == 0:
            j += 1
        out.append(j)
    return sorted(out)


def test_equivalence_level_multiset_golden():
    # each pair's level is the p-adic valuation, capped at 4, of the exact
    # integer difference e_1(n) - e_1(m)
    p, cap = 11, 4
    e1 = {n: (n + 1) ** p - n**p for n in range(1, 6)}
    want = sorted(
        max(j for j in range(cap + 1) if (e1[n] - e1[m]) % p**j == 0)
        for n, m in itertools.combinations(e1, 2)
    )
    assert equivalence_level_multiset(p, 1, cap) == want == [1] * 9 + [2]


def test_equivalence_level_multiset_preserved():
    for p in (7, 11, 13):
        a = equivalence_level_multiset(p, 1, 6)
        b = equivalence_level_multiset(p, 2, 6)
        assert a == b, p

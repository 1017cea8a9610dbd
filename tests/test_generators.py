import dataclasses

import pytest

import oracles
from pkcore import corefst, generators
from pkcore.errors import OutOfRange
from pkcore.generators import (
    audit_divisors,
    exception_scan,
    scan_primes,
    survey_pm1_generators,
    wieferich_scan,
    wieferich_test,
)
from pkcore.primes import primes_in_range


def test_audit_divisors_11():
    audits = {a.r: a for a in audit_divisors(11, assert_non_core=False)}
    assert set(audits) == set(oracles.naive_divisors(120)) - {1}
    assert audits[2].order_in_g3 == 1210
    assert audits[3].order_in_g3 == 55
    assert audits[120].order_in_g3 == 22
    assert audits[120].sign_trivial
    assert not any(a.is_core_mod_p3 for a in audits.values())
    assert audits[3].is_core_mod_p2 and audits[40].is_core_mod_p2


def test_audit_orders_match_sympy():
    for a in audit_divisors(13, assert_non_core=False):
        assert a.order_in_g3 == oracles.naive_order(a.r, 13**3)


def test_audit_matches_per_divisor_oracle():
    # every field, against one pow mod p^3 and sympy's order per divisor
    # 1429 and 1871 have the most divisors of p^2-1 below 2000
    for p in primes_in_range(3, 499) + [1093, 1429, 1871, 3511, 8191]:
        got = [dataclasses.asdict(a) for a in audit_divisors(p, assert_non_core=False)]
        assert got == oracles.naive_audit_divisors(p), p


def test_audit_matches_mod_p3_lattice():
    # records off r^(p-1) mod p^2 equal the walk mod p^3 for every prime below 2000, which
    # holds every divisor with r^(p-1) = 1 mod p^2 below r = p^2-1, the one pow mod p^3 path
    exceptional = []
    for p in primes_in_range(3, 1999):
        for assert_non_core in (True, False):
            got = audit_divisors(p, assert_non_core)
            assert got == oracles.p3_lattice_audit_divisors(p, assert_non_core), (p, assert_non_core)
        if any(a.exceptional for a in got):
            exceptional.append(p)
    assert exceptional == [11, 29, 37, 181, 257, 269, 281, 313, 449, 829, 1093]


def test_exceptional_pairing():
    audits = audit_divisors(11, assert_non_core=False)
    assert sorted(x.r for x in audits if x.exceptional) == [3, 40]
    # cofactors of an exceptional divisor are exceptional too
    assert 3 * 40 == 11**2 - 1


def test_assert_non_core_clean_for_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        audit_divisors(p, assert_non_core=True)


def test_exception_scan_windows():
    assert exception_scan(3, 40) == [(11, 3), (29, 14), (37, 18)]
    assert exception_scan(260, 280) == [(269, 180)]
    assert exception_scan(38, 100) == []
    for p, r in exception_scan(3, 120):
        assert pow(r, p, p * p) == r
        assert r not in (1, p * p - 1)
        assert (p * p - 1) % r == 0
    assert exception_scan(3, 3000) == oracles.naive_exception_scan(3, 3000)


def test_exception_scan_matches_oracle_to_30000():
    # every hit of the perfbench window; the rows with exceptional divisors
    # are the only ones that walk the divisors themselves
    got = exception_scan(3, 30000)
    assert len(got) == 34
    assert got == oracles.naive_exception_scan(3, 30000)


def test_exception_row_none_with_only_sign_trivial_ones():
    # the only divisors of 41^2-1 with r^40 = 1 mod 41^2 are 1 and 41^2-1
    p = 41
    assert [r for r in oracles.naive_divisors(p * p - 1) if pow(r, p - 1, p * p) == 1] == [1, p * p - 1]
    assert generators.exception_row(p) is None
    assert generators.exception_row(11) == (11, 3)


def test_wieferich_small_window():
    assert wieferich_scan(4000) == [1093, 3511]
    assert wieferich_scan(1000) == []
    for p in (1093, 3511):
        assert oracles.naive_wieferich(p)


def test_wieferich_kernel_matches_naive(monkeypatch):
    ps = [n for n in range(2, 20001) if oracles.naive_is_prime(n)]
    # (first, last) prime indices of a slice, and scan windows (lo, hi, block);
    # both start mid-batch of a scan from 2, and the windows cross block edges
    slices = [(0, len(ps)), (3, 40), (5, 6), (170, 190), (1, 9)]
    windows = [(2, 20000, 4096), (1000, 4000, 333), (1090, 1100, 7), (2, 2, 1), (3500, 3600, 50)]
    for base in (2, 3, 5, 10, 11, 2186):  # p | base at p = 2, 3, 5, 11 and 1093
        kernel = wieferich_test(base)
        for i, j in slices:
            assert kernel(ps[i:j]) == [p for p in ps[i:j] if oracles.naive_wieferich(p, base)], (base, i, j)
        for lo, hi, block in windows:
            want = [p for p in ps if lo <= p <= hi and oracles.naive_wieferich(p, base)]
            monkeypatch.setattr(generators, "SCAN_BLOCK", block)
            assert scan_primes(kernel, lo, hi) == want, (base, lo, hi)
    assert wieferich_test(5)([2, 3, 5, 20771]) == [2, 20771]
    assert wieferich_test(10)([2, 3, 5, 487]) == [3, 487]


def test_wieferich_other_base():
    # 11^10 = 1 mod 71^2 makes 71 a base-11 hit
    assert 71 in wieferich_scan(100, base=11)


def test_wieferich_jobs_parity():
    assert wieferich_scan(4000, jobs=2) == wieferich_scan(4000, jobs=1)


def test_pool_capped_at_block_count(monkeypatch):
    pools = []

    class RecordingPool:  # records the pool size, runs blocks in-process
        def __init__(self, max_workers):
            self.max_workers, self.blocks = max_workers, 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            self.blocks = len(items)
            return map(fn, items)

    # scan_primes imports the pool class from concurrent.futures when it starts a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    # 11 numbers in [2, 12] make at most 11 blocks, so 64 jobs must not start 64 workers
    assert wieferich_scan(12, base=5, jobs=64) == [2]
    assert [(p.max_workers, p.blocks) for p in pools] == [(11, 11)]
    pools.clear()
    # more blocks than jobs: the pool keeps the requested size
    with monkeypatch.context() as patch:
        patch.setattr(generators, "SCAN_BLOCK", 500)
        assert wieferich_scan(4000, jobs=2) == [1093, 3511]
    assert [(p.max_workers, p.blocks) for p in pools] == [(2, 8)]
    pools.clear()
    # under jobs > 1 the range is cut into 4 * jobs blocks, so the heavy top ones spread out
    assert wieferich_scan(4000, jobs=2) == [1093, 3511]
    assert [(p.max_workers, p.blocks) for p in pools] == [(2, 8)]
    pools.clear()
    assert wieferich_scan(4000, jobs=1) == [1093, 3511] and pools == []
    with pytest.raises(OutOfRange):
        wieferich_scan(100, jobs=0)


def corollary_check(p):
    """The paper's corollary for n in {2, 3}, p >= 5: the quadruple
    {n, -n, 1/n, -1/n} mod p^k stays outside the core for k in {3, 4},
    and multiplying the quadruple into the core never lands back in the
    core (spot-checked on 8 cores). A unit y is core exactly when it is
    its row of pkcore's core table, A_k(y mod p) = y."""
    from pkcore.corefst import build_core_table
    from pkcore.modring import make_modulus

    for k in (3, 4):
        mod = make_modulus(p, k)
        m, core = mod.modulus, build_core_table(mod).core
        for n in (2, 3):
            inv = pow(n, -1, m)
            for x in (n, -n, inv, -inv):
                if any(y % p and core[y % p - 1] == y for y in (x * a % m for a in (1, *core[:8]))):
                    return False
    return True


def test_corollary_check():
    for p in (5, 7, 11, 13, 73):
        assert corollary_check(p)


def test_corollary_check_reads_core_membership_off_the_table(monkeypatch):
    # a table whose row of 2 is 2 itself puts n = 2 in the core, and the check must see it
    real = corefst.build_core_table

    def two_in_core(mod):
        table = real(mod)
        return dataclasses.replace(table, core=(table.core[0], 2, *table.core[2:]))

    monkeypatch.setattr(corefst, "build_core_table", two_in_core)
    assert not corollary_check(7)


def test_survey_73():
    survey = survey_pm1_generators(73, 3)
    assert survey.satisfied
    by_g = {v.g: v for v in survey.verdicts}
    for g in (6, 12):
        assert by_g[g].klass == "halfGroupNoMinusOne"
        assert by_g[g].order == 73 * 73 * 72 // 2 == 191844
        assert by_g[g].minus_one_in_cycle


def test_survey_matches_oracle():
    # orders from sympy, and -1 in the cycle by the pow form g^(t/2) = -1
    for p in primes_in_range(3, 299):
        for k in (1, 2, 3, 4, 5):
            survey = survey_pm1_generators(p, k)
            verdicts, satisfied = oracles.naive_survey_pm1_generators(p, k)
            assert [dataclasses.asdict(v) for v in survey.verdicts] == verdicts, (p, k)
            assert survey.satisfied == satisfied


def test_survey_matches_mod_pk_lattice():
    # orders off g^(p-1) mod p^2 equal the walk mod p^k, g^(p-1) = 1 mod p^2 included
    for p in primes_in_range(3, 1999):
        for k in (1, 2, 3, 5):
            assert survey_pm1_generators(p, k) == oracles.pk_lattice_survey_pm1_generators(p, k), (p, k)


def test_survey_satisfied_small_range():
    for p in primes_in_range(3, 60):
        assert survey_pm1_generators(p, 3).satisfied, p


def test_survey_class_of_each_divisor_is_the_same_at_every_k():
    # a generator mod p^2 generates every G_k: each divisor of p-1 and p+1 keeps its class
    for p in primes_in_range(3, 199):
        at_2 = [(v.g, v.klass) for v in survey_pm1_generators(p, 2).verdicts]
        for k in (3, 4, 5):
            assert [(v.g, v.klass) for v in survey_pm1_generators(p, k).verdicts] == at_2, (p, k)
    # the first prime with no divisor of p-1 or p+1 generating G_k or half of it
    assert [p for p in primes_in_range(3, 997) if not survey_pm1_generators(p, 2).satisfied] == [997]
    assert not survey_pm1_generators(997, 5).satisfied

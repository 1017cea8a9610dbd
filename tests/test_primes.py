import random

import pytest

import oracles
from pkcore import generators
from pkcore.errors import FactorizationFailure
from pkcore.generators import scan_primes
from pkcore.primes import factor_table, factorize, is_prime, power_table, primes_in_range


def test_is_prime_small():
    assert [n for n in range(2, 50) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    ]
    assert not is_prime(0) and not is_prime(1) and not is_prime(-7)


def test_is_prime_hard_composites():
    # Carmichael numbers and strong pseudoprimes to small bases
    for n in (561, 1105, 1729, 2047, 2465, 6601, 1373653, 25326001, 3215031751, 3825123056546413051):
        assert not is_prime(n), n
    # perfect squares near the BPSW path
    assert not is_prime((10**9 + 7) ** 2)


def test_is_prime_large_primes():
    for n in (2**61 - 1, 10**18 + 9, 2**89 - 1):
        assert is_prime(n), n


def test_is_prime_bpsw_lucas_step():
    # every composite 2^q - 1, q prime and 67 <= q <= 199, and the Fermat
    # numbers 2^(2^j) + 1, j = 6, 7, 8, are strong base-2 probable primes
    # above 2^64, so only the strong Lucas step of BPSW rejects them.
    # n + 1 = 2^q gives the Mersenne numbers a one-bit Lucas ladder; the
    # Fermat numbers and the three primes run it over many bits
    for q in primes_in_range(2, 199):
        n = 2**q - 1
        assert is_prime(n) == oracles.naive_is_prime(n), q
    assert [q for q in primes_in_range(67, 199) if is_prime(2**q - 1)] == [89, 107, 127]
    for n, prime in [(2**64 + 1, False), (2**128 + 1, False), (2**256 + 1, False),
                     (2**64 + 13, True), (10**30 + 57, True), (2**127 + 29, True)]:
        assert is_prime(n) == oracles.naive_is_prime(n) == prime, n


def test_is_prime_matches_sympy():
    # below 53^2 = 2809 trial division by the primes up to 47 decides alone
    assert [is_prime(n) for n in range(-2, 10**4)] == [oracles.naive_is_prime(n) for n in range(-2, 10**4)]
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(2, 10**7)
        assert is_prime(n) == oracles.naive_is_prime(n), n


def test_sieve_and_range():
    assert primes_in_range(0, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_in_range(90, 100) == [97]
    assert primes_in_range(2, 2) == [2]
    assert primes_in_range(14, 16) == []
    lo, hi = 10**6, 10**6 + 1000
    assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if oracles.naive_is_prime(n)]


def test_primes_in_range_windows():
    # across the 2^20 scan block edge, lo above sqrt(hi), lo = hi prime, empty and tiny windows
    windows = [(2**20 - 400, 2**20 + 400), (5000, 5300), (10**6 + 3, 10**6 + 3), (97, 97), (0, 1), (0, 40), (24, 28)]
    for lo, hi in windows:
        assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if oracles.naive_is_prime(n)], (lo, hi)


def test_primes_in_range_every_small_window():
    want = [n for n in range(151) if oracles.naive_is_prime(n)]
    for lo in range(151):
        for hi in range(lo, 151):
            assert primes_in_range(lo, hi) == [n for n in want if lo <= n <= hi], (lo, hi)


def test_primes_in_range_near_base_prime_squares():
    # even and odd lo just below, on and above q^2 for base primes q = 3..29,
    # e.g. the windows 120-122, 168-170 and 360-362
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        for lo in range(q * q - 3, q * q + 4):
            for hi in (lo, lo + 1, lo + 2, lo + 50):
                got = primes_in_range(lo, hi)
                assert got == [n for n in range(lo, hi + 1) if oracles.naive_is_prime(n)], (lo, hi)


def test_scan_primes_small_blocks(monkeypatch):
    for lo, hi in [(0, 400), (2, 401), (3, 400), (120, 371)]:
        want = [n for n in range(lo, hi + 1) if oracles.naive_is_prime(n)]
        for block in (1, 2, 3, 4, 5, 7, 8, 16, 33):
            monkeypatch.setattr(generators, "SCAN_BLOCK", block)
            assert scan_primes(list, lo, hi) == want, (lo, hi, block)


def test_factor_table():
    table = factor_table(5000)
    for m in range(5001):
        want = 0 if m < 2 or oracles.naive_is_prime(m) else min(oracles.naive_factorint(m))
        assert table[m] == want, m
    assert factor_table(50) is table  # shared, not rebuilt for a shorter request
    assert len(factor_table(len(table))) >= 2 * len(table)  # grown at least twofold


def test_power_table():
    past = len(factor_table(1)) + 7  # beyond the shared factor table, so it must grow
    for e, m, top in [(1, 2, 1), (3, 7, 50), (11, 11**3, 200), (49, 7**3, 6), (12, 13**2, 12), (5, 1000, past)]:
        assert power_table(e, m, top) == [pow(n, e, m) for n in range(top + 1)], (e, m, top)
    assert len(factor_table(1)) > past


def test_factorize_known():
    assert factorize(1) == {}
    assert factorize(2**10) == {2: 10}
    assert factorize(120) == {2: 3, 3: 1, 5: 1}
    assert factorize(1092 * 1094) == oracles.naive_factorint(1092 * 1094)


def test_factorize_random_vs_sympy():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 10**12)
        f = factorize(n)
        assert f == oracles.naive_factorint(n), n
        prod = 1
        for q, e in f.items():
            assert is_prime(q)
            prod *= q**e
        assert prod == n


def test_factorize_needs_no_primality_test_below_trial_bound(monkeypatch):
    import pkcore.primes

    calls = []
    real = pkcore.primes.is_prime
    monkeypatch.setattr(pkcore.primes, "is_prime", lambda n: calls.append(n) or real(n))
    for p in primes_in_range(3, 3000) + primes_in_range(10**6 - 3000, 10**6):
        for n in (p - 1, p + 1):
            assert factorize(n) == oracles.naive_factorint(n), n
    # a cofactor left once trial division passed its square root is prime
    assert calls == []


def test_factorize_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_gives_up_cleanly(monkeypatch):
    import pkcore.primes

    monkeypatch.setattr(pkcore.primes, "RHO_MAX_ROUNDS", 1)
    monkeypatch.setattr(pkcore.primes, "RHO_MAX_ITERS", 1 << 10)
    n = (2**127 - 1) * (2**107 - 1)  # far beyond trial division
    with pytest.raises(FactorizationFailure):
        factorize(n)


def test_factorize_seeds_rho_only_when_needed(monkeypatch):
    import pkcore.primes

    seeds = []
    real = pkcore.primes.random.Random
    monkeypatch.setattr(pkcore.primes.random, "Random", lambda seed: seeds.append(seed) or real(seed))
    assert factorize(1092 * 1094) == oracles.naive_factorint(1092 * 1094)
    assert factorize(2 * 1000003) == {2: 1, 1000003: 1}  # prime cofactor after trial division
    assert seeds == []
    semiprime = 1000003 * 1000033  # both factors above the trial bound
    assert factorize(semiprime) == factorize(semiprime) == {1000003: 1, 1000033: 1}
    assert seeds == [0xC0FFEE, 0xC0FFEE]


import itertools

import pytest

import oracles
from pkcore.corefst import build_core_table, critical_precision
from pkcore.errors import BadExponent
from pkcore.modring import make_modulus
from pkcore.pairsums import (
    core_pairsum_count,
    extension_pairsum_check,
    fermat_pairsum_count,
)


def test_core_counts_at_critical():
    for p, k, want in [(7, 2, 18), (11, 3, 50), (13, 2, 72), (23, 2, 242)]:
        observed, predicted = core_pairsum_count(make_modulus(p, k))
        assert observed == predicted == want == (p - 1) ** 2 // 2, (p, k)


def test_core_count_below_critical():
    observed, predicted = core_pairsum_count(make_modulus(11, 2))
    assert observed == predicted == 40
    assert observed < (11 - 1) ** 2 // 2


def test_core_pairsums_match_oracle():
    for p, k in [(5, 2), (7, 2), (11, 2), (7, 3)]:
        mod = make_modulus(p, k)
        core = set(build_core_table(mod).core)
        sums = oracles.naive_pairsums(core, mod.modulus)
        observed, _ = core_pairsum_count(mod)
        assert observed == len(sums - {0})
        # every nonzero core pairsum is a unit
        assert all(s % p for s in sums if s)


def test_fermat_counts_golden():
    golden = {
        (3, 2): (2, 0),
        (5, 2): (8, 0),
        (5, 3): (40, 4),
        (7, 3): (126, 6),
        (11, 3): (440, 10),
    }
    for (p, k), (units, extras) in golden.items():
        r = fermat_pairsum_count(make_modulus(p, k))
        assert r.matches and r.observed == r.predicted == units, (p, k)
        assert r.nonunit_nonzero == extras, (p, k)


def test_fermat_k1_matches():
    # at k = 1, F is every unit and D_1 = {1}: F+F covers the p-1 units
    for p in (3, 5, 7, 11, 13):
        mod = make_modulus(p, 1)
        r = fermat_pairsum_count(mod)
        want = oracles.naive_unit_pairsums(oracles.naive_pth_powers(p, 1), p, p)
        assert r.matches and r.observed == r.predicted == len(want) == p - 1, p


def test_fermat_predicted_uses_distinct_increments():
    for p, k in [(5, 3), (7, 3), (11, 3), (13, 2)]:
        mod = make_modulus(p, k)
        r = fermat_pairsum_count(mod)
        d2 = critical_precision(p).distinct_counts.get(2, (p - 1) // 2)
        assert r.predicted == len(oracles.naive_pth_powers(p, k)) * d2


def test_fermat_extras_are_deep_multiples():
    for p, k in [(5, 3), (7, 3), (11, 3)]:
        mod = make_modulus(p, k)
        f = sorted(oracles.naive_pth_powers(p, k))
        m = mod.modulus
        extras = {
            s
            for s in ((a + b) % m for a, b in itertools.combinations_with_replacement(f, 2))
            if s and s % p == 0
        }
        assert len(extras) == fermat_pairsum_count(mod).nonunit_nonzero
        assert all(s % (p * p) == 0 for s in extras), (p, k)


def test_fermat_units_match_oracle():
    for p, k in [(5, 2), (5, 3), (7, 3)]:
        mod = make_modulus(p, k)
        f = oracles.naive_pth_powers(p, k)
        want = oracles.naive_unit_pairsums(f, p, mod.modulus)
        assert fermat_pairsum_count(mod).observed == len(want)


def test_extension_levels():
    for p, k, es in [(5, 3, (0, 1, 2)), (7, 3, (0, 1)), (11, 3, (1,))]:
        for e in es:
            verdict = extension_pairsum_check(make_modulus(p, k), e)
            assert verdict.passed, (p, k, e)
            assert verdict.unit_sum_count == verdict.coset_union_count


def test_fermat_counts_match_exhaustive():
    primes = [p for p in range(3, 142) if oracles.naive_is_prime(p)]
    cells = [(p, k) for p in primes for k in range(1, 10) if p**k <= 20000]
    for p, k in cells:
        r = fermat_pairsum_count(make_modulus(p, k))
        assert (r.observed, r.nonunit_nonzero) == oracles.fermat_pairsum_counts(p, k), (p, k)


def test_extension_matches_pair_oracle():
    # every level e, X = G at e = k-1 included, of every cell with p^k <= 20000
    # and |X^(e)| <= 1500; p < 200 leaves out only k = 1 cells (X = G, D_1 = {1}),
    # whose pair loops up to p = 1499 would cost about 9 s
    primes = [p for p in range(3, 200) if oracles.naive_is_prime(p)]
    cells = [
        (p, k, e)
        for p in primes
        for k in range(1, 10)
        if p**k <= 20000
        for e in range(k)
        if (p - 1) * p**e <= 1500
    ]
    assert len(cells) == 166 and (11, 4, 2) in cells and (3, 1, 0) in cells
    for p, k, e in cells:
        v = extension_pairsum_check(make_modulus(p, k), e)
        got = (v.passed, v.unit_sum_count, v.coset_union_count)
        assert got == oracles.naive_extension_pairsum_check(p, k, e), (p, k, e)


def test_extension_members_are_core_preimages():
    # X^(e) = A_k * Y^(e) is the preimage of the core of p^(k-e): every level e
    # of every cell with p^k <= 20000 and p < 200, as in the pair-oracle test
    primes = [p for p in range(3, 200) if oracles.naive_is_prime(p)]
    cells = [(p, k) for p in primes for k in range(1, 10) if p**k <= 20000]
    for p, k in cells:
        for e in range(k):
            step = p ** (k - e)
            core = build_core_table(make_modulus(p, k - e)).core
            preimage = {a + t * step for a in core for t in range(p**e)}
            assert oracles.naive_extension_members(p, k, e) == preimage, (p, k, e)


def test_extension_level_range():
    mod = make_modulus(7, 3)
    for e in (-1, mod.k):  # the check's own refusal, not make_modulus's of p^(k-e)
        with pytest.raises(BadExponent, match="extension level"):
            extension_pairsum_check(mod, e)
    # X^(1) mod 11^8 is the preimage of A mod 11^7: the check reads the smaller core table
    big = extension_pairsum_check(make_modulus(11, 8), 1)
    base = extension_pairsum_check(make_modulus(11, 7), 0)
    assert big.passed and big.unit_sum_count == 11 * base.unit_sum_count

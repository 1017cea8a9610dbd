from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pkcore import waring
from pkcore.cli import main
from pkcore.corefst import build_core_table
from pkcore.errors import CheckFailure, NoTripleFound, OutOfRange
from pkcore.modring import make_modulus
from pkcore.pairsums import fermat_pairsum_count
from pkcore.waring import decompose_residue, sumset_levels, verify_multiples_of_p

GRID = [(3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (3, 3), (5, 3), (7, 3)]
SMALL_PRIMES = [p for p in range(3, 142) if oracles.naive_is_prime(p)]
# every cell with k >= 2 and p^k <= 20000, checked against the bitset oracle
ORACLE_CELLS = [(p, k) for p in SMALL_PRIMES for k in range(2, 10) if p**k <= 20000]
K1_CELLS = [(p, 1) for p in SMALL_PRIMES]
# the verify_multiples_of_p cells of the `cells` benchmark workload
MULTIPLES_BENCH_CELLS = [(3, 7), (5, 5), (7, 4), (11, 3), (13, 3)]


def test_level_counts_golden():
    r = sumset_levels(make_modulus(7, 3), 4)
    assert r.counts == {1: 42, 2: 133, 3: 259, 4: 343}
    r = sumset_levels(make_modulus(3, 2), 4)
    assert r.counts == {1: 2, 2: 3, 3: 4, 4: 5}
    assert r.disjoint_f3_f4


def test_levels_match_oracle():
    for p, k in [(3, 2), (5, 2), (3, 3), (5, 3)]:
        r = sumset_levels(make_modulus(p, k), 4)
        naive = oracles.naive_sum_levels(p, k, 4)
        for t in range(1, 5):
            assert {x for x in range(p**k) if r.masks[t] >> x & 1} == naive[t], (p, k, t)


def test_theorem_holds_on_grid():
    for p, k in GRID:
        r = sumset_levels(make_modulus(p, k), 4)
        assert r.theorem_holds, (p, k)
        # three-sums sit inside four-sums exactly when four-sums already
        # fill the ring (p >= 7 on this grid); at p = 3 the two levels
        # are disjoint, at p = 5 they overlap without containment
        if p >= 7:
            assert r.conjecture_f3_in_f4, (p, k)
        else:
            assert not r.conjecture_f3_in_f4, (p, k)
        assert r.disjoint_f3_f4 == (p == 3), (p, k)


def test_n0_coverage_split():
    covered = {(p, k): sumset_levels(make_modulus(p, k), 4).n0_covered_by3 for p, k in GRID}
    assert covered[(3, 3)] is False
    assert covered[(5, 3)] is False
    for cell, value in covered.items():
        if cell not in ((3, 3), (5, 3)):
            assert value, cell


def test_missing_multiples_identified():
    r33 = verify_multiples_of_p(make_modulus(3, 3))
    assert not r33.all_covered and r33.missing == (9, 18)
    r53 = verify_multiples_of_p(make_modulus(5, 3))
    assert not r53.all_covered and r53.missing == (25, 50, 75, 100)
    # whatever three sums miss, two sums reach
    assert r33.missing_in_two_sums and r53.missing_in_two_sums
    r73 = verify_multiples_of_p(make_modulus(7, 3))
    assert r73.all_covered and r73.missing == ()


def test_missing_multiples_are_deep():
    for p in (3, 5):
        r = verify_multiples_of_p(make_modulus(p, 3))
        assert all(x % (p * p) == 0 for x in r.missing)


def test_witnesses_verify():
    for p, k in GRID:
        mod = make_modulus(p, k)
        r = verify_multiples_of_p(mod)
        f = oracles.naive_pth_powers(p, k)
        for x, summands in r.witnesses.items():
            assert sum(summands) % mod.modulus == x
            assert all(s in f for s in summands)


def test_decompose_residue():
    mod = make_modulus(7, 3)
    levels = sumset_levels(mod, 4)
    f = oracles.naive_pth_powers(7, 3)
    for x in (14, 100, 0, 342):
        for t in range(1, 5):
            if levels.masks[t] >> x & 1:
                summands = decompose_residue(mod, x, t)
                assert len(summands) == t
                assert sum(summands) % mod.modulus == x
                assert all(s in f for s in summands)
                break


def test_decompose_residue_rejects_unreachable():
    mod = make_modulus(3, 3)
    with pytest.raises(NoTripleFound):
        decompose_residue(mod, 9, 3)  # 9 needs two or four summands, not three


def h_triple_coresum(p):
    """The paper's coresum witness (r, p-1-r, 1), r tried at h = (p-1)/2
    first: (triple, core sum mod p^2), the core sum a nonzero multiple of p.

    A(p-1-r) = -A(r+1), so the core sum is c = 1 - e_1(r) mod p^2, with
    e_1(r) = (r+1)^p - r^p read off pkcore's power_differences. c = 0 at
    r = h exactly when 2^p = 2 mod p^2 (the base-2 carry vanishes); then
    r = (p-1)/3 (when 3 | p-1) and r = 1..h follow.
    """
    from pkcore.corefst import power_differences

    pp, h = p * p, (p - 1) // 2
    e1 = power_differences(p, pp, h)  # e_1(1..h) mod p^2
    thirds = ((p - 1) // 3,) if (p - 1) % 3 == 0 else ()
    for r in (h, *thirds, *range(1, h + 1)):
        c = (1 - e1[r - 1]) % pp
        assert c % p == 0, (p, r)  # e_1(r) = 1 mod p by Fermat
        if c:
            return (r, p - 1 - r, 1), c
    raise AssertionError(f"no (r, p-1-r, 1) triple with nonzero core sum for p = {p}")


def check_h_triple(p, triple, coresum):
    assert h_triple_coresum(p) == (triple, coresum), p
    assert coresum % p == 0 and coresum > 0
    core = (0,) + build_core_table(make_modulus(p, 2)).core  # A_2(n) at n
    assert sum(core[n] for n in triple) % p**2 == coresum, p


def test_h_triple_golden():
    for p, triple, coresum in [
        (5, (2, 2, 1), 15),
        (7, (3, 3, 1), 14),
        (13, (6, 6, 1), 39),
        (8191, (4095, 4095, 1), 5160330),
    ]:
        check_h_triple(p, triple, coresum)


def test_h_triple_wieferich_fallback():
    # at the base-2 Wieferich primes (h, h, 1) has core sum 0, and r = (p-1)/3 takes over
    for p, triple, coresum in [
        (1093, (364, 728, 1), 341016),
        (3511, (1170, 2340, 1), 24577),
    ]:
        check_h_triple(p, triple, coresum)


def test_reports_match_bitset_oracle():
    for p, k in ORACLE_CELLS:
        mod = make_modulus(p, k)
        r = sumset_levels(mod, 4)
        want = oracles.bitset_coverage(p, k)
        got = {name: getattr(r, name) for name in want}
        assert got == want, (p, k)
        v = verify_multiples_of_p(mod)
        want = oracles.bitset_multiples(p, k)
        got = {name: getattr(v, name) for name in want}
        assert got == want, (p, k)


def test_multiples_witnesses_match_decompose():
    # verify_multiples_of_p searches once per class mod q; each witness
    # must still be the one decompose_residue gives for that multiple
    for p, k in ORACLE_CELLS + MULTIPLES_BENCH_CELLS:
        mod = make_modulus(p, k)
        v = verify_multiples_of_p(mod)
        assert len(v.witnesses) + len(v.missing) == p ** (k - 1) - 1, (p, k)
        for x, witness in v.witnesses.items():
            assert witness == decompose_residue(mod, x, 3), (p, k, x)


def test_witness_self_check_fires(monkeypatch):
    # a non-member at the head of the base becomes the first summand of
    # some prefix; the levels stay true, so only the prefix check sees it.
    # At k = 2 the non-member 2 is a unit, so a check mod p would pass it
    real = waring.reduced_sumsets
    for k, bad in [(1, 0), (2, 2), (3, 2)]:
        mod = make_modulus(7, k)
        assert bad not in oracles.naive_pth_powers(7, k)

        def corrupt(mod, max_t):
            small = real(mod, max_t)
            return small._replace(base=(bad,) + small.base)

        monkeypatch.setattr(waring, "reduced_sumsets", corrupt)
        if k >= 2:
            with pytest.raises(CheckFailure):
                verify_multiples_of_p(mod)
        with pytest.raises(CheckFailure):
            decompose_residue(mod, 14, 3)


def test_last_summand_check_fires(monkeypatch):
    # a level 1 that marks every class makes the prefix end on the smallest
    # base element, so the last summand falls outside F in some class; only
    # the last-summand check sees it
    real = waring.reduced_sumsets

    def corrupt(mod, max_t):
        small = real(mod, max_t)
        return small._replace(levels=((1 << small.q) - 1,) + small.levels[1:])

    monkeypatch.setattr(waring, "reduced_sumsets", corrupt)
    for k in (2, 3):
        mod = make_modulus(7, k)
        with pytest.raises(CheckFailure, match="invalid witness produced"):
            verify_multiples_of_p(mod)
        with pytest.raises(CheckFailure, match="invalid witness produced"):
            decompose_residue(mod, 14, 3)


def test_carry_test_decides_f_membership():
    # x is in F exactly when x^(p-1) = 1 mod p^min(k, 2), the test every
    # in-product witness check applies
    for p in [p for p in SMALL_PRIMES if p < 60]:
        for k in range(1, 5):
            if p**k > 2 * 10**5:
                break
            q = p ** min(k, 2)
            f = {x for x in range(p**k) if pow(x, p - 1, q) == 1}
            assert f == oracles.naive_pth_powers(p, k), (p, k)


def test_class_walk_matches_per_x_walk():
    # the class-by-class walk against the per-multiple walk it replaced
    for p, k in [(p, k) for p in SMALL_PRIMES for k in range(2, 14) if p**k <= 10**6]:
        v = verify_multiples_of_p(make_modulus(p, k))
        want = oracles.per_x_multiples(p, k)
        assert {name: getattr(v, name) for name in want} == want, (p, k)


def test_sumset_input_validation():
    mod = make_modulus(7, 1)
    with pytest.raises(OutOfRange):
        sumset_levels(mod, 4)
    with pytest.raises(OutOfRange):
        verify_multiples_of_p(mod)
    with pytest.raises(OutOfRange):
        decompose_residue(make_modulus(7, 3), 14, 0)


def test_unbounded_descriptor_answers():
    # any p^k is admitted; every answer below is read at p^2 or off the
    # core table of p^8
    big, small = make_modulus(11, 8), make_modulus(11, 3)
    assert build_core_table(big).core == tuple(pow(n, 11**7, 11**8) for n in range(1, 11))
    levels, ref = sumset_levels(big), sumset_levels(small)
    assert levels.counts == {t: 11**5 * c for t, c in ref.counts.items()}
    verdicts = ("theorem_holds", "n0_covered_by3", "conjecture_f3_in_f4", "disjoint_f3_f4")
    assert [getattr(levels, v) for v in verdicts] == [getattr(ref, v) for v in verdicts]
    for x in (0, 1, 11, 121, 11**7, 123456789, 11**8 - 1):
        summands = decompose_residue(big, x, 4)
        assert sum(summands) % big.modulus == x
        assert all(pow(s, 10 * 11**6, big.modulus) == 1 for s in summands), x  # |F| = (p-1)p^(k-2)


@lru_cache(maxsize=None)
def _oracle_levels(p, k):
    return oracles.bitset_levels(p, k, 4)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORACLE_CELLS + K1_CELLS), st.integers(0, 10**9), st.integers(1, 4))
def test_decompose_matches_bitset_oracle(cell, seed, t):
    p, k = cell
    mod = make_modulus(p, k)
    f, levels = _oracle_levels(p, k)
    x = seed % mod.modulus
    want = oracles.bitset_witness(f, mod.modulus, levels, x, t)
    if want is None:
        with pytest.raises(NoTripleFound):
            decompose_residue(mod, x, t)
    else:
        assert decompose_residue(mod, x, t) == want


def test_levels_shared_across_depths():
    waring._level_cache.cache_clear()
    mod = make_modulus(7, 4)
    sumset_levels(mod, 4)
    first = waring.reduced_sumsets(mod, 4).levels
    verify_multiples_of_p(mod)
    fermat_pairsum_count(mod)
    for t in range(1, 5):
        try:
            decompose_residue(mod, 7, t)
        except NoTripleFound:
            pass
    assert waring._level_cache.cache_info().misses == 1
    assert len(waring._level_cache(7, 2).levels) == 4  # S_1..S_4, each built once
    sumset_levels(mod, 6)
    assert len(waring._level_cache(7, 2).levels) == 6
    assert waring._level_cache.cache_info().misses == 1
    assert all(a is b for a, b in zip(first, waring.reduced_sumsets(mod, 6).levels))


def test_sumset_levels_tiles_nothing_until_read(monkeypatch, capsys):
    tile = waring._tile

    def tile_within_q(pattern, period, m):
        if m > 9:  # q = 3^2
            raise AssertionError(f"tiled a {m}-bit mask before any mask was read")
        return tile(pattern, period, m)

    monkeypatch.setattr(waring, "_tile", tile_within_q)
    report = sumset_levels(make_modulus(3, 11), 4)
    assert main(["waring", "-p", "3", "-k", "11"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert report.masks == oracles.bitset_coverage(3, 11)["masks"]

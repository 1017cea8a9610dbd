import inspect
import random

import pytest

import oracles
from pkcore.corefst import build_core_table
from pkcore.errors import NotPrime, OutOfRange
from pkcore.modring import base_p_encode, core_order, make_modulus, split_order
from pkcore.primes import primes_in_range
from pkcore.waring import reduced_sumsets


def test_make_modulus_validation():
    for _ in range(2):  # the descriptor is memoised per (p, k); a refusal never is
        with pytest.raises(NotPrime):
            make_modulus(4, 2)
        with pytest.raises(NotPrime):
            make_modulus(1, 2)
        with pytest.raises(OutOfRange, match="p = 2 is not supported"):
            make_modulus(2, 3)
        with pytest.raises(OutOfRange, match="precision exponent k must be >= 1"):
            make_modulus(5, 0)
    assert make_modulus(11, 8).modulus == 11**8
    assert make_modulus(11, 8) is make_modulus(11, 8)
    # a plain function, so the tracer's modring.make_modulus.* metrics and tests/test_surface.py see it
    assert inspect.isfunction(make_modulus)


def test_oversize_named_by_p_and_k_not_by_value():
    # make_modulus builds a descriptor at any size; the size refusal, which
    # names p and k and never p^k, is the CLI's (test_cli.py::test_cell_guard_edges)
    for p, k in [(3, 5), (3, 17), (3, 5000), (5, 2), (8209, 2)]:
        assert make_modulus(p, k).modulus == p**k


def test_orders():
    mod = make_modulus(11, 3)
    assert mod.units_order == 10 * 121
    assert len(set(build_core_table(mod).core)) == 10
    assert len(oracles.naive_extension_members(11, 3, 1)) == 110


def test_residues_reduce_and_units_are_checked():
    mod = make_modulus(5, 2)
    assert base_p_encode(mod, 27) == "02"
    assert base_p_encode(mod, -1) == base_p_encode(mod, mod.modulus - 1) == "44"
    for p, k in [(5, 2), (7, 3), (11, 1)]:
        mod = make_modulus(p, k)
        m = mod.modulus
        for x in range(1, m, max(1, m // 40)):
            shifted = (x + m, x - m)
            assert all(base_p_encode(mod, y) == base_p_encode(mod, x) for y in shifted)


def test_core_members_5_2():
    core = set(build_core_table(make_modulus(5, 2)).core)
    assert core == {1, 7, 18, 24} == oracles.naive_core_set(5, 2)


def test_core_members_11_3_golden():
    mod = make_modulus(11, 3)
    golden = ["001", "4a2", "103", "974", "525", "586", "137", "9a8", "609", "aaa"]
    want = frozenset(oracles.naive_base_p_decode(s, 11) for s in golden)
    assert set(build_core_table(mod).core) == want == oracles.naive_core_set(11, 3)


def test_pth_powers_11_3_golden():
    golden = ["001", "5a2", "103", "274", "325", "886", "937", "aa8", "609", "0aa"]
    for n, s in enumerate(golden, start=1):
        assert pow(n, 11, 1331) == oracles.naive_base_p_decode(s, 11), (n, s)
    # F_3 is the preimage of A_q, q = 11^2: x is a p-th power iff x mod q is in A_q
    q, base, _ = reduced_sumsets(make_modulus(11, 3), 1)
    f = {x for x in range(1331) if x % q in base}
    assert len(f) == 110
    assert f == oracles.naive_pth_powers(11, 3)


def test_core_extensions_interpolate():
    mod = make_modulus(7, 3)
    q, base, _ = reduced_sumsets(mod, 1)
    assert oracles.naive_extension_members(7, 3, 0) == set(build_core_table(mod).core)
    assert oracles.naive_extension_members(7, 3, mod.k - 2) == {x for x in range(mod.modulus) if x % q in base}
    full = oracles.naive_extension_members(7, 3, mod.k - 1)
    assert len(full) == mod.units_order
    # each level is a subgroup of the next
    lower = oracles.naive_extension_members(7, 3, 0)
    for e in range(1, mod.k):
        upper = oracles.naive_extension_members(7, 3, e)
        assert lower <= upper
        lower = upper


def split_unit(mod, x):
    """(core part, extension part) of a unit x, the core part read off the core table."""
    core = build_core_table(mod).core[x % mod.p - 1]
    return core, x * pow(core, -1, mod.modulus) % mod.modulus


def test_is_core_and_decompose():
    mod = make_modulus(5, 2)
    assert split_unit(mod, 2) == (7, 11)
    rng = random.Random(5)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11, 13])
        k = rng.randint(1, 3)
        m = make_modulus(p, k)
        x = rng.randint(1, m.modulus - 1)
        if x % p == 0:
            continue
        c, e = split_unit(m, x)
        assert c * e % m.modulus == x
        assert pow(c, p, m.modulus) == c
        assert pow(e, p ** (k - 1), m.modulus) == 1


def test_multiplicative_order_vs_sympy():
    rng = random.Random(7)
    for _ in range(150):
        p = rng.choice([3, 5, 7, 11, 13, 17])
        k = rng.randint(1, 3)
        mod = make_modulus(p, k)
        x = rng.randint(1, mod.modulus - 1)
        if x % p == 0:
            continue
        assert split_order(p, k, core_order(p, x), pow(x, p - 1, mod.modulus)) == oracles.naive_order(x, mod.modulus)


def test_split_order_fixed_cases():
    # (p, k, x, order, x^(p-1) = 1 mod p^k): 3^10 = 1 mod 11^2 takes the w = 1
    # branch, and 1093 is the base-2 Wieferich prime, 2^1092 = 1 mod 1093^2
    cases = [(11, 2, 3, 5, True), (11, 3, 3, 55, False), (1093, 2, 2, 364, True), (1093, 3, 2, 397852, False)]
    for p, k, x, order, w_is_1 in cases:
        w = pow(x, p - 1, p**k)
        assert (w == 1) == w_is_1, (p, k, x)
        assert split_order(p, k, core_order(p, x), w) == order == oracles.naive_order(x, p**k), (p, k, x)


def _minus_order(d):
    """ord(-a mod p) from d = ord(a mod p): the partner rule of the modring docstring."""
    return 2 * d if d % 2 else d // 2 if d % 4 == 2 else d


def _check_partner_rule(p, n):
    # n = -1 mod p, so r * (n/r) = -1 and n/r has the order of -r
    orders = {}
    for r in oracles.naive_divisors(n):
        a = r % p
        if a not in orders:
            orders[a] = core_order(p, a)
            assert orders[a] == oracles.naive_order(a, p), (p, r)
        assert core_order(p, (n // r) % p) == _minus_order(orders[a]), (p, r)


def test_partner_rule_on_divisors_of_p2_and_p4_minus_1():
    for p in primes_in_range(3, 1999):
        _check_partner_rule(p, p * p - 1)
    for p in primes_in_range(3, 59):
        _check_partner_rule(p, p**4 - 1)


def test_codec_golden():
    assert base_p_encode(make_modulus(11, 3), 596) == "4a2"
    assert oracles.naive_base_p_decode("4a2", 11) == 596
    assert base_p_encode(make_modulus(11, 3), 1) == "001"
    assert oracles.naive_base_p_decode("061", 11) == 67
    assert oracles.naive_base_p_decode("661", 11) == 793


def test_codec_large_base_dot_form():
    mod = make_modulus(41, 2)
    assert base_p_encode(mod, 3 * 41 + 7) == "3.7"
    assert oracles.naive_base_p_decode("3.7", 41) == 130


def test_codec_roundtrip_random():
    rng = random.Random(9)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13, 31, 37, 41])
        k = rng.randint(1, 5)
        mod = make_modulus(p, k)
        x = rng.randint(0, mod.modulus - 1)
        assert oracles.naive_base_p_decode(base_p_encode(mod, x), p) == x

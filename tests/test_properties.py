from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pkcore.corefst import build_core_table
from pkcore.modring import base_p_encode, core_order, make_modulus, split_order
from pkcore.primes import primes_in_range

SMALL_PRIMES = st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31])


@given(SMALL_PRIMES, st.integers(1, 5), st.integers(0, 10**9))
def test_codec_round_trip(p, k, seed):
    mod = make_modulus(p, k)
    x = seed % mod.modulus
    assert oracles.naive_base_p_decode(base_p_encode(mod, x), p) == x


@given(SMALL_PRIMES, st.integers(1, 4), st.integers(1, 10**9))
def test_lagrange(p, k, seed):
    mod = make_modulus(p, k)
    x = seed % mod.modulus
    if x % p == 0:
        x += 1
    assert pow(x, mod.units_order, mod.modulus) == 1


@given(SMALL_PRIMES, st.integers(1, 5), st.integers(1, 100))
def test_recurrence_is_direct_power(p, k, n_seed):
    n = n_seed % (p - 1) + 1
    direct = pow(n, p ** (k - 1), p**k)
    assert oracles.core_by_recurrence(p, n, k) == direct == build_core_table(make_modulus(p, k)).core[n - 1]


@given(SMALL_PRIMES, st.integers(1, 100), st.integers(1, 4))
def test_step_identity(p, n_seed, i):
    n = n_seed % (p - 1) + 1
    assert oracles.recurrence_step_identity(p, n, i)


@given(SMALL_PRIMES, st.integers(1, 100))
def test_carry_in_range(p, n_seed):
    n = n_seed % (p - 1) + 1
    assert 0 <= build_core_table(make_modulus(p, 2)).carries[n - 1] < p


@given(SMALL_PRIMES, st.integers(1, 4), st.integers(1, 100))
def test_core_odd_symmetry(p, k, n_seed):
    n = n_seed % (p - 1) + 1
    core = build_core_table(make_modulus(p, k)).core
    assert (core[n - 1] + core[p - n - 1]) % p**k == 0


@settings(max_examples=60)
@given(st.sampled_from([3, 5, 7, 11]), st.integers(1, 3), st.integers(1, 10**9))
def test_core_factor_is_idempotent_part(p, k, seed):
    mod = make_modulus(p, k)
    x = seed % mod.modulus
    if x % p == 0:
        x += 1
    table = build_core_table(mod)
    core = table.core[x % p - 1]
    ext = x * pow(core, -1, mod.modulus) % mod.modulus
    assert core * ext % mod.modulus == x % mod.modulus
    assert pow(core, p, mod.modulus) == core
    assert pow(ext, p ** (k - 1), mod.modulus) == 1
    # the split is unique: a core element splits as (core, 1)
    assert table.core[core % p - 1] == core


@given(SMALL_PRIMES, st.integers(0, 10**6), st.integers(0, 10**6))
def test_translation_classes_add(p, a, b):
    k = 2
    m = p**k
    x, y = a % m, b % m
    assert ((x + y) % m) % p == (x % p + y % p) % p


@settings(deadline=None)
@given(st.sampled_from(primes_in_range(3, 200)), st.integers(1, 5), st.integers(1, 10**12))
def test_multiplicative_order_matches_sympy(p, k, seed):
    mod = make_modulus(p, k)
    x = seed % mod.modulus
    if x % p == 0:
        x += 1
    assert split_order(p, k, core_order(p, x), pow(x, p - 1, mod.modulus)) == oracles.naive_order(x, mod.modulus)

"""Counted property suites.

Each suite runs a randomized battery against one structural claim and
returns (cases, failures). The acceptance gate requires every suite to
report at least 500 cases and zero failures. A fixed seed keeps runs
reproducible; bump SEED only on purpose.
"""

from __future__ import annotations

import random

import oracles
from pkcore.corefst import build_core_table
from pkcore.modring import base_p_encode, core_order, make_modulus, split_order
from pkcore.primes import primes_in_range

SEED = 0x5EED
SMALL_PRIMES = primes_in_range(3, 200)
TINY_PRIMES = primes_in_range(3, 40)


def suite_core_symmetries(cases: int = 600) -> tuple[int, int]:
    """A(p-n) = -A(n) mod p^k and d(n) = d(p-1-n), on the core table."""
    rng = random.Random(SEED)
    failures = 0
    for _ in range(cases):
        p = rng.choice(SMALL_PRIMES)
        k = rng.randint(1, 4)
        mod = make_modulus(p, k)
        core = (0, *build_core_table(mod).core)  # core[n] = A(n)
        n = rng.randint(1, p - 1)
        an = core[n]
        am = core[p - n]
        ok = (an + am) % mod.modulus == 0
        if k >= 2 and 1 <= n <= p - 2:
            dn = (core[n + 1] - an) % mod.modulus
            mirrored = (core[p - n] - core[p - n - 1]) % mod.modulus
            ok = ok and dn == mirrored
        failures += not ok
    return cases, failures


def suite_recurrence_vs_direct(cases: int = 600) -> tuple[int, int]:
    """Digit ladder equals n^(p^(k-1)) mod p^k and the core table's A_k(n),
    and truncates consistently."""
    rng = random.Random(SEED + 1)
    failures = 0
    for _ in range(cases):
        p = rng.choice(SMALL_PRIMES)
        k = rng.randint(1, 5)
        n = rng.randint(1, p - 1)
        lad = oracles.core_by_recurrence(p, n, k)
        direct = pow(n, p ** (k - 1), p**k)
        ok = lad == direct == build_core_table(make_modulus(p, k)).core[n - 1]
        j = rng.randint(1, k)
        ok = ok and lad % p**j == oracles.core_by_recurrence(p, n, j)
        failures += not ok
    return cases, failures


def suite_carry_step_identity(cases: int = 600) -> tuple[int, int]:
    """One multiplicative step with the level-independent carry, per level."""
    rng = random.Random(SEED + 2)
    failures = 0
    for _ in range(cases):
        p = rng.choice(SMALL_PRIMES)
        n = rng.randint(1, p - 1)
        i = rng.randint(1, 4)
        failures += not oracles.recurrence_step_identity(p, n, i)
    return cases, failures


def suite_pairsum_reflection(cases: int = 500) -> tuple[int, int]:
    """F+F and F-F agree as subsets of Z/p^k."""
    rng = random.Random(SEED + 3)
    failures = 0
    done = 0
    while done < cases:
        p = rng.choice(TINY_PRIMES)
        k = rng.randint(2, 3)
        m = p**k
        f = sorted(oracles.naive_pth_powers(p, k))
        for _ in range(min(cases - done, 40)):
            a = rng.choice(f)
            b = rng.choice(f)
            s = (a + b) % m
            d = (a - b) % m
            in_sums = any((s - c) % m in set(f) for c in f)
            in_diffs = any((d + c) % m in set(f) for c in f)
            failures += not (in_sums and in_diffs)
            done += 1
    return done, failures


def suite_core_membership(cases: int = 600) -> tuple[int, int]:
    """Three routes agree: fixed-point test, the core table's row of x,
    and the A*B split read off the core table (x is core iff its extension
    part is 1)."""
    rng = random.Random(SEED + 4)
    failures = 0
    for _ in range(cases):
        p = rng.choice(TINY_PRIMES)
        k = rng.randint(1, 3)
        mod = make_modulus(p, k)
        core = build_core_table(mod).core
        x = rng.randint(1, mod.modulus - 1)
        via_pow = x % p != 0 and pow(x, p, mod.modulus) == x
        via_table = x % p != 0 and core[x % p - 1] == x
        ok = via_pow == via_table
        if x % p:
            ext = x * pow(core[x % p - 1], -1, mod.modulus) % mod.modulus
            ok = ok and via_pow == (ext == 1)
        failures += not ok
    return cases, failures


def _order(p: int, k: int, x: int) -> int:
    """ord(x mod p^k) by the product's route: core order times extension order."""
    return split_order(p, k, core_order(p, x), pow(x, p - 1, p**k))


def suite_inverse_pair_orders(cases: int = 500) -> tuple[int, int]:
    """For r and its cofactor s in p^2-1 (both > 1): -s is the inverse of r
    mod p^2 so their orders agree there, and both orders gain exactly a
    factor p when lifted to p^3."""
    rng = random.Random(SEED + 5)
    failures = 0
    done = 0
    while done < cases:
        p = rng.choice(SMALL_PRIMES)
        n = p * p - 1
        for r in oracles.naive_divisors(n):
            s = n // r
            if r == 1 or s == 1:
                continue
            or2 = _order(p, 2, r)
            ok = _order(p, 2, -s) == or2
            ok = ok and _order(p, 3, r) == p * or2
            os2 = _order(p, 2, s)
            ok = ok and _order(p, 3, s) == p * os2
            failures += not ok
            done += 1
            if done >= cases:
                break
    return done, failures


def suite_codec_roundtrip(cases: int = 600) -> tuple[int, int]:
    rng = random.Random(SEED + 6)
    failures = 0
    for _ in range(cases):
        p = rng.choice([q for q in SMALL_PRIMES if q <= 31])
        k = rng.randint(1, 6)
        mod = make_modulus(p, k)
        x = rng.randint(0, mod.modulus - 1)
        text = base_p_encode(mod, x)
        failures += oracles.naive_base_p_decode(text, p) != x
    return cases, failures


ALL_SUITES = {
    "core_symmetries": suite_core_symmetries,
    "recurrence_vs_direct": suite_recurrence_vs_direct,
    "carry_step_identity": suite_carry_step_identity,
    "pairsum_reflection": suite_pairsum_reflection,
    "core_membership": suite_core_membership,
    "inverse_pair_orders": suite_inverse_pair_orders,
    "codec_roundtrip": suite_codec_roundtrip,
}


def run_all() -> dict[str, tuple[int, int]]:
    return {name: fn() for name, fn in ALL_SUITES.items()}

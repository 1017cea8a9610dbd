"""Primality, the prime sieve, and integer factorization.

Trial division by the primes up to 47 decides every n below 53^2;
deterministic Miller-Rabin below 2^64 (fixed witness set), Baillie-PSW
above. Factorization is trial division to a bound, then Pollard rho with
Brent's cycle detection; a cofactor left once trial division has passed
its square root is prime and is not tested again. primes_in_range is
the one sieve: it runs under every scan block, takes its base primes
from itself, and serves factor_table. It flags only the odd numbers of
its window (half the bytes and slice writes of a full segment) and adds
2 by hand, building its result in one list. factor_table gives a prime
factor of every composite up to n, and power_table reads it: a
completely multiplicative map n -> n^e mod m needs a pow at primes only.
Divisors are enumerated where they are used, on the factored lattice in
generators. Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import math
import random
from array import array
from itertools import compress

from .errors import FactorizationFailure

# these witnesses decide primality for every n < 2^64
_MR_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_TRIAL_BOUND = 10 ** 6

RHO_MAX_ITERS = 1 << 21  # per Pollard rho round
RHO_MAX_ROUNDS = 64  # per factorize call


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _lucas_strong_probable(n: int) -> bool:
    # standard parameter search for the strong Lucas test
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4

    k = n + 1
    s = 0
    while k % 2 == 0:
        k //= 2
        s += 1

    # Lucas sequences by binary ladder; n is odd, so 1/2 = (n+1)/2 mod n
    half = (n + 1) // 2
    u, v, qk = 0, 2, 1
    for bit in bin(k)[2:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) * half % n, (d * u + p * v) * half % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 2809:  # 53^2: no prime factor up to 47, so none up to sqrt(n)
        return True
    if n < 2 ** 64:
        return _miller_rabin(n, _MR_WITNESSES_64)
    # BPSW: base-2 strong probable prime + strong Lucas
    if not _miller_rabin(n, (2,)):
        return False
    if math.isqrt(n) ** 2 == n:
        return False
    return _lucas_strong_probable(n)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, by a segmented sieve over the odd
    numbers of [lo, hi]; 2 is added by hand. The odd base primes up to
    sqrt(hi) come from the same function, about log log hi calls deep."""
    if hi < 2 or hi < lo:
        return []
    out = [2] if lo <= 2 else []
    first = max(lo, 3) | 1  # flag i stands for first + 2i
    n = (hi - first) // 2 + 1  # none when first > hi
    flags = bytearray([1]) * n
    for p in primes_in_range(3, math.isqrt(hi)):
        start = max(p * p, (first + p - 1) // p * p)
        if start % 2 == 0:  # the first odd multiple; odd multiples of p are 2p apart, p flags apart
            start += p
        i = (start - first) // 2
        flags[i::p] = bytes(len(range(i, n, p)))
    out += compress(range(first, hi + 1, 2), flags)
    return out


_factor_table = array("I")


def _build_factor_table(size: int) -> array:
    table = array("I", [0]) * size
    for q in reversed(primes_in_range(2, math.isqrt(size - 1))):  # descending, so the smallest factor is written last
        table[q * q :: q] = array("I", [q]) * len(range(q * q, size, q))
    return table


def factor_table(n: int) -> array:
    """A table f with f[m] a prime factor (the smallest) of every composite
    m <= n, and f[m] = 0 for primes and for m < 2.

    One shared 32-bit array, rebuilt at least twice as long when a call
    needs more, so repeated calls with growing n cost amortised O(n).
    """
    global _factor_table
    if len(_factor_table) <= n:
        _factor_table = _build_factor_table(max(n + 1, 2 * len(_factor_table)))
    return _factor_table


def power_table(e: int, m: int, top: int) -> list[int]:
    """n^e mod m for n = 0..top (e >= 1, m >= 2, top >= 1), a pow at prime n only:
    a composite n = f*(n/f), f from factor_table, has n^e = f^e * (n/f)^e."""
    factor = factor_table(top)
    powers = [0, 1]
    for n in range(2, top + 1):
        f = factor[n]
        powers.append(powers[f] * powers[n // f] % m if f else pow(n, e, m))
    return powers


def _pollard_rho_brent(n: int, rng: random.Random, max_iters: int) -> int:
    """One Brent round with a fresh (start, offset). Returns a nontrivial
    factor, or 0 when the iteration budget runs out before a cycle splits."""
    if n % 2 == 0:
        return 2
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    x = ys = y
    steps = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        steps += r
        if steps > max_iters:
            return 0
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g if g != n else 0


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent}. Raises FactorizationFailure
    if Pollard rho cannot split a composite within RHO_MAX_ROUNDS rounds
    of at most RHO_MAX_ITERS iterations each. The rho generator is seeded
    with a constant, so results are deterministic."""
    if n < 1:
        raise FactorizationFailure(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    wi = 0
    while d * d <= n and d <= _TRIAL_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += wheel[wi]
        wi = (wi + 1) % 8
    if d * d > n:  # no factor below sqrt(n) is left, so n is 1 or prime
        if n > 1:
            out[n] = 1
        return out
    rng = None
    stack = [n]
    rounds = 0
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        rng = rng or random.Random(0xC0FFEE)
        g = 0
        while g == 0:
            rounds += 1
            if rounds > RHO_MAX_ROUNDS:
                raise FactorizationFailure(f"rho budget exhausted splitting {m}")
            g = _pollard_rho_brent(m, rng, RHO_MAX_ITERS)
        stack.append(g)
        stack.append(m // g)
    return out

"""Core function A_k(n), carry digits, increments, and critical precision.

A_k(n) = n^(p^(k-1)) mod p^k for 1 <= n < p is the unique core element
congruent to n mod p. Raising to the p-th power gains exactly one
significant base-p digit per step while freezing the digits already
settled (the ladder), and the first digit of n^(p-1) mod p^2 (the
carry n') is a handle on how the core increments d_k(n) = A_k(n+1) -
A_k(n) distribute over precisions. Both powers are completely
multiplicative, so every per-n table here is a primes.power_table, with
a pow at prime n only; the ladder and the per-n carry are test oracles
(tests/oracles.py).

Critical precision K_p is the least k at which the h = (p-1)/2 first-half
increments are pairwise distinct mod p^k. It is already determined by the
differences e_1(n) = (n+1)^p - n^p: distinctness levels of the e_i are
preserved from each i to the next, so the module computes K_p from e_1
alone and the tests verify the preservation claim numerically. Only e_1
mod p^K is needed, for a K at or above K_p, with K doubling from 4 until
the h values separate, so there is no size limit on p. Every e_i table
is one power_differences call.
Each level k counts its distinct residues as the size of the set
{e_1(n) mod p^k}; only the levels below K_p look for a witness,
scanning n = 1..h ascending and stopping at the first repeated residue.
That is the pair an exhaustive scan keeping the latest n per residue
records, since at the first repeat the residue has exactly one earlier
n. The exact integers (about p*log10(p) digits each) and the exhaustive
scan survive only as a test oracle.
build_core_table, memoised per modulus, is the one builder of A_k, its
carries, its increments and D_k. F_k is the preimage of the core A_2,
so waring reads its base A_q, q = p^min(k, 2), off the core table of q
too; x is in F_k exactly when x mod q is in A_q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CheckFailure, OutOfRange
from .modring import PrimePowerModulus, make_modulus
from .primes import power_table


@dataclass(frozen=True)
class CoreTable:
    """Core values, carries, and increments for one modulus.

    core[i] is A_k(n) for n = i+1 (p-1 entries); carries[i] is the carry
    of n = i+1; increments[i] is d_k(n) for n = i (p entries), with the
    wrap convention A_k(0) = A_k(p) = 0, so d_k(0) = d_k(p-1) = 1.
    distinct_increments is D_k, the set of first-half increments d_k(1..h),
    h = (p-1)/2; A_k(p-n) = -A_k(n) gives d_k(n) = d_k(p-1-n), so it is
    also the set of all of d_k(1..p-2).
    """

    mod: PrimePowerModulus
    core: tuple[int, ...]
    carries: tuple[int, ...]
    increments: tuple[int, ...]
    distinct_increments: frozenset[int]


def build_core_table(mod: PrimePowerModulus) -> CoreTable:
    """The core table of mod, built once per modulus and then shared.

    The only place the core is computed, as the power tables of
    n^(p^(k-1)) mod p^k and n^(p-1) mod p^2 (the carries); the CLI, F's
    base and the pairsum counts all read it. No
    extension X^(e) is built as a set: it is the preimage of the core of
    p^(k-e), so the pairsum counts read that table instead.
    """
    return _core_table(mod)


@lru_cache(maxsize=256)
def _core_table(mod: PrimePowerModulus) -> CoreTable:
    p, k, m = mod.p, mod.k, mod.modulus
    ext = power_table(p ** (k - 1), m, p - 1) + [0]  # A(0) = 0 and A(p) = 0 close the period
    fermat = power_table(p - 1, p * p, p - 1)
    # no pow per n checks the products: a wrong one shows as A_k(n) != n mod p
    for n in range(1, p):
        if ext[n] % p != n or fermat[n] % p != 1:
            raise CheckFailure(f"power table inconsistent at p={p}, k={k}, n={n}")
    increments = tuple((ext[n + 1] - ext[n]) % m for n in range(p))
    return CoreTable(
        mod=mod,
        core=tuple(ext[1:p]),
        carries=tuple((v - 1) // p for v in fermat[1:]),
        increments=increments,
        distinct_increments=frozenset(increments[1 : (p + 1) // 2]),
    )


def power_differences(e: int, m: int, top: int) -> list[int]:
    """(n+1)^e - n^e mod m for n = 1..top: the one source of every e_i table."""
    powers = power_table(e, m, top + 1)
    return [(b - a) % m for a, b in zip(powers[1:], powers[2:])]


@dataclass(frozen=True)
class CriticalPrecisionResult:
    p: int
    kp: int
    # per precision k: how many of the h first-half increments are distinct
    distinct_counts: dict[int, int]
    # per pre-critical k: one colliding non-symmetric pair (n, m)
    witnesses: dict[int, tuple[int, int]]


def critical_precision(p: int) -> CriticalPrecisionResult:
    """Smallest k >= 2 with all of e_1(1..h) pairwise distinct mod p^k.

    e_1 is computed mod p^K with K = 4, 8, ... (capped at p) until the h
    values are distinct; every level k <= K then reads the same residues
    the exact integers would give, since (x mod p^K) mod p^k = x mod p^k.
    """
    make_modulus(p, 1)  # validates p
    h = (p - 1) // 2
    top = min(4, p)
    while True:
        e1 = power_differences(p, p ** top, h)
        if len(set(e1)) == h or top == p:
            break
        top = min(2 * top, p)
    counts: dict[int, int] = {}
    witnesses: dict[int, tuple[int, int]] = {}
    for k in range(2, top + 1):
        mk = p ** k
        counts[k] = len({v % mk for v in e1})
        if counts[k] == h:
            if k >= p:
                raise CheckFailure(f"critical precision bound violated: K_{p} = {k} >= p")
            return CriticalPrecisionResult(p=p, kp=k, distinct_counts=counts, witnesses=witnesses)
        seen: dict[int, int] = {}
        for n, v in enumerate(e1, start=1):
            r = v % mk
            if r in seen:  # the first repeat: r has exactly one earlier n
                witnesses[k] = (seen[r], n)
                break
            seen[r] = n
    raise CheckFailure(f"no critical precision below p for p = {p}")


def integer_increments(p: int, i: int, k: int) -> list[int]:
    """e_i(n) = (n+1)^(p^i) - n^(p^i) mod p^k for n = 1..p-1.

    The values stop changing at i = k-1, so the powers are taken at
    i' = min(i, max(k-1, 1)). For a unit n, n^(p^(k-1)) = A_k(n) mod p^k,
    and the core is fixed by the p-th power, so n^(p^i) = A_k(n) for
    every i >= k-1. For n = p, p^(p^i) = 0 mod p^k as soon as p^i >= k,
    and p^(k-1) >= k for p >= 3. Both hold at i' (at k = 1 every i >= 1
    gives n and 0), so any i costs what i' does.
    """
    make_modulus(p, 1)  # validates p
    if i < 1:
        raise OutOfRange(f"need i >= 1, got {i}")
    if k < 1:
        raise OutOfRange(f"need k >= 1, got {k}")
    return power_differences(p ** min(i, max(k - 1, 1)), p ** k, p - 1)

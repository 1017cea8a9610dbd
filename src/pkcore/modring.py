"""Arithmetic mod p^k and the multiplicative structure G = A.B.

The unit group G_k mod p^k (odd prime p) is cyclic of order (p-1)*p^(k-1)
and splits as a direct product of the core A_k (the unique subgroup of
order p-1, whose elements satisfy n^p = n mod p^k) and the extension
B_k = {units = 1 mod p} of order p^(k-1), generated by p+1. Between A_k
and G_k sit the core extensions X^(e) = A_k * Y^(e) with Y^(e) generated
by p^(k-e)+1; X^(k-2) is the subgroup of p-th power residues F_k.

Here live the moduli and orders; A_k and the base of F_k are read off
corefst's core table. make_modulus builds a descriptor at any
size, once per (p, k) (a refusal is never cached: it raises on every
call); the CLI's size check on (p, k) is cli.cell_modulus. A residue is a
plain int in [0, p^k): base_p_encode takes (mod, x) and reduces any
int x mod p^k itself. An order is read off the split:
the order d of r mod p (core_order, a peel of the primes of p-1 mod p)
times the order of r^(p-1) in B_k (split_order), so a caller that
already holds r^(p-1), such as the divisor lattice in generators, pays
no further pow mod p^k, and a caller that already knows d pays no peel.

The partner rule gives d for free when r*s = -1 mod p: ord(s mod p) =
ord(-r mod p) is 2d for odd d, d/2 for d = 2 mod 4, and d for 4 | d.
Proof: G_1 is cyclic of even order p-1, so -1 is its one involution,
and every element of even order t has r^(t/2) = -1. For odd d, -1 is
not in <r>, so -r has order lcm(2, d) = 2d. For d = 2 mod 4,
(-r)^(d/2) = (-1)^(d/2) r^(d/2) = (-1)(-1) = 1, and r = -(-r) has
order 2*ord(-r) by the odd case, so ord(-r) = d/2. For 4 | d, ord(-r)
divides d, and d divides lcm(2, ord(-r)), which forces 4 | ord(-r) and
ord(-r) = d. The divisor audit in generators uses it for each cofactor
pair of p^2 - 1 = -1 mod p. No X^(e) is built as a set: reduction
mod p^(k-e) has kernel Y^(e) and maps A_k onto A_(k-e), so X^(e) is the
preimage of the core of p^(k-e) (see pairsums).

This module also owns the base-p text form the CLI renders residues in:
fixed-width strings, most significant digit first, digits 0-9 then a-z
for p <= 36, dot-separated decimal digit groups for larger p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import NotPrime, OutOfRange
from .primes import factorize, is_prime


@dataclass(frozen=True)
class PrimePowerModulus:
    """Validated ring descriptor for Z mod p^k."""

    p: int
    k: int
    modulus: int
    units_order: int

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"PrimePowerModulus(p={self.p}, k={self.k})"


def make_modulus(p: int, k: int) -> PrimePowerModulus:
    """Validate (p, k) and build the descriptor, at any size. Two descriptors
    of one modulus are equal, and share their cached tables."""
    return _modulus(p, k)  # a plain function: the tracer and tests/test_surface.py see functions only


@lru_cache(maxsize=1024)
def _modulus(p: int, k: int) -> PrimePowerModulus:
    if p == 2:
        raise OutOfRange("p = 2 is not supported (unit group not cyclic for k >= 3)")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise OutOfRange(f"precision exponent k must be >= 1, got {k}")
    return PrimePowerModulus(p=p, k=k, modulus=p ** k, units_order=(p - 1) * p ** (k - 1))


@lru_cache(maxsize=1024)
def _unit_group_primes_mod_p(p: int) -> tuple[int, ...]:
    """The primes dividing p-1, the order of the units mod p."""
    return tuple(factorize(p - 1))


def core_order(p: int, a: int) -> int:
    """ord(a mod p) for a unit a, by peeling the primes of p-1 with arithmetic mod p."""
    a %= p
    d = p - 1
    for q in _unit_group_primes_mod_p(p):
        while d % q == 0 and pow(a, d // q, p) == 1:
            d //= q
    return d


def split_order(p: int, k: int, d: int, w: int) -> int:
    """Order of a unit r mod p^k through G_k = A_k * B_k, given the order
    d = ord(r mod p) of its core part (core_order) and w = r^(p-1) mod p^k.

    w = (r^d)^((p-1)/d) lies in B_k, which is cyclic of order p^(k-1),
    and has the order of r^d there since (p-1)/d is prime to p;
    1 + a*p^j with p not dividing a has order p^(k-j). d is prime to p,
    so ord(r) = d * ord(w), and ord(w) = 1 when w = 1.
    """
    rest = w - 1
    if rest == 0:
        return d
    j = 0
    while rest % p == 0:
        rest //= p
        j += 1
    return d * p ** (k - j)


# --- base-p text --------------------------------------------------------

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_LETTER_CAP = 36  # 0-9 and a-z cover digit values 0..35


def base_p_encode(mod: PrimePowerModulus, x: int) -> str:
    """Fixed-width base-p string of x mod p^k, msd first, exactly k digits."""
    p, k = mod.p, mod.k
    digits = []
    v = x % mod.modulus
    for _ in range(k):
        digits.append(v % p)
        v //= p
    digits.reverse()
    if p <= _LETTER_CAP:
        return "".join(_DIGITS[d] for d in digits)
    return ".".join(str(d) for d in digits)

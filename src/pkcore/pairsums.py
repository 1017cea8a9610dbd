"""Pairsum coset structure: D_k, core sums, p-th power sums.

The distinct core increments D_k = (A-A) ∩ B generate the cosets that
make up the unit part of every extension pairsum set X+X, all the way up
from the core itself to the p-th powers F. Counting facts verified here:

  |(A+A)\\0| = |A| * |D_k|, which is (p-1)^2/2 once k reaches critical
  precision (every nonzero core sum is a unit: opposite cores cancel
  exactly, so a zero mod p is a zero outright).

  |(F+F) ∩ G| = |F| * |D_2| for k >= 2: increments congruent mod p^2
  differ by a factor in the 1-mod-p^2 subgroup, which lies inside F, so
  the number of distinct F-cosets is pinned at precision 2. At k = 1, F
  is every unit and D_1 = {1}, so the count is p-1.

F+F also contains 0 and, for k >= 3, nonzero multiples of p^2 (two
p-th powers with cancelling cores). Those non-unit sums are counted and
reported separately; they are not part of the coset identity.

Every check reads the core at a small precision, because each extension
level is a preimage. Reduction mod p^j, j = k-e, maps G_k onto G_j with
kernel Y^(e) and maps A_k onto A_j, so X^(e) = A_k * Y^(e) is exactly
the preimage of A_j, and D_k reduces to D_j. Hence:

  X+X is the preimage of A_j+A_j (lift a sum a+b by any x over a; then
  the rest lies over b), and each coset X*d is the preimage of A_j*d.

Every fibre has p^e residues, so both counts are p^e times the matching
counts in Z/p^j, where A_j is the kernel of z -> z^(p-1) on the cyclic
G_j and z^(p-1) mod p^j labels the coset A_j*z. The unit part of A_j+A_j
is the union of the cosets A_j*(1+a) (a+b = a*(1+b/a)), so the check
compares the labels (1+a)^(p-1) with the labels d^(p-1), d in D_j:
fewer than p-1 label powers mod p^j at every level, whatever e. The core
count is the e = 0 case, and F is X^(k-2) (every unit at k = 1), so the
F+F count is the same check.

The cores and D_j all come from corefst's cached core table of p^j;
nothing here computes a core element itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corefst import build_core_table, critical_precision
from .errors import BadExponent
from .modring import PrimePowerModulus, make_modulus

__all__ = [
    "FermatPairsumResult",
    "ExtensionPairsumVerdict",
    "core_pairsum_count",
    "fermat_pairsum_count",
    "extension_pairsum_check",
]


def core_pairsum_count(mod: PrimePowerModulus, *, kp: int | None = None) -> tuple[int, int]:
    """(observed, predicted) distinct nonzero sums of two core elements.

    Both come from extension_pairsum_check(mod, 0); every nonzero core
    sum is a unit, so there is nothing else to count. Observed is its
    unit_sum_count. Predicted is (p-1)^2/2 at or above critical
    precision, and below it the check's coset_union_count, which is
    |A| * |D_k| because x -> x^(p-1) is injective on B_k, which holds
    D_k and has order prime to p-1. kp, if given, is the critical
    precision K_p, which is otherwise computed here.
    """
    verdict = extension_pairsum_check(mod, 0)
    if kp is None:
        kp = critical_precision(mod.p).kp
    if mod.k >= kp:
        return verdict.unit_sum_count, (mod.p - 1) ** 2 // 2
    return verdict.unit_sum_count, verdict.coset_union_count


@dataclass(frozen=True)
class FermatPairsumResult:
    observed: int  # distinct unit sums of two p-th power residues
    predicted: int  # |F| * |D_j|, j = min(k, 2)
    nonunit_nonzero: int  # nonzero non-unit sums (multiples of p^2), reported

    @property
    def matches(self) -> bool:
        return self.observed == self.predicted


def fermat_pairsum_count(mod: PrimePowerModulus) -> FermatPairsumResult:
    """Count the unit part of F+F and compare it to |F|*|D_j|, j = min(k, 2).

    F is X^(k-2) for k >= 2 and every unit (X^(0)) at k = 1, so both
    counts are those of extension_pairsum_check at e = max(k-2, 0): the
    cosets come from D_j (D_1 = {1}, and F+F covers all p-1 units at
    k = 1), and its coset_union_count is |F|*|D_j| because x -> x^(p-1)
    is injective on the 1-mod-p units B_j, of order p^(j-1) prime to
    p-1, which hold D_j. F is the preimage of A_q, q = p^j, and a sum of
    two of its elements is 0 mod p only over A(n) + A(p-n) = 0 mod q, so
    the non-unit sums are exactly the multiples of q (lift any x over
    A(n); the rest lies over A(p-n)): p^k/q - 1 nonzero ones, tallied in
    nonunit_nonzero, outside the identity.
    """
    verdict = extension_pairsum_check(mod, max(mod.k - 2, 0))
    return FermatPairsumResult(
        observed=verdict.unit_sum_count,
        predicted=verdict.coset_union_count,
        nonunit_nonzero=mod.modulus // mod.p ** min(mod.k, 2) - 1,
    )


@dataclass(frozen=True)
class ExtensionPairsumVerdict:
    mod: PrimePowerModulus
    e: int
    passed: bool
    unit_sum_count: int
    coset_union_count: int


def extension_pairsum_check(mod: PrimePowerModulus, e: int) -> ExtensionPairsumVerdict:
    """Verify the unit part of X^(e)+X^(e) equals the union of cosets
    X^(e)*d over the distinct core increments d in D_k.

    The same generator set serves every extension level; e = 0 is the
    core statement, e = k-2 the p-th power one. X^(e) is the preimage of
    the core A_j, j = k-e, and D_k reduces to D_j (module docstring), so
    the check reads the core table of p^j: it compares {(1+a)^(p-1)},
    a in A_j, with {d^(p-1) : d in D_j} mod p^j, and each count is
    |X^(e)| = (p-1)*p^e times its number of labels.
    """
    if not 0 <= e <= mod.k - 1:
        raise BadExponent(f"extension level e must be in [0, k-1], got {e}")
    p = mod.p
    table = build_core_table(make_modulus(p, mod.k - e))
    m = table.mod.modulus
    labels = {pow(1 + a, p - 1, m) for a in table.core if (1 + a) % p}
    gens = {pow(d, p - 1, m) for d in table.distinct_increments}
    size = (p - 1) * p ** e
    return ExtensionPairsumVerdict(
        mod=mod,
        e=e,
        passed=labels == gens,
        unit_sum_count=size * len(labels),
        coset_union_count=size * len(gens),
    )

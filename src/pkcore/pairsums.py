"""Pairsum coset structure: D_k, core sums, p-th power sums.

The distinct core increments D_k = (A-A) ∩ B generate the cosets that
make up the unit part of every extension pairsum set X+X, all the way up
from the core itself to the p-th powers F. Counting facts verified here:

  |(A+A)\\0| = |A| * |D_k|, which is (p-1)^2/2 once k reaches critical
  precision (every nonzero core sum is a unit: opposite cores cancel
  exactly, so a zero mod p is a zero outright).

  |(F+F) ∩ G| = |F| * |D_2|: increments congruent mod p^2 differ by a
  factor in the 1-mod-p^2 subgroup, which lies inside F, so the number
  of distinct F-cosets is pinned at precision 2.

F+F also contains 0 and, for k >= 3, nonzero multiples of p^2 (two
p-th powers with cancelling cores). Those non-unit sums are counted and
reported separately; they are not part of the coset identity.

The core, X^(e) and D_k all come from corefst's cached core table (D_k
at precision 2 from the table of p^2); nothing here computes a core
element itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .corefst import build_core_table, core_extension_members, critical_precision
from .modring import PrimePowerModulus, make_modulus
from .waring import _tile, reduced_sumsets

__all__ = [
    "FermatPairsumResult",
    "ExtensionPairsumVerdict",
    "core_pairsum_count",
    "fermat_pairsum_count",
    "extension_pairsum_check",
]


def core_pairsum_count(mod: PrimePowerModulus) -> tuple[int, int]:
    """(observed, predicted) distinct nonzero sums of two core elements.

    Predicted is (p-1)^2/2 at or above critical precision, |A| * |D_k|
    below it. Exhaustive over the (p-1)p/2 pairs a <= b.
    """
    mod.require_tables()
    p, m = mod.p, mod.modulus
    table = build_core_table(mod)
    sums = {(a + b) % m for a, b in combinations_with_replacement(table.core, 2)}
    sums.discard(0)
    observed = len(sums)
    kp = critical_precision(p).kp
    if mod.k >= kp:
        predicted = (p - 1) ** 2 // 2
    else:
        predicted = (p - 1) * len(table.distinct_increments)
    return observed, predicted


@dataclass(frozen=True)
class FermatPairsumResult:
    observed: int  # distinct unit sums of two p-th power residues
    predicted: int  # |F| * |D_2|
    nonunit_nonzero: int  # nonzero non-unit sums (multiples of p^2), reported

    @property
    def matches(self) -> bool:
        return self.observed == self.predicted


def fermat_pairsum_count(mod: PrimePowerModulus) -> FermatPairsumResult:
    """Count the unit part of F+F and compare it to |F|*|D_2|.

    F+F is the preimage of S_2, the sumset A_q + A_q in Z/q with
    q = p^min(k, 2) (see waring), so each class of S_2 counts p^k/q
    residues. The unit sums form whole F-cosets; their coset generators
    are the increments read at precision 2, regardless of k. Sums that
    are zero mod p come from exactly opposite core parts and land on
    multiples of p^2; they are tallied in nonunit_nonzero, outside the
    identity.
    """
    mod.require_tables()
    p = mod.p
    q, _, levels = reduced_sumsets(mod, 2)
    s2 = levels[1]
    lift = mod.modulus // q
    nonunit_classes = (s2 & _tile(1, p, q)).bit_count()
    d2 = len(build_core_table(make_modulus(p, 2, arithmetic_only=True)).distinct_increments)
    return FermatPairsumResult(
        observed=lift * (s2.bit_count() - nonunit_classes),
        predicted=mod.pth_power_order * d2,
        nonunit_nonzero=lift * nonunit_classes - (s2 & 1),  # 0 itself is not counted
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
    core statement, e = k-2 the p-th power one.
    """
    mod.require_tables()
    m = mod.modulus
    x = sorted(core_extension_members(mod, e))
    sums = {(a + b) % m for a, b in combinations_with_replacement(x, 2)}
    units = {s for s in sums if s % mod.p}
    union: set[int] = set()
    for d in build_core_table(mod).distinct_increments:
        union.update(v * d % m for v in x)
    return ExtensionPairsumVerdict(
        mod=mod,
        e=e,
        passed=units == union,
        unit_sum_count=len(units),
        coset_union_count=len(union),
    )

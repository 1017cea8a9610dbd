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

The core count and the extension check add no pairs. Each X = X^(e) is
a subgroup of the cyclic unit group G_k, so X+X = X*(1+X):

  x + y = x*(1 + y/x) with y/x in X, hence the unit part of X+X is the
  union of the cosets X*(1+u) over the u in X with 1+u a unit.

In a cyclic group the kernel of z -> z^|X| is the unique subgroup of
order |X|, which is X, so z^|X| mod p^k labels the coset X*z. The unit
part of X+X is then |X| times the number of labels (1+u)^|X|, one
modular power per element of X instead of |X|^2/2 additions; the core
count is the e = 0 case.

The core, X^(e), D_k and the A_q behind the F+F count all come from
corefst's cached core table (D_k at precision 2 from the table of p^2,
A_q from that of p^min(k, 2)); nothing here computes a core element
itself.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

from .corefst import build_core_table, core_extension_members, critical_precision
from .modring import PrimePowerModulus, make_modulus

__all__ = [
    "FermatPairsumResult",
    "ExtensionPairsumVerdict",
    "core_pairsum_count",
    "fermat_pairsum_count",
    "extension_pairsum_check",
]


def _sum_labels(x: Collection[int], mod: PrimePowerModulus) -> set[int]:
    """Coset labels (1+u)^|x| of the unit sums 1+u, u in the subgroup x:
    the cosets whose union is the unit part of x+x."""
    p, m, size = mod.p, mod.modulus, len(x)
    return {pow(1 + u, size, m) for u in x if (1 + u) % p}


def core_pairsum_count(mod: PrimePowerModulus, *, kp: int | None = None) -> tuple[int, int]:
    """(observed, predicted) distinct nonzero sums of two core elements.

    Predicted is (p-1)^2/2 at or above critical precision, |A| * |D_k|
    below it. Observed is |A| times the number of coset labels of A+A
    (the e = 0 case of extension_pairsum_check); every nonzero core sum
    is a unit, so there is nothing else to count. kp, if given, is the
    critical precision K_p, which is otherwise computed here.
    """
    mod.require_tables()
    p = mod.p
    table = build_core_table(mod)
    observed = (p - 1) * len(_sum_labels(table.core, mod))
    if kp is None:
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

    F+F is the preimage of A_q+A_q, A_q the core of Z/q, q = p^min(k, 2),
    so each class counts p^k/q residues. Its unit part is |A_q| times the
    coset labels (1+a)^(p-1), as in extension_pairsum_check; the coset
    generators are the increments at precision 2, regardless of k. Sums
    that are 0 mod p pair A(n) with A(p-n) and land on multiples of p^2;
    they are tallied in nonunit_nonzero, outside the identity.
    """
    mod.require_tables()
    p = mod.p
    small = make_modulus(p, min(mod.k, 2), arithmetic_only=True)
    q, core = small.modulus, build_core_table(small).core
    lift = mod.modulus // q
    zero_mod_p = {(a + b) % q for a, b in zip(core, reversed(core))}  # A(n) + A(p-n)
    d2 = len(build_core_table(make_modulus(p, 2, arithmetic_only=True)).distinct_increments)
    return FermatPairsumResult(
        observed=lift * (p - 1) * len(_sum_labels(core, small)),
        predicted=mod.pth_power_order * d2,
        nonunit_nonzero=lift * len(zero_mod_p) - (0 in zero_mod_p),
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
    core statement, e = k-2 the p-th power one. One pass over X: since
    x + y = x*(1 + y/x), the unit sums are the cosets X*(1+u), u in X,
    1+u a unit; and z^|X| labels the coset X*z, because in the cyclic
    G_k the kernel of z -> z^|X| is the one subgroup of order |X|. So
    the check compares {(1+u)^|X|} with {d^|X| : d in D_k}, and each
    count is |X| times its number of labels.
    """
    mod.require_tables()
    m = mod.modulus
    x = core_extension_members(mod, e)
    size = len(x)
    labels = _sum_labels(x, mod)
    gens = {pow(d, size, m) for d in build_core_table(mod).distinct_increments}
    return ExtensionPairsumVerdict(
        mod=mod,
        e=e,
        passed=labels == gens,
        unit_sum_count=size * len(labels),
        coset_union_count=size * len(gens),
    )

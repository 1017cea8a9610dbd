"""Sumset levels of the p-th power residues and coverage of Z mod p^k.

F+t below means the set of sums of t elements of F (F itself excludes 0
and all multiples of p). The headline coverage fact: every residue mod
p^k is a sum of at most four p-th power residues, split as F+3 covering
the multiples-of-p side and F+4 the rest, with overlaps for p > 3.

Precision 2 decides everything. Let q = p^min(k, 2) and A_q the p-th
powers of units mod q (the core A_2 for k >= 2, all units mod p at
k = 1). (a + bp)^p = a^p mod p^2, so F mod p^2 lies in A_2; F and the
preimage of A_2 in Z/p^k both have (p-1)*p^(k-2) elements, so F is
exactly that preimage. Each summand therefore ranges over whole classes
a + qZ, and F+t is the preimage of S_t, the t-fold sumset of A_q in
Z/q. The levels S_t are computed and cached as bitsets over [0, q).
sumset_levels reads its counts (|S_t| * p^k/q) and verdicts off them at
q; a level is tiled out to a p^k-bit mask only when CoverageReport.masks
is first read. F ∩ [1, q) = A_q, so scanning A_q ascending finds the
same witness as scanning F ascending. That scan reads only x mod q,
so a witness's first t-1 summands depend only on the class of x mod q
(the shared prefix) and only the last one, x minus their sum mod p^k,
depends on x itself: verify_multiples_of_p walks the multiples of p one
class mod q at a time, searching once per class, at most p times.

Every summand of every witness is checked to lie in F by its carry:
x is in F exactly when x^(p-1) = 1 mod q, one pow with a small exponent
mod q in place of x^|F| mod p^k. For k >= 2, F is the preimage of A_2
(above), and A_2 is the kernel of z -> z^(p-1) on the cyclic unit group
G_2 of order (p-1)p: its elements are those with carry n' = 0 in
n^(p-1) = n'p + 1 mod p^2. For k = 1, F is every unit mod p (Fermat).
A non-unit x gives x^(p-1) = 0 mod p, never 1. So the test accepts
exactly the residues of F.

Multiples of p decompose in two regimes. A first-shell multiple mp with
m not divisible by p is a three-summand sum: some positive triple
r+s+t = p has core sum congruent to a nonzero mp mod p^2, and the
1-mod-p^2 freedom inside F lifts it everywhere. Deeper multiples (of
p^2) need a core triple summing to 0 mod p^2; cube roots of unity
provide one whenever p = 1 mod 6. On the acceptance grid, p in {3, 5}
has none, so there the nonzero multiples of p^2 are unreachable with
three summands (they always sit in F+2, two exactly-opposite cores
plus free perturbation, hence in F+4). That list covers the grid only:
off it, p = 11 has none either, and all ten nonzero multiples of 121
mod 1331 lie outside F+3. verify_multiples_of_p reports both regimes
honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .corefst import build_core_table
from .errors import CheckFailure, NoTripleFound, OutOfRange
from .modring import PrimePowerModulus, make_modulus

__all__ = [
    "CoverageReport",
    "MultiplesReport",
    "ReducedSumsets",
    "reduced_sumsets",
    "sumset_levels",
    "verify_multiples_of_p",
    "decompose_residue",
    "least_decomposition",
]


class ReducedSumsets(NamedTuple):
    q: int  # p^min(k, 2)
    base: tuple[int, ...]  # A_q ascending, which is F ∩ [1, q)
    levels: tuple[int, ...] | list[int]  # levels[t-1] = S_t as a bitset over [0, q); a list in the cache


def _bitset(values, q: int) -> int:
    """The bitset over [0, q) with the given bits set, built in one pass."""
    buf = bytearray((q + 7) // 8)  # little-endian: bit v is bit v & 7 of byte v >> 3
    for v in values:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


@lru_cache(maxsize=4)  # an entry holds a few bitsets of q <= p^2 bits
def _level_cache(p: int, e: int) -> ReducedSumsets:
    """S_1 on Z/q, q = p^e, in a level list that reduced_sumsets extends in place.

    A_q is the core of q, read off its core table (1..p-1 at e = 1), so
    it passes the table's own check; F is its preimage (module docstring).
    """
    mod = make_modulus(p, e)
    q, base = mod.modulus, tuple(sorted(build_core_table(mod).core))
    return ReducedSumsets(q, base, [_bitset(base, q)])


def reduced_sumsets(mod: PrimePowerModulus, max_t: int) -> ReducedSumsets:
    """S_1..S_max_t on Z/q, cached per (p, q): F+t is the preimage of S_t.

    Every depth shares one cache entry, so no level is computed twice.
    S_2 comes from the |A|^2/2 pairs of A_q, O(p^2) steps where |A|
    shifts of a q-bit int would cost O(p^3/64) word operations; deeper
    levels are S_t + A_q by shift-or.
    """
    q, base, levels = _level_cache(mod.p, min(mod.k, 2))
    if len(levels) == 1 < max_t:
        pairs = ((a + b) % q for i, a in enumerate(base) for b in base[i:])
        levels.append(_bitset(pairs, q))
    while len(levels) < max_t:
        level, shifted = levels[-1], 0
        for a in base:
            shifted |= (level << a) | (level >> (q - a))
        levels.append(shifted & ((1 << q) - 1))
    return ReducedSumsets(q, base, tuple(levels[:max_t]))


def _tile(pattern: int, period: int, m: int) -> int:
    """The bitset over [0, m) that repeats pattern every period bits."""
    mask, width = pattern, period
    while width < m:
        mask |= mask << width
        width *= 2
    return mask & ((1 << m) - 1)


@dataclass(frozen=True)
class CoverageReport:
    mod: PrimePowerModulus
    sums: ReducedSumsets  # S_1..S_max_t on Z/q, which every field below is read off
    counts: dict[int, int]
    theorem_holds: bool  # F+3 union F+4 covers everything
    n0_covered_by3: bool  # all nonzero multiples of p in F+3
    conjecture_f3_in_f4: bool
    disjoint_f3_f4: bool
    witness_decompositions: dict[int, tuple[int, ...]]

    @cached_property
    def masks(self) -> dict[int, int]:
        """Level t -> bitset over [0, p^k) of F+t: S_t tiled out, on first read.
        O(p^k) bits per level."""
        q, m = self.sums.q, self.mod.modulus
        return {t: _tile(level, q, m) for t, level in enumerate(self.sums.levels, start=1)}


def sumset_levels(mod: PrimePowerModulus, max_t: int = 4) -> CoverageReport:
    """Levels F, F+2, ..., F+max_t and the coverage verdicts, all read at q."""
    if mod.k < 2:
        raise OutOfRange("sumset analysis needs k >= 2")
    if max_t < 4:
        raise OutOfRange("max_t below 4 cannot decide the coverage theorem")
    m = mod.modulus
    small = reduced_sumsets(mod, max_t)
    q, levels = small.q, small.levels
    s3, s4 = levels[2], levels[3]
    # the classes mod q of the nonzero multiples of p; at k = 2 class 0 holds only x = 0
    n0_mask = _tile(1, mod.p, q) ^ (q == m)
    witnesses: dict[int, tuple[int, ...]] = {}  # spot checks: each level's smallest member
    for t in range(2, max_t + 1):
        level = levels[t - 1]
        if level:
            probe = (level & -level).bit_length() - 1
            witnesses[probe] = decompose_residue(mod, probe, t)
    return CoverageReport(
        mod=mod,
        sums=small,
        counts={t: level.bit_count() * (m // q) for t, level in enumerate(levels, start=1)},
        theorem_holds=s3 | s4 == (1 << q) - 1,
        n0_covered_by3=s3 & n0_mask == n0_mask,
        conjecture_f3_in_f4=s3 & ~s4 == 0,
        disjoint_f3_f4=s3 & s4 == 0,
        witness_decompositions=witnesses,
    )


def _witness_prefix(mod: PrimePowerModulus, small: ReducedSumsets, r: int) -> tuple[int, ...]:
    """The first t-1 summands of the witness of every x = r mod q in F+t,
    where small = reduced_sumsets(mod, t).

    Each is the smallest element of A_q that leaves a remainder in the
    level below. The search reads only x mod q, so one prefix serves the
    whole class, and its summands are checked to lie in F here, once,
    by the carry test (module docstring).
    The caller has checked that r is in S_t.
    """
    q, base, levels = small
    parts: list[int] = []
    rem = r
    for below in reversed(levels[:-1]):
        for v in base:
            if below >> ((rem - v) % q) & 1:
                parts.append(v)
                rem = (rem - v) % q
                break
        else:  # pragma: no cover - contradicts the level invariant
            raise CheckFailure("witness search lost a marked residue")
    if any(pow(v, mod.p - 1, q) != 1 for v in parts):
        raise CheckFailure("invalid witness prefix produced")
    return tuple(parts)


def decompose_residue(mod: PrimePowerModulus, x: int, t: int) -> tuple[int, ...]:
    """A t-tuple of p-th power residues summing to x mod p^k.

    Deterministic: picks each summand but the last as the smallest
    element of F that leaves a remainder in the level below, so the
    witness is always the same. Raises NoTripleFound if x is not in F+t.
    """
    if t < 1:
        raise OutOfRange(f"need at least one summand, got t = {t}")
    m = mod.modulus
    small = reduced_sumsets(mod, t)
    q, _, levels = small
    x %= m
    if not levels[t - 1] >> (x % q) & 1:
        raise NoTripleFound(f"{x} is not a sum of {t} p-th power residues mod {m}")
    prefix = _witness_prefix(mod, small, x % q)
    last = (x - sum(prefix)) % m
    if pow(last, mod.p - 1, q) != 1:
        raise CheckFailure("invalid witness produced")
    return prefix + (last,)


def least_decomposition(mod: PrimePowerModulus, x: int, max_t: int) -> tuple[int, ...] | None:
    """decompose_residue's witness of x at the least t <= max_t with x in F+t,
    else None. Lazy in t: no level above the answer is built."""
    for t in range(1, max_t + 1):
        sums = reduced_sumsets(mod, t)
        if sums.levels[-1] >> (x % sums.q) & 1:
            return decompose_residue(mod, x, t)
    return None


@dataclass(frozen=True)
class MultiplesReport:
    mod: PrimePowerModulus
    all_covered: bool  # every nonzero multiple of p in F+3
    first_shell_covered: bool  # every mp with m a unit in F+3
    missing: tuple[int, ...]  # nonzero multiples not in F+3
    missing_in_two_sums: bool  # the missing ones all lie in F+2
    witnesses: dict[int, tuple[int, int, int]]


def verify_multiples_of_p(mod: PrimePowerModulus) -> MultiplesReport:
    """Which nonzero multiples of p are in F+3, each one checked.

    Returns witnesses (three p-th power summands) for every covered
    multiple, each the one decompose_residue(mod, x, 3) gives. It walks
    the multiples of p one class r = 0, p, ..., q-p mod q at a time: the
    first two summands are searched once per covered class, and every
    witness's last summand is checked to lie in F by its own carry test.
    The witnesses are keyed in class order, not ascending; missing is
    ascending. The uncovered multiples, when any, are nonzero multiples
    of p^2 and are verified to be two-summand sums instead. It walks all
    p^(k-1) multiples of p: O(p^(k-1)) time, and memory for as many
    witnesses.
    """
    if mod.k < 2:
        raise OutOfRange("sumset analysis needs k >= 2")
    m, p = mod.modulus, mod.p
    small = reduced_sumsets(mod, 3)
    q, _, levels = small
    uncovered = []  # the classes mod q outside S_3 that hold a nonzero multiple
    witnesses: dict[int, tuple[int, int, int]] = {}
    for r in range(0, q, p):
        xs = range(r or q, m, q)  # the nonzero multiples of p in class r; none for r = 0 at k = 2
        if not xs:
            continue
        if not levels[2] >> r & 1:
            uncovered.append(r)
            continue
        v1, v2 = _witness_prefix(mod, small, r)
        for x in xs:
            last = (x - v1 - v2) % m
            if pow(last, p - 1, q) != 1:
                raise CheckFailure("invalid witness produced")
            witnesses[x] = (v1, v2, last)
    return MultiplesReport(
        mod=mod,
        all_covered=not uncovered,
        first_shell_covered=not any(uncovered),  # class 0 holds the multiples of p^2
        missing=tuple(sorted(x for r in uncovered for x in range(r or q, m, q))),
        missing_in_two_sums=all(levels[1] >> r & 1 for r in uncovered),
        witnesses=witnesses,
    )


"""Order audits of divisors of p^2-1 and related scans.

The central fact: a divisor r > 1 of p^2-1 never satisfies r^p = r mod
p^3. Mod p^2 the same congruence does hold for scattered (p, r) pairs,
which the exception scan collects; r = p^2-1 itself is congruent to -1
mod p^2 and so passes the congruence for sign reasons alone, which is
why divisors congruent to +-1 mod the working modulus are flagged
sign-trivial and kept out of the exception lists.

audit_divisors audits the divisors of p^2-1, and it and the exception
scan factor p^2-1 as (p-1)(p+1). Also here: base-b Wieferich-type scans
(b^p = b mod p^2) and the generator survey over divisors of p-1 and p+1.

The audit and the survey walk the divisor lattice of the factored
number: every divisor r comes with w = r^(p-1) mod p^2 at one multiply
per step and one pow per prime factor, since n -> n^(p-1) is
multiplicative. One walker (_lattice) yields plain values in lattice
order; it runs once with weights q for the divisors and once with
weights q^(p-1) mod p^2 for the powers, zipped into (r, w) pairs. The
exception scan walks the powers alone and walks the divisors only for
the few primes that have an exceptional one. Orders come from the split
G_k = A_k * B_k (modring.split_order):
ord(r) = ord(r mod p) * p^(k - v_p(r^(p-1) - 1)). w = 1 mod p, so
w != 1 gives ord(r mod p) * p^(k-1); only w = 1 (a zero carry: r = p^2-1
or r exceptional) takes one pow mod p^k. The audited n = p^2 - 1 is
-1 mod p, so each cofactor pair has r * (n/r) = -1 mod p and
ord(n/r mod p) = ord(-r mod p), which the partner rule (modring) reads
off d = ord(r mod p): 2d for odd d, d/2 for d = 2 mod 4, d for 4 | d,
since -1 is the one involution of the cyclic group mod p. The audit
walks the divisors ascending and runs modring.core_order's peel only on
the smaller member of each pair. DivisorAudit and GeneratorVerdict are
slotted, mutable dataclasses, built positionally: a frozen one pays
object.__setattr__ per field, and the audit builds one record per divisor.

Every per-prime survey (these scans, the CLI's kp and note4) runs on
scan_primes, the one prime loop: ordered blocks, a process pool under
jobs > 1, an optional resumable checkpoint. Its unit is a block kernel,
rows(primes) -> list; a per-prime row function becomes one through
per_prime. The Wieferich kernel shares one pow among WIEFERICH_BATCH
consecutive primes p_0 < ... < p_7: with M = prod p_i^2,
x = base^p_0 mod M, and stepping x by base^(p_i - p_(i-1)) mod M gives
base^p_i mod M, whose reduction mod p_i^2 is base^p_i mod p_i^2 exactly,
for every base >= 2 (p dividing base included).

concurrent.futures is imported inside scan_primes, right before a pool
of two or more workers starts, not at module level: it pulls in
multiprocessing, pickle, socket, logging and queue (~25 ms), which only
--jobs > 1 uses, so importing pkcore does not load them.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Iterable
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

from .errors import BadCheckpoint, CheckFailure, OutOfRange
from .modring import core_order, make_modulus, split_order
from .primes import factorize, primes_in_range

__all__ = [
    "DivisorAudit",
    "GeneratorVerdict",
    "GeneratorSurvey",
    "audit_divisors",
    "exception_row",
    "exception_scan",
    "wieferich_test",
    "wieferich_scan",
    "per_prime",
    "scan_primes",
    "survey_pm1_generators",
    "SCAN_BLOCK",
]

SCAN_BLOCK = 1 << 18
CHECKPOINT_VERSION = 1
WIEFERICH_BATCH = 8  # primes sharing one pow; wider batches lose to the growing modulus M


@dataclass(slots=True)
class DivisorAudit:
    p: int
    r: int
    cofactor: int
    order_in_g3: int
    is_core_mod_p2: bool
    is_core_mod_p3: bool
    sign_trivial: bool  # r = +-1 mod the audit modulus, core for sign reasons

    @property
    def exceptional(self) -> bool:
        """r^p = r mod p^2 for a reason other than r = +-1."""
        return self.is_core_mod_p2 and not self.sign_trivial


def _lattice(weights: Iterable[int], exponents: Iterable[int], m: int) -> list[int]:
    """prod w^i mod m over every choice of 0 <= i <= e for each (w, e) of
    zip(weights, exponents), in lattice order: the empty product 1 first,
    then the layers of each weight in turn.

    Over fac = {q: e}, weights q and any m > prod q^e give the divisors
    of prod q^e, and weights q^(p-1) mod m give their (p-1)-th powers mod
    m in the same order, one multiply per step since n -> n^(p-1) is
    multiplicative.
    """
    values = [1]
    for w, e in zip(weights, exponents):
        layer, grown = values, list(values)
        for _ in range(e):
            layer = [x * w % m for x in layer]
            grown += layer
        values = grown
    return values


def _divisor_powers(p: int, fac: dict[int, int], m: int) -> list[tuple[int, int]]:
    """(r, r^(p-1) mod m) for every divisor r of prod q^e over fac, (1, 1)
    first: the two lattice walks zipped, one pow per prime factor q."""
    divisors = _lattice(fac, fac.values(), math.prod(q ** e for q, e in fac.items()) + 1)
    powers = _lattice([pow(q, p - 1, m) for q in fac], fac.values(), m)
    return list(zip(divisors, powers))


def _p2_minus_1_factorization(p: int) -> dict[int, int]:
    """p^2 - 1 = (p - 1)(p + 1), factored as its two halves and merged."""
    fac = factorize(p - 1)
    for q, e in factorize(p + 1).items():
        fac[q] = fac.get(q, 0) + e
    return fac


def audit_divisors(p: int, assert_non_core: bool = True) -> list[DivisorAudit]:
    """Audit every divisor r > 1 of n = p^2-1 mod p^2 and mod p^3.

    The mod-p^3 congruence r^p = r must fail for every r: none is +-1 mod
    p^3, since 1 < r <= p^2-1 < p^3-1 (r = p^2-1 has p-th power -1, not
    itself), so with assert_non_core any r that is core mod p^3 raises
    CheckFailure. The mod-p^2 flag is informational; exceptional cases are
    the non-sign-trivial ones (DivisorAudit.exceptional).

    r^p = r mod p^j exactly when r^(p-1) = 1 mod p^j (r is a unit). With
    w = r^(p-1) mod p^2 off the lattice (module docstring), w != 1 means
    core mod neither p^2 nor p^3 and order d * p^2 in G_3, d = ord(r mod
    p); only w = 1 (r = p^2-1, exceptional r) pays one pow mod p^3, for
    the mod-p^3 flag and an order of d or d * p. The walk is ascending,
    so it meets the smaller member r of each cofactor pair first:
    r * (n/r) = -1 mod p, so the partner rule (modring) gives
    ord(n/r mod p) from ord(r mod p), stored until the walk reaches n/r.
    Only the smaller half of the divisors runs core_order's peel.
    """
    make_modulus(p, 3)  # validates p
    n, p2 = p * p - 1, p * p
    partner: dict[int, int] = {}  # n/r -> ord(n/r mod p), for r already walked
    audits = []
    for r, w in sorted(_divisor_powers(p, _p2_minus_1_factorization(p), p2))[1:]:
        s = n // r
        d = partner.pop(r, 0)
        if not d:
            d = core_order(p, r)
            partner[s] = 2 * d if d & 1 else d // 2 if d & 3 == 2 else d
        core3 = w == 1 and pow(r, p - 1, p2 * p) == 1
        order = d * p2 if w != 1 else d if core3 else d * p
        audit = DivisorAudit(p, r, s, order, w == 1, core3, r == n)  # 1 < r < p^2: only n is +-1
        if assert_non_core and core3:
            raise CheckFailure(f"divisor {r} of {p}^2-1 is core mod {p}^3")
        audits.append(audit)
    return audits


def exception_row(p: int) -> tuple[int, int] | None:
    """(p, smallest exceptional r), or None when p has no exceptional divisor.

    r ranges over divisors of p^2-1 with 1 < r < p^2-1; the omitted
    endpoint is -1 mod p^2 and would match every prime trivially.

    No divisor is raised to the p-th power. Every r is a unit, and
    r^p = r mod p^2 exactly when r^(p-1) = 1 mod p^2, i.e. when its
    carry r' (r^(p-1) = 1 + r'p mod p^2) is 0 mod p. The (p-1)-th powers
    come off the divisor lattice of p^2-1 as plain values, one pow per
    prime factor. r = 1 and r = p^2-1 always give 1, so p has an
    exceptional divisor exactly when more than two values are 1; only
    then are the divisors themselves walked, in the same lattice order,
    to find the smallest such r.
    """
    p2 = p * p
    fac = _p2_minus_1_factorization(p)
    powers = _lattice([pow(q, p - 1, p2) for q in fac], fac.values(), p2)
    if powers.count(1) <= 2:
        return None
    divisors = _lattice(fac, fac.values(), p2)  # every divisor of p^2-1 is below p^2
    return (p, min(r for r, w in zip(divisors, powers) if w == 1 and 1 < r < p2 - 1))


def exception_scan(p_min: int, p_max: int) -> list[tuple[int, int]]:
    """(p, smallest exceptional r) for primes in [p_min, p_max]; see exception_row."""
    return scan_primes(per_prime(exception_row), max(p_min, 3), p_max)


def _wieferich_hits(base: int, primes: list[int]) -> list[int]:
    """The primes p of the list with base^p = base mod p^2, one pow per batch."""
    hits, steps = [], {}  # steps: gap g -> base^g
    for i in range(0, len(primes), WIEFERICH_BATCH):
        batch = primes[i : i + WIEFERICH_BATCH]
        m = math.prod([p * p for p in batch])
        prev = batch[0]
        x = pow(base, prev, m)
        for p in batch:
            if p != prev:
                step = steps.get(p - prev)
                if step is None:
                    step = steps[p - prev] = base ** (p - prev)
                x = x * step % m  # base^p mod m
                prev = p
            if (x - base) % (p * p) == 0:
                hits.append(p)
    return hits


def wieferich_test(base: int) -> Callable[[list[int]], list[int]]:
    """The block kernel of the base-b Wieferich scan: the primes p of a block with base^p = base mod p^2."""
    if base < 2:
        raise OutOfRange("base must be >= 2")
    return partial(_wieferich_hits, base)


def wieferich_scan(p_max: int, base: int = 2, jobs: int = 1) -> list[int]:
    """Primes 2 <= p <= p_max with base^p = base mod p^2."""
    return scan_primes(wieferich_test(base), 2, p_max, jobs=jobs)


def _each_prime(row: Callable[[int], object], primes: list[int]) -> list:
    return [r for p in primes if (r := row(p)) is not None]


def per_prime(row: Callable[[int], object]) -> Callable[[list[int]], list]:
    """The block kernel running row(p) on each prime of a block, None results dropped."""
    return partial(_each_prime, row)


def _scan_block(args: tuple[Callable[[list[int]], list], int, int]) -> list:
    rows, lo, hi = args
    return rows(primes_in_range(lo, hi))


def _label(fields: dict) -> str:
    """A scan's identity as text, e.g. "base-2" or "note4 k-3"."""
    return " ".join(str(v) if key == "kind" else f"{key}-{v}" for key, v in fields.items()) or "unnamed"


def _read_checkpoint(path: str, ident: dict) -> int:
    """The next start stored in a checkpoint written by the scan ident names."""
    try:
        with open(path) as fh:
            state = json.loads(fh.read())
    except (OSError, ValueError):
        state = None
    # a bare decimal line is the unversioned old format, refused like any other
    versioned = isinstance(state, dict) and state.get("version") == CHECKPOINT_VERSION
    if not versioned or type(state.get("next")) is not int:
        raise BadCheckpoint(f"checkpoint {path} is not a version-{CHECKPOINT_VERSION} scan checkpoint")
    written = {key: v for key, v in state.items() if key not in ("version", "next")}
    if written != ident:
        raise BadCheckpoint(
            f"checkpoint {path} was written by another scan ({_label(written)}); this scan is {_label(ident)}"
        )
    return state["next"]


def scan_primes(
    rows: Callable[[list[int]], list], lo: int, hi: int, *,
    jobs: int = 1, checkpoint: str | None = None, ident: dict | None = None,
) -> list:
    """rows(primes of the block) for every block of [lo, hi], concatenated in order.

    rows is a block kernel (per_prime makes one from a row function).
    Blocks hold ceil(n/parts) numbers, at most SCAN_BLOCK (read at call
    time), with parts = 1 at jobs = 1 and 4*jobs otherwise: the cost of a
    prime grows with p, so several blocks per worker let pool.map hand
    the heavy top-of-range blocks to whichever worker is free. Under
    jobs > 1 they run on a pool of min(jobs, blocks) processes (rows
    must then pickle). A checkpoint is resumed from and rewritten after
    each block as one line {"version": 1, **ident, "next": N}, ident
    naming the scan's kind and parameters; one of another scan or format
    raises BadCheckpoint.
    """
    if jobs < 1:
        raise OutOfRange(f"jobs = {jobs} must be at least 1")
    ident = ident or {}
    if checkpoint and os.path.exists(checkpoint):
        lo = max(lo, _read_checkpoint(checkpoint, ident))
    parts = 1 if jobs == 1 else 4 * jobs
    size = min(SCAN_BLOCK, max(1, -(-(hi - lo + 1) // parts)))
    spans = [(rows, a, min(a + size - 1, hi)) for a in range(lo, hi + 1, size)]
    workers = min(jobs, len(spans))
    out: list = []
    if workers > 1:  # not at module level: importing pkcore skips the pool stack
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = pool.map(_scan_block, spans) if pool else map(_scan_block, spans)
        for (_, _, end), block_rows in zip(spans, results):
            out += block_rows
            if checkpoint:
                with open(checkpoint + ".tmp", "w") as fh:
                    fh.write(json.dumps({"version": CHECKPOINT_VERSION, **ident, "next": end + 1}) + "\n")
                os.replace(checkpoint + ".tmp", checkpoint)
    return out


@dataclass(slots=True)
class GeneratorVerdict:
    p: int
    k: int
    g: int
    order: int
    klass: str  # primitiveRoot | halfGroupNoMinusOne | other
    minus_one_in_cycle: bool


@dataclass(frozen=True)
class GeneratorSurvey:
    p: int
    k: int
    verdicts: tuple[GeneratorVerdict, ...]
    satisfied: bool  # some divisor of p-1 or p+1 generates G or half of G


def survey_pm1_generators(p: int, k: int) -> GeneratorSurvey:
    """Classify every divisor g > 1 of p-1 and of p+1 by order mod p^k.

    Buckets by order: the full unit group, half of it, or other. Whether
    -1 lies in the cycle is recorded per divisor; for p = 1 mod 4 the
    half-order cycle necessarily contains -1 (the group order is 0 mod 4
    and a cyclic group keeps its unique involution inside the index-2
    subgroup), so the half bucket cannot demand -1 to be absent.

    -1 lies in the cycle of g exactly when its order is even. Proof: G_k
    is cyclic of even order, so -1 is its only element of order 2, and
    the cyclic group <g> of order t holds an element of order 2 iff t is
    even; that element is g^(t/2), so it is -1. The divisors and their
    w = g^(p-1) mod p^2 come off the lattices of p-1 and p+1, and only
    w = 1 pays a pow mod p^k (module docstring).
    """
    mod = make_modulus(p, k)
    m, full = mod.modulus, mod.units_order
    powers = dict(_divisor_powers(p, factorize(p - 1), p * p) + _divisor_powers(p, factorize(p + 1), p * p))
    verdicts = []
    for g in sorted(powers)[1:]:  # every g > 1; both lattices hold 1 and 2
        d = core_order(p, g)
        order = d * p ** (k - 1) if powers[g] != 1 else split_order(p, k, d, pow(g, p - 1, m))
        if order == full:
            klass = "primitiveRoot"
        elif order * 2 == full:
            klass = "halfGroupNoMinusOne"
        else:
            klass = "other"
        verdicts.append(
            GeneratorVerdict(p=p, k=k, g=g, order=order, klass=klass, minus_one_in_cycle=order % 2 == 0)
        )
    satisfied = any(v.klass != "other" for v in verdicts)
    return GeneratorSurvey(p=p, k=k, verdicts=tuple(verdicts), satisfied=satisfied)


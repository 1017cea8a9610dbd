"""Order audits of divisors of p^2-1 and related scans.

The central fact: a divisor r > 1 of p^2-1 never satisfies r^p = r mod
p^3. Mod p^2 the same congruence does hold for scattered (p, r) pairs,
which the exception scan collects; r = p^2-1 itself is congruent to -1
mod p^2 and so passes the congruence for sign reasons alone, which is
why divisors congruent to +-1 mod the working modulus are flagged
sign-trivial and kept out of the exception lists.

Also here: base-b Wieferich-type scans (b^p = b mod p^2), the quadruple
non-core checks for n in {2, 3}, the generator survey over divisors of
p-1 and p+1, audits over divisors of p^(2m)-1, and generator lifting
from mod p^2 to higher precision.

Every per-prime survey (these scans, the CLI's kp and note4) is a row
function run by scan_primes, the one prime loop: ordered blocks, a
process pool under jobs > 1, an optional resumable checkpoint.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

from .corefst import build_core_table, fst_carry
from .errors import BadCheckpoint, BadConfig, CheckFailure, OutOfRange
from .modring import PrimePowerModulus, Residue, make_modulus, multiplicative_order
from .primes import divisors, divisors_from_factorization, factorize, primes_in_range

__all__ = [
    "DivisorAudit",
    "GeneratorVerdict",
    "GeneratorSurvey",
    "audit_divisors",
    "exception_row",
    "exception_scan",
    "wieferich_test",
    "wieferich_scan",
    "scan_primes",
    "corollary_check",
    "survey_pm1_generators",
    "audit_power_divisors",
    "generator_lift",
    "SCAN_BLOCK",
]

SCAN_BLOCK = 1 << 20
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class DivisorAudit:
    p: int
    r: int
    cofactor: int
    rp_minus_r_mod_p2: int
    rp_minus_r_mod_p3: int
    order_in_g3: int
    is_core_mod_p2: bool
    is_core_mod_p3: bool
    sign_trivial: bool  # r = +-1 mod the audit modulus, core for sign reasons

    @property
    def exceptional(self) -> bool:
        """r^p = r mod p^2 for a reason other than r = +-1."""
        return self.is_core_mod_p2 and not self.sign_trivial


def _audit_one(r: int, cofactor: int, mod3: PrimePowerModulus) -> DivisorAudit:
    p, p3 = mod3.p, mod3.modulus
    p2 = p * p
    rp3 = pow(r, p, p3)
    rp2 = rp3 % p2
    rr = r % p3
    order = multiplicative_order(Residue(rr, mod3)) if rr % p else 0
    return DivisorAudit(
        p=p,
        r=r,
        cofactor=cofactor,
        rp_minus_r_mod_p2=(rp2 - r) % p2,
        rp_minus_r_mod_p3=(rp3 - r) % p3,
        order_in_g3=order,
        is_core_mod_p2=rp2 == r % p2,
        is_core_mod_p3=rp3 == r % p3,
        sign_trivial=r % p2 in (1, p2 - 1),
    )


def _p2_minus_1_factorization(p: int) -> dict[int, int]:
    """p^2 - 1 = (p-1)(p+1), factored as its two halves and merged."""
    fac = factorize(p - 1)
    for q, e in factorize(p + 1).items():
        fac[q] = fac.get(q, 0) + e
    return fac


def audit_divisors(p: int, assert_non_core: bool = True) -> list[DivisorAudit]:
    """Audit every divisor r > 1 of p^2-1 mod p^2 and mod p^3.

    The mod-p^3 congruence r^p = r must fail for every r (no exclusions
    needed, including r = p^2-1 whose p-th power is -1, not itself);
    with assert_non_core a violation raises CheckFailure. The mod-p^2
    flag is informational; exceptional cases are the non-sign-trivial
    ones, read off via the exceptional() helper.
    """
    n = p * p - 1
    mod3 = make_modulus(p, 3, arithmetic_only=True)
    out = []
    for r in divisors_from_factorization(_p2_minus_1_factorization(p))[1:]:
        audit = _audit_one(r, n // r, mod3)
        if assert_non_core and audit.is_core_mod_p3:
            raise CheckFailure(f"divisor {r} of {p}^2-1 is core mod {p}^3")
        out.append(audit)
    return out


def exceptional(audits: list[DivisorAudit]) -> list[DivisorAudit]:
    """The audits passing the mod-p^2 congruence for non-sign reasons."""
    return [a for a in audits if a.exceptional]


def exception_row(p: int) -> tuple[int, int] | None:
    """(p, smallest exceptional r), or None when p has no exceptional divisor.

    r ranges over divisors of p^2-1 with 1 < r < p^2-1; the omitted
    endpoint is -1 mod p^2 and would match every prime trivially.

    No divisor is raised to the p-th power. Every r is a unit, and
    r^p = r mod p^2 exactly when its carry r' (r^(p-1) = 1 + r'p mod p^2)
    is 0 mod p. Carries add under products, (ab)' = a' + b' mod p, and
    every prime factor q of p^2-1 is below p, so each divisor's carry is
    the sum of fst_carry(p, q) over its prime factors, built alongside
    the divisor itself.
    """
    rs, carries = [1], [0]  # the divisors so far, each with its carry sum
    for q, e in _p2_minus_1_factorization(p).items():
        c = fst_carry(p, q)
        new_rs, new_carries = list(rs), list(carries)
        for i in range(1, e + 1):
            qi, ci = q ** i, i * c
            new_rs += [r * qi for r in rs]
            new_carries += [s + ci for s in carries]
        rs, carries = new_rs, new_carries
    top = p * p - 1
    r = min((r for r, s in zip(rs, carries) if s % p == 0 and 1 < r < top), default=0)
    return (p, r) if r else None


def exception_scan(p_min: int, p_max: int) -> list[tuple[int, int]]:
    """(p, smallest exceptional r) for primes in [p_min, p_max]; see exception_row."""
    return scan_primes(exception_row, max(p_min, 3), p_max)


def _wieferich_hit(base: int, p: int) -> int | None:
    p2 = p * p
    return p if pow(base, p, p2) == base % p2 else None


def wieferich_test(base: int) -> Callable[[int], int | None]:
    """The row function of the base-b Wieferich scan: p if base^p = base mod p^2, else None."""
    if base < 2:
        raise OutOfRange("base must be >= 2")
    return partial(_wieferich_hit, base)


def wieferich_scan(
    p_max: int, base: int = 2, checkpoint: str | None = None, jobs: int = 1, block: int = SCAN_BLOCK
) -> list[int]:
    """Primes 2 <= p <= p_max with base^p = base mod p^2; checkpoint line {"version": 1, "base": B, "next": N}."""
    return scan_primes(
        wieferich_test(base), 2, p_max, jobs=jobs, checkpoint=checkpoint, ident={"base": base}, block=block
    )


def _scan_block(args: tuple[Callable[[int], object], int, int]) -> list:
    row, lo, hi = args
    return [r for p in primes_in_range(lo, hi) if (r := row(p)) is not None]


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
    row: Callable[[int], object], lo: int, hi: int, *,
    jobs: int = 1, checkpoint: str | None = None, ident: dict | None = None, block: int = SCAN_BLOCK,
) -> list:
    """row(p) for every prime p in [lo, hi], in order, None results dropped.

    Ordered blocks of ceil(n/jobs) numbers, at most block, run on a pool
    of min(jobs, blocks) processes when jobs > 1 (row must then pickle).
    A checkpoint is resumed from and rewritten after each block as one
    line {"version": 1, **ident, "next": N}, ident naming the scan's kind
    and parameters; one of another scan or format raises BadCheckpoint.
    """
    if jobs < 1:
        raise BadConfig(f"jobs = {jobs} must be at least 1")
    ident = ident or {}
    if checkpoint and os.path.exists(checkpoint):
        lo = max(lo, _read_checkpoint(checkpoint, ident))
    size = min(block, max(1, -(-(hi - lo + 1) // jobs)))
    spans = [(row, a, min(a + size - 1, hi)) for a in range(lo, hi + 1, size)]
    workers = min(jobs, len(spans))
    out: list = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = pool.map(_scan_block, spans) if pool else map(_scan_block, spans)
        for (_, _, end), rows in zip(spans, results):
            out += rows
            if checkpoint:
                with open(checkpoint + ".tmp", "w") as fh:
                    fh.write(json.dumps({"version": CHECKPOINT_VERSION, **ident, "next": end + 1}) + "\n")
                os.replace(checkpoint + ".tmp", checkpoint)
    return out


def corollary_check(p: int, k_max: int = 4, samples: int = 8) -> bool:
    """For n in {2, 3}: the quadruple {n, -n, 1/n, -1/n} mod p^k stays
    outside the core for 3 <= k <= k_max, and multiplying the quadruple
    into the core never lands back in the core (spot-checked)."""
    if p in (2, 3):
        raise OutOfRange("needs p >= 5 so that 2 and 3 are units")
    for k in range(3, k_max + 1):
        m = p ** k
        cores = build_core_table(make_modulus(p, k, arithmetic_only=True)).core[:samples]
        for n in (2, 3):
            inv = pow(n, -1, m)
            quad = (n % m, -n % m, inv, -inv % m)
            for x in quad:
                if pow(x, p, m) == x:
                    return False
                for a in cores:
                    y = x * a % m
                    if pow(y, p, m) == y:
                        return False
    return True


@dataclass(frozen=True)
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
    """
    mod = make_modulus(p, k, arithmetic_only=True)
    m = mod.modulus
    full = mod.units_order
    gs = sorted(
        {g for base in (p - 1, p + 1) for g in divisors(base) if g > 1}
    )
    verdicts = []
    satisfied = False
    for g in gs:
        if g % p == 0:
            continue  # p itself can divide p-1 or p+1 only for p <= 3
        order = multiplicative_order(Residue(g % m, mod))
        if order == full:
            klass = "primitiveRoot"
        elif order * 2 == full:
            klass = "halfGroupNoMinusOne"
        else:
            klass = "other"
        minus_one = order % 2 == 0 and pow(g, order // 2, m) == m - 1
        verdicts.append(
            GeneratorVerdict(p=p, k=k, g=g, order=order, klass=klass, minus_one_in_cycle=minus_one)
        )
        if klass in ("primitiveRoot", "halfGroupNoMinusOne"):
            satisfied = True
    return GeneratorSurvey(p=p, k=k, verdicts=tuple(verdicts), satisfied=satisfied)


def audit_power_divisors(p: int, m_exp: int, k: int = 3, assert_non_core: bool = True) -> list[DivisorAudit]:
    """Audit divisors r > 1 of p^(2m)-1 for r^p = r mod p^k.

    Divisors congruent to +-1 mod p^k (for example p^(2m)-1 itself once
    2m >= k) are core for sign reasons and exempt from the non-core
    assertion; they stay in the output flagged sign_trivial.
    """
    if m_exp < 1:
        raise OutOfRange("need m >= 1")
    n = p ** (2 * m_exp) - 1
    mk = p ** k
    mod3 = make_modulus(p, 3, arithmetic_only=True)
    out = []
    for r in divisors(n):
        if r == 1:
            continue
        audit = _audit_one(r, n // r, mod3)
        trivial = r % mk in (1, mk - 1)
        if assert_non_core and not trivial and pow(r, p, mk) == r % mk:
            raise CheckFailure(f"divisor {r} of {p}^{2 * m_exp}-1 is core mod {p}^{k}")
        out.append(audit)
    return out


def generator_lift(p: int, g: int, k_max: int = 4) -> dict[int, bool]:
    """If g generates the units mod p^2, check it keeps generating at
    every precision up to k_max. Returns {k: is_generator}; an empty
    dict means g was not a generator mod p^2 (not applicable)."""
    if g >= p or g % p == 0:
        raise OutOfRange("need g < p coprime to p")
    mod2 = make_modulus(p, 2, arithmetic_only=True)
    if multiplicative_order(Residue(g, mod2)) != mod2.units_order:
        return {}
    out = {2: True}
    for k in range(3, k_max + 1):
        mod = make_modulus(p, k, arithmetic_only=True)
        out[k] = multiplicative_order(Residue(g, mod)) == mod.units_order
    return out

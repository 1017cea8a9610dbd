"""Seeded call lists for the three workloads, each call with its expected answer.

Runs in the harness process only. Expected answers come from the naive
routines in tests/oracles.py where the cell is small enough to enumerate,
and from the paper's closed forms elsewhere; nothing here calls pkcore.

A call is a dict {"kind": str, "args": list, "expect": dict}. The kinds and
their checks live in gate.py.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402  (tests/oracles.py, needs sympy)

QUERY_CELLS = [(5, 4), (7, 4), (11, 3), (13, 3)]
QUERY_MIX = (("decompose", 0.7), ("core", 0.1), ("pairsums", 0.1), ("divisors", 0.1))
QUERY_DIVISOR_PRIMES = (100, 1000)

SIZES = {
    "full": {
        "sumset": [(3, 11), (5, 6), (7, 5), (13, 4)],
        "multiples": [(3, 7), (5, 5), (7, 4), (11, 3), (13, 3)],
        "fermat": [(11, 4), (13, 4)],
        "extension": [(11, 4, e) for e in (0, 1, 2)],
        "core": [(73, 3), (73, 4)],
        "query_calls": 1000,
        "kp_max": 1300,
        "audit_max": 2000,
        "exception_max": 30000,
        "wieferich_max": 2_000_000,
    },
    # for the self-test: the same kinds of call, a few seconds in all
    "tiny": {
        "sumset": [(3, 5), (7, 3)],
        "multiples": [(3, 4), (7, 3)],
        "fermat": [(5, 4)],
        "extension": [(5, 4, e) for e in (0, 1, 2)],
        "core": [(13, 3)],
        "query_calls": 20,
        "kp_max": 60,
        "audit_max": 60,
        "exception_max": 400,
        "wieferich_max": 5000,
    },
}

# Closed forms stated by the paper; the naive oracle must agree with them.
KNOWN_KP = {11: 3, 73: 4, 257: 4}
WIEFERICH_BASE2 = [1093, 3511]  # the only base-2 Wieferich primes below 10^15

def _odd_primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 3), hi + 1) if oracles.naive_is_prime(n)]


def f_size(p: int, k: int) -> int:
    return (p - 1) * p ** (k - 2)


def distinct_increments(p: int, k: int) -> int:
    """|D_k|: distinct first-half core increments A_k(n+1) - A_k(n), n = 1..h."""
    m = p ** k
    h = (p - 1) // 2
    core = [oracles.naive_core_element(p, k, n) for n in range(1, h + 2)]
    return len({(core[i + 1] - core[i]) % m for i in range(h)})


def zero_core_triple(p: int) -> bool:
    """Whether three core elements sum to 0 mod p^2.

    F = A * (1 + p^2 Z), so a sum of three p-th powers that is 0 mod p^2
    has core parts summing to 0 mod p^2, and any such core triple lifts to
    every multiple of p^2. Every first-shell multiple is always covered, so
    this decides whether all nonzero multiples of p lie in F+3.
    """
    pp = p * p
    core = sorted(oracles.naive_core_set(p, 2))
    members = set(core)
    return any((-a - b) % pp in members for a in core for b in core)


def _prime_factors(n: int) -> list[int]:
    return sorted(oracles.naive_factorint(n))


# --- cells ----------------------------------------------------------------


def cells_calls(size: dict) -> list[dict]:
    calls = []
    for p, k in size["sumset"]:
        calls.append(
            {
                "kind": "sumset",
                "args": [p, k],
                "expect": {"f_size": f_size(p, k), "n0_covered_by3": zero_core_triple(p)},
            }
        )
    for p, k in size["multiples"]:
        levels = oracles.naive_sum_levels(p, k, 3)
        m = p ** k
        missing = [x for x in range(p, m, p) if x not in levels[3]]
        calls.append(
            {
                "kind": "multiples",
                "args": [p, k],
                "expect": {
                    "missing": missing,
                    "first_shell_covered": all(x % (p * p) == 0 for x in missing),
                    "missing_in_two_sums": all(x in levels[2] for x in missing),
                },
            }
        )
    for p, k in size["fermat"]:
        calls.append(
            {
                "kind": "fermat",
                "args": [p, k],
                # |F| * |D_2| unit sums; the non-unit ones are the nonzero multiples of p^2
                "expect": {
                    "observed": f_size(p, k) * distinct_increments(p, 2),
                    "nonunit_nonzero": p ** (k - 2) - 1,
                },
            }
        )
    for p, k, e in size["extension"]:
        m = p ** k
        step = p ** (k - e)
        x = {a * (1 + j * step) % m for a in oracles.naive_core_set(p, k) for j in range(p ** e)}
        calls.append(
            {
                "kind": "extension",
                "args": [p, k, e],
                "expect": {"count": len(oracles.naive_unit_pairsums(x, p, m))},
            }
        )
    for p, k in size["core"]:
        kp = oracles.naive_critical_precision(p)
        count = (p - 1) ** 2 // 2 if k >= kp else (p - 1) * distinct_increments(p, k)
        calls.append({"kind": "corepairs", "args": [p, k], "expect": {"count": count}})
    return calls


# --- primes ---------------------------------------------------------------


def primes_calls(size: dict) -> list[dict]:
    calls = []
    for p in _odd_primes(3, size["kp_max"]):
        kp = oracles.naive_critical_precision(p)
        if KNOWN_KP.get(p, kp) != kp:
            raise AssertionError(f"oracle K_{p} = {kp} disagrees with the paper")
        calls.append({"kind": "kp", "args": [p], "expect": {"kp": kp}})
    for p in _odd_primes(3, size["audit_max"]):
        group_primes = sorted(set(_prime_factors(p - 1)) | {p})
        divs = oracles.naive_divisors(p * p - 1)
        calls.append(
            {"kind": "audit", "args": [p], "expect": {"rs": divs[1:], "group_primes": group_primes}}
        )
        gs = sorted(
            {g for n in (p - 1, p + 1) for g in oracles.naive_divisors(n) if g > 1 and g % p}
        )
        calls.append(
            {"kind": "survey", "args": [p, 3], "expect": {"gs": gs, "group_primes": group_primes}}
        )
    pairs = []
    exc_max = size["exception_max"]
    for p in _odd_primes(3, exc_max):
        pp = p * p
        for r in oracles.naive_divisors(pp - 1)[1:-1]:
            if pow(r, p, pp) == r:
                pairs.append([p, r])
                break
    calls.append({"kind": "exceptions", "args": [3, exc_max], "expect": {"pairs": pairs}})
    wief_max = size["wieferich_max"]
    hits = [p for p in WIEFERICH_BASE2 if p <= wief_max]
    calls.append({"kind": "wieferich", "args": [wief_max], "expect": {"hits": hits}})
    return calls


# --- queries --------------------------------------------------------------


def _query_tables(p: int, k: int) -> dict:
    m = p ** k
    levels = oracles.naive_sum_levels(p, k, 4)
    level_of = [0] * m
    for t in range(4, 0, -1):
        for x in levels[t]:
            level_of[x] = t
    core = [oracles.naive_core_element(p, k, n) for n in range(1, p)]
    ext = [0] + core + [0]
    core_set = set(core)
    f = oracles.naive_pth_powers(p, k)
    f_sums = {s for s in oracles.naive_pairsums(f, m) if s}
    f_units = sum(1 for s in f_sums if s % p)
    return {
        "level_of": level_of,
        "core": {
            "core": core,
            "carry": [oracles.naive_fst_carry(p, n) for n in range(1, p)],
            "increment": [(ext[n + 1] - ext[n]) % m for n in range(1, p)],
        },
        "pairsums": {
            "core": len({s for s in oracles.naive_pairsums(core_set, m) if s}),
            "pth_units": f_units,
            "pth_nonunit": len(f_sums) - f_units,
        },
    }


def queries_calls(size: dict, seed: int) -> list[dict]:
    """Each command gets its share of the calls, spread evenly over the
    cells; the seed draws the residues, the divisor primes (without
    repeats) and the order. Fixed quotas keep the latency tail, which the
    slowest commands make, from moving with the seed."""
    rng = random.Random(seed)
    tables = {cell: _query_tables(*cell) for cell in QUERY_CELLS}
    n = size["query_calls"]
    quota = {command: round(share * n) for command, share in QUERY_MIX}
    plan = [(command, QUERY_CELLS[i % len(QUERY_CELLS)]) for command, _ in QUERY_MIX for i in range(quota[command])]
    rng.shuffle(plan)
    divisor_primes = iter(rng.sample(_odd_primes(*QUERY_DIVISOR_PRIMES), quota["divisors"]))
    calls = []
    for command, (p, k) in plan:
        if command == "divisors":
            q = next(divisor_primes)
            argv = ["divisors", "-p", str(q)]
            expect = {"p": q, "rs": oracles.naive_divisors(q * q - 1)[1:]}
        else:
            argv = [command, "-p", str(p), "-k", str(k)]
            if command == "decompose":
                x = rng.randrange(p ** k)
                argv.append(str(x))
                expect = {"p": p, "k": k, "residue": x, "level": tables[(p, k)]["level_of"][x]}
            else:
                expect = {"p": p, "k": k} | tables[(p, k)][command]
        calls.append({"kind": command, "args": argv + ["--format", "jsonl"], "expect": expect})
    return calls


def build(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The call list of one pass. cells and primes are fixed enumerations
    whose order the seed shuffles; queries draws its calls from the seed."""
    size = SIZES["tiny" if tiny else "full"]
    if workload == "queries":
        return queries_calls(size, seed)
    calls = {"cells": cells_calls, "primes": primes_calls}[workload](size)
    random.Random(seed).shuffle(calls)
    return calls


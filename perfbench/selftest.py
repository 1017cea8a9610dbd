"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

1. Every workload at a tiny size passes the answer gate, untraced and traced,
   and the traced passes together see all seven layers.
2. One deliberately wrong expected answer per workload makes the gate
   count a failure, so fail_ratio = failed / attempted becomes nonzero.
3. The closed forms workloads.py derives beyond the paper's stated ones
   agree with the naive oracle on cells small enough to enumerate.
4. Scaling to the reference speed uses the samplings on both sides of a
   call, a pass in which a call lost time to the host is left out of its
   latency, and the queries quotas hold for every seed.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import copy
import sys

import run
import worker
import workloads
from tracing import LAYERS
from workloads import oracles

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def tiny_passes() -> None:
    seen = set()
    for name in run.WORKLOADS:
        calls = workloads.build(name, seed=7, tiny=True)
        for traced in (False, True):
            res = run.run_worker({"calls": calls, "trace": traced, "spans": None})
            expect(res["failed"] == 0, f"{name} tiny pass, traced={traced}: {res['failed']} of {len(calls)} calls failed {res['errors']}")
            if traced:
                seen |= {fn.split(".")[0] for fn, (calls_, _) in res["layers"].items() if calls_}
    expect(set(LAYERS) <= seen, f"traced passes reach every layer (missing {sorted(set(LAYERS) - seen)})")


def wrong_answers() -> None:
    plants = {
        "cells": ("sumset", lambda e: e.update(f_size=e["f_size"] + 1)),
        "queries": ("decompose", lambda e: e.update(level=e["level"] % 4 + 1)),
        "primes": ("kp", lambda e: e.update(kp=e["kp"] + 1)),
    }
    for name, (kind, corrupt) in plants.items():
        calls = copy.deepcopy(workloads.build(name, seed=7, tiny=True))
        target = next(c for c in calls if c["kind"] == kind)
        corrupt(target["expect"])
        res = run.run_worker({"calls": calls, "trace": False, "spans": None})
        ratio = res["failed"] / len(calls)
        expect(res["failed"] == 1, f"{name} with one wrong {kind} answer: fail_ratio = {ratio:.4f} > 0")


def derived_closed_forms() -> None:
    for p, k in [(3, 4), (5, 3), (7, 3), (11, 3), (13, 3)]:
        levels = oracles.naive_sum_levels(p, k, 3)
        covered = all(x in levels[3] for x in range(p, p ** k, p))
        expect(covered == workloads.zero_core_triple(p), f"n0 in F+3 iff a core triple sums to 0 mod p^2 at ({p},{k})")
    for p, k in [(3, 4), (5, 3), (5, 4), (7, 3)]:
        m = p ** k
        sums = {s for s in oracles.naive_pairsums(oracles.naive_pth_powers(p, k), m) if s}
        units = sum(1 for s in sums if s % p)
        expect(units == workloads.f_size(p, k) * workloads.distinct_increments(p, 2), f"|F+F units| = |F|*|D_2| at ({p},{k})")
        expect(len(sums) - units == p ** (k - 2) - 1, f"non-unit F+F sums are the p^(k-2)-1 multiples of p^2 at ({p},{k})")
    for p, k in [(7, 2), (13, 2), (17, 2), (17, 3), (73, 2)]:
        core = oracles.naive_core_set(p, k)
        observed = len({s for s in oracles.naive_pairsums(core, p ** k) if s})
        kp = oracles.naive_critical_precision(p)
        predicted = (p - 1) ** 2 // 2 if k >= kp else (p - 1) * workloads.distinct_increments(p, k)
        expect(observed == predicted, f"core pairsums = |A|*|D_k| at ({p},{k}), K_p = {kp}")


def scaling_and_quotas() -> None:
    nominal = worker.REF_NOMINAL_S
    # samples before call 0 (kernel at nominal speed), before call 2 (half speed) and after call 2
    speed = [(0, nominal), (2, 2 * nominal), (3, nominal)]
    got = worker.scale_calls([1.0, 1.0, 3.0], speed)
    expect(all(abs(g - w) < 1e-12 for g, w in zip(got, [2 / 3, 2 / 3, 2.0])), f"scale_calls gives {got}, want [2/3, 2/3, 2]")
    # call 0 lost 5 ms to the host in the second pass: that pass is left out
    passes = [
        {"durations": [0.100, 0.010], "off_cpu": [0.0, 0.0], "scaled_durations": [0.100, 0.010]},
        {"durations": [0.105, 0.011], "off_cpu": [0.005, 0.0], "scaled_durations": [0.105, 0.011]},
        {"durations": [0.102, 0.012], "off_cpu": [0.0005, 0.0], "scaled_durations": [0.102, 0.012]},
    ]
    got = run.call_latencies(passes, "scaled_durations")
    expect(got == [0.101, 0.011], f"call_latencies gives {got}, want [0.101, 0.011]")
    for seed in (1, 2):
        calls = workloads.build("queries", seed)
        kinds = {}
        for c in calls:
            kinds[c["kind"]] = kinds.get(c["kind"], 0) + 1
        qs = [c["args"][2] for c in calls if c["kind"] == "divisors"]
        expect(
            kinds == {"decompose": 700, "core": 100, "pairsums": 100, "divisors": 100} and len(set(qs)) == 100,
            f"queries seed {seed}: quotas {kinds}, {len(set(qs))} distinct divisor primes",
        )


def main() -> int:
    tiny_passes()
    wrong_answers()
    derived_closed_forms()
    scaling_and_quotas()
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

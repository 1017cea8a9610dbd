"""Acceptance gate.

One test per advertised guarantee, each printing a single
[PASS]/[FAIL] line before asserting, so a bare `pytest -s
tests/test_acceptance.py` reads as a checklist. Timing limits are
asserted alongside the mathematical claims.

Criteria 6 and 8 check these values, each with a one-line proof:

* criterion 6: the nonzero multiples of p outside F+3 on the grid are
  exactly {(3,3): [9, 18], (5,3): [25, 50, 75, 100]}; every cell is
  first-shell covered and its missing multiples lie in F+2. Proof:
  F mod p^2 is the core A_2, and A_2 = {+-1} at p = 3, {+-1, +-7} at
  p = 5, so a sum of three is odd in [-3, 3] resp. [-21, 21] and never
  0 mod p^2.
* criterion 8: the window [3, 401] holds eight exceptional pairs,
  (269, 180) among them. Proof: 269^2-1 = 72360 = 180 * 402 and
  180^269 = 180 mod 269^2; of the 64 divisors only 180 and 402 pass.
"""

import time

import suites
from pkcore.corefst import build_core_table, critical_precision, integer_increments
from pkcore.generators import exception_scan, survey_pm1_generators, wieferich_scan
from pkcore.modring import base_p_encode, make_modulus
from pkcore.pairsums import core_pairsum_count, fermat_pairsum_count
from pkcore.primes import primes_in_range
from pkcore.waring import sumset_levels, verify_multiples_of_p

GRID = [(3, 2), (5, 2), (7, 2), (11, 2), (13, 2), (3, 3), (5, 3), (7, 3)]


def _line(n: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    return ok


def enc(x, p, k):
    return base_p_encode(make_modulus(p, k), x)


def test_criterion_1_critical_precision():
    t0 = time.perf_counter()
    kps = {p: critical_precision(p).kp for p in primes_in_range(3, 100)}
    kps[73] = critical_precision(73).kp
    elapsed = time.perf_counter() - t0
    ok = all(kps[p] == 2 for p in (3, 5, 7, 13))
    ok = ok and kps[11] == 3 and kps[73] == 4
    between = {p: critical_precision(p).kp for p in primes_in_range(14, 72)}
    ok = ok and all(v < 4 for v in between.values())
    ok = ok and elapsed < 10
    _line(1, ok, f"critical precision table p<=100 in {elapsed:.2f}s; "
                 f"K(11)={kps[11]}, K(73)={kps[73]}, max in (13,73)={max(between.values())}")
    assert ok


def test_criterion_2_base11_tables():
    t0 = time.perf_counter()
    table = build_core_table(make_modulus(11, 3))
    got_core = [enc(x, 11, 3) for x in table.core]
    got_pows = [enc(pow(n, 11, 1331), 11, 3) for n in range(1, 11)]
    got_d = [enc(x, 11, 3) for x in table.increments[1:10]]
    e1 = integer_increments(11, 1, 3)
    e2 = integer_increments(11, 2, 3)
    got_e1 = [enc(e1[3], 11, 3), enc(e1[4], 11, 3)]
    got_e2 = [enc(e2[3], 11, 3), enc(e2[4], 11, 3)]
    got_carry = [enc(pow(n, 10, 121), 11, 2) for n in (4, 5, 6)]
    second = enc((e1[3] - e2[3]) % 1331, 11, 3)
    second_b = enc((e1[4] - e1[3]) % 1331, 11, 3)
    elapsed = time.perf_counter() - t0

    ok = got_core == ["001", "4a2", "103", "974", "525", "586", "137", "9a8", "609", "aaa"]
    ok = ok and got_pows == ["001", "5a2", "103", "274", "325", "886", "937", "aa8", "609", "0aa"]
    ok = ok and got_d == ["4a1", "711", "871", "661", "061", "661", "871", "711", "4a1"]
    ok = ok and got_e1 == ["061", "561"] and got_e2 == ["661", "061"]
    ok = ok and got_carry == ["a1", "71", "51"]
    ok = ok and second == second_b == "500"
    ok = ok and elapsed < 1
    _line(2, ok, f"base-11 golden tables byte-for-byte in {elapsed:.3f}s")
    assert ok


def test_criterion_3_core_pairsums():
    t0 = time.perf_counter()
    results = {}
    for p, k in [(7, 2), (11, 3), (13, 2), (23, 2)]:
        observed, _ = core_pairsum_count(make_modulus(p, k))
        results[(p, k)] = (observed, (p - 1) ** 2 // 2)
    below, _ = core_pairsum_count(make_modulus(11, 2))
    elapsed = time.perf_counter() - t0
    ok = all(obs == want for obs, want in results.values())
    ok = ok and below == 40 < 50
    ok = ok and elapsed < 5
    _line(3, ok, f"core pairsum counts {dict(results)}; (11,2) gives {below} < 50; {elapsed:.2f}s")
    assert ok


def test_criterion_4_fermat_pairsums():
    t0 = time.perf_counter()
    cells = [(3, 2), (5, 2), (5, 3), (7, 3), (11, 3)]
    outcomes = {}
    for p, k in cells:
        r = fermat_pairsum_count(make_modulus(p, k))
        outcomes[(p, k)] = (r.observed, r.predicted, r.matches)
    elapsed = time.perf_counter() - t0
    ok = all(m for _, _, m in outcomes.values()) and elapsed < 30
    _line(4, ok, f"unit pairsums of p-th powers match coset count on {len(cells)} cells; {elapsed:.2f}s")
    assert ok


def test_criterion_5_three_or_four_summands_cover():
    t0 = time.perf_counter()
    ok = True
    for p, k in GRID:
        r = sumset_levels(make_modulus(p, k), 4)
        ok = ok and r.theorem_holds
    r32 = sumset_levels(make_modulus(3, 2), 4)
    ok = ok and r32.disjoint_f3_f4
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    _line(5, ok, f"three or four p-th powers reach every residue on the 8-cell grid; "
                 f"(3,2) levels disjoint; {elapsed:.2f}s")
    assert ok


def test_criterion_6_multiples_by_three_summands():
    t0 = time.perf_counter()
    shortfall = {}
    shells_ok = True
    for p, k in GRID:
        r = verify_multiples_of_p(make_modulus(p, k))
        shells_ok = shells_ok and r.first_shell_covered and r.missing_in_two_sums
        if not r.all_covered:
            shortfall[(p, k)] = list(r.missing)
    elapsed = time.perf_counter() - t0
    expected = {(3, 3): [9, 18], (5, 3): [25, 50, 75, 100]}
    ok = shortfall == expected and shells_ok and elapsed < 60
    _line(6, ok, f"multiples of p outside F+3: {shortfall} (expected {expected}, each a "
                 f"multiple of p^2); first shell in F+3 and misses in F+2 on every cell: "
                 f"{shells_ok}; {elapsed:.2f}s")
    assert ok


def test_criterion_7_divisor_audit():
    from pkcore.generators import audit_divisors

    t0 = time.perf_counter()
    worst = None
    ok = True
    for p in primes_in_range(3, 1000):
        for a in audit_divisors(p, assert_non_core=False):
            if a.is_core_mod_p3:
                ok = False
                worst = (p, a.r)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    _line(7, ok, f"no divisor r>1 of p^2-1 satisfies r^p = r mod p^3 for p<=1000; "
                 f"{elapsed:.2f}s" + (f"; yet {worst} does" if worst else ""))
    assert ok


def test_criterion_8_exception_scan():
    t0 = time.perf_counter()
    found = exception_scan(3, 401)
    elapsed = time.perf_counter() - t0
    stated = [(11, 3), (29, 14), (37, 18), (181, 78), (257, 48), (269, 180), (281, 20), (313, 104)]
    extra = [x for x in found if x not in stated]
    missing = [x for x in stated if x not in found]
    ok = found == stated and elapsed < 10
    detail = f"scan to 401 in {elapsed:.2f}s"
    if extra or missing:
        detail += f"; extra pairs {extra}, missing pairs {missing}"
    _line(8, ok, detail)
    assert ok


def test_criterion_9_wieferich():
    t0 = time.perf_counter()
    hits = wieferich_scan(10**4)
    elapsed = time.perf_counter() - t0
    ok = hits == [1093, 3511] and elapsed < 10
    _line(9, ok, f"base-2 scan to 1e4 finds exactly {hits} in {elapsed:.2f}s "
                 f"(1e7 run, not CI: pkcore scan wieferich --to 10000000, in --from/--to windows)")
    assert ok


def test_criterion_10_generator_classification():
    t0 = time.perf_counter()
    survey = survey_pm1_generators(73, 3)
    by_g = {v.g: v for v in survey.verdicts}
    ok = all(by_g[g].klass == "halfGroupNoMinusOne" for g in (6, 12))
    counterexamples = []
    for p in primes_in_range(3, 200):
        s = survey_pm1_generators(p, 3)
        if not s.satisfied:
            counterexamples.append(p)
    elapsed = time.perf_counter() - t0
    ok = ok and not counterexamples and elapsed < 60
    _line(10, ok, f"73: divisors 6, 12 land in the half-order bucket; "
                  f"p<=200 scan has {len(counterexamples)} counterexamples; {elapsed:.2f}s")
    assert ok


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    outcomes = suites.run_all()
    elapsed = time.perf_counter() - t0
    ok = all(cases >= 500 and failures == 0 for cases, failures in outcomes.values())
    summary = ", ".join(f"{name}={cases}/{failures}" for name, (cases, failures) in outcomes.items())
    _line(11, ok, f"property suites (cases/failures): {summary}; {elapsed:.2f}s")
    assert ok

"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``criterion N (...): PASS/FAIL [elapsed]``
line (visible with ``pytest -s`` or in captured output) and then
asserts, so a red run still shows which criterion is at fault and how
long it took.  Stated time bounds are asserted with ``perf_counter``;
everything else is exact — no tolerances anywhere.
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import knotcert as kc
from knotcert.certify import _canonical_json
from knotcert.knots import parse_knot
from oracles import brute_force_subgroups, float_signature


def _report(num, desc, ok, t0, detail=""):
    elapsed = time.perf_counter() - t0
    tail = f"  {detail}" if detail else ""
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.2f}s]{tail}")
    return elapsed


def test_criterion_01_whitehead_cover_orders():
    t0 = time.perf_counter()
    bad = []
    for a in range(-10, 11):
        for b in range(-10, 11):
            if a == 0 or b == 0:
                continue
            pc = kc.whitehead_cover(a, b)
            want = abs(4 * a * b - 1)
            if pc.group.factors != (want,) or pc.group.order != want:
                bad.append((a, b))
    ok = not bad
    elapsed = _report(1, "Whitehead cover orders |4ab-1|, 400 pairs", ok, t0)
    assert ok, bad
    assert elapsed < 1.0, f"took {elapsed:.2f}s, bound is 1s"


def test_criterion_02_torus_cover_orders():
    t0 = time.perf_counter()
    bad = []
    for n in range(3, 100, 2):
        g = kc.homology_from_seifert(kc.evaluate(parse_knot(f"torus(2,{n})")))
        if g.order != n or g.factors != (n,):
            bad.append(n)
    ok = not bad
    elapsed = _report(2, "torus(2,n) double cover order n, odd n to 99", ok, t0)
    assert ok, bad
    assert elapsed < 5.0, f"took {elapsed:.2f}s, bound is 5s"


# exactly twenty expressions: torus knots, mirrors, sums, multiples
_SIGNATURE_CORPUS = (
    "torus(2,3)", "torus(2,5)", "torus(2,7)", "torus(2,9)",
    "torus(2,11)", "torus(2,13)",
    "mirror(torus(2,3))", "mirror(torus(2,5))", "mirror(torus(2,7))",
    "torus(2,3)#torus(2,5)",
    "torus(2,3)#mirror(torus(2,7))",
    "torus(2,5)#torus(2,5)#torus(2,3)",
    "mirror(torus(2,3))#mirror(torus(2,5))",
    "torus(2,9)#mirror(torus(2,3))",
    "torus(2,11)#mirror(torus(2,11))",
    "2*torus(2,3)", "4*torus(2,5)", "3*mirror(torus(2,5))",
    "2*mirror(torus(2,9))", "5*torus(2,3)",
)


def test_criterion_03_exact_signature_vs_float_oracle():
    assert len(_SIGNATURE_CORPUS) == 20
    t0 = time.perf_counter()
    rng = random.Random(20260825)
    disagreements = []
    points = 0
    for s in _SIGNATURE_CORPUS:
        e = parse_knot(s)
        rows = kc.evaluate(e).rows
        for _ in range(50):
            q = rng.randint(2, 60)
            x = Fraction(rng.randint(1, q - 1), q)
            points += 1
            exact = kc.levine_tristram(e, x)
            approx = float_signature(rows, x)
            if exact != approx:
                disagreements.append((s, x, exact, approx))
    assert points == 1000
    ok = not disagreements
    _report(3, "exact signature vs float oracle, 1000 points", ok, t0,
            detail="0 disagreements" if ok else f"{len(disagreements)} bad")
    assert ok, disagreements[:5]


def test_criterion_04_mirror_torus_signature_positivity():
    t0 = time.perf_counter()
    violations = []
    checked = 0
    for n in (3, 5, 7, 9):
        e = parse_knot(f"mirror(torus(2,{n}))")
        sf = kc.signature_function(e, 200)
        lo, hi = Fraction(1, 2 * n), Fraction(1, 2)
        pts = [
            Fraction(j, q)
            for q in range(2, 201)
            for j in range(1, q // 2 + 1)
            if Fraction(j, q).denominator == q and lo < Fraction(j, q) <= hi
        ]
        assert pts
        for i, x in enumerate(pts):
            checked += 1
            if sf.evaluate(x) <= 0:
                violations.append((n, x))
            # second route: spot-check the step function against the
            # direct eigenvalue count
            if i % 37 == 0 and kc.levine_tristram(e, x) != sf.evaluate(x):
                violations.append((n, x, "route mismatch"))
    ok = not violations
    _report(4, "sigma_x(mirror torus(2,n)) > 0 past 1/2n", ok, t0,
            detail=f"{checked} points")
    assert ok, violations[:5]


def test_criterion_05_ordering_hypothesis_ledger():
    t0 = time.perf_counter()
    fam = lambda ms: [parse_knot(f"{m}*mirror(torus(2,5))") for m in ms]
    failing = kc.check_ordering_hypothesis(fam((1, 2)), 5)
    passing = kc.check_ordering_hypothesis(fam((1, 3, 7, 15)), 5)
    ok = (
        not failing.holds
        and passing.holds
        and passing.per_knot == ((2, 4), (6, 12), (14, 28), (30, 60))
        and all(row[3] for row in passing.rows)
    )
    _report(5, "ordering ledger for multiples of mirror torus(2,5)", ok, t0)
    assert not failing.holds
    assert passing.holds
    assert passing.per_knot == ((2, 4), (6, 12), (14, 28), (30, 60))


def test_criterion_06_subgroup_counts_vs_brute_force():
    t0 = time.perf_counter()
    expected_total = {(3, 3): 6, (2, 2, 2, 2): 67, (9, 9): 23, (3, 3, 3, 3): 212}
    bad = []
    for shape, total in expected_total.items():
        brute = brute_force_subgroups(shape)
        if len(brute) != total:
            bad.append((shape, "oracle total", len(brute)))
        by_order = Counter(len(s) for s in brute)
        group_order = 1
        for f in shape:
            group_order *= f
        d = 1
        counted = 0
        while d <= group_order:
            mine = len(kc.enumerate_subgroups(shape, d))
            if mine != by_order.get(d, 0):
                bad.append((shape, d, mine, by_order.get(d, 0)))
            counted += mine
            d *= shape[0] if shape[0] in (2, 3) else 3  # p for p^k factors
        if counted != len(brute):
            bad.append((shape, "sum", counted, len(brute)))
    # the two counts called out explicitly
    if len(kc.enumerate_subgroups((3, 3), 3)) != 4:
        bad.append("order-3 count in (Z_3)^2")
    if len(kc.enumerate_subgroups((2, 2, 2, 2), 4)) != 35:
        bad.append("order-4 count in (Z_2)^4")
    ok = not bad
    elapsed = _report(6, "subgroup counts vs brute-force lattice", ok, t0)
    assert ok, bad
    assert elapsed < 30.0, f"took {elapsed:.2f}s, bound is 30s"


def test_criterion_07_projection_properties_on_all_subgroups():
    t0 = time.perf_counter()
    violations = []
    checked = 0
    for p, k, big_n in ((3, 1, 2), (3, 1, 4), (3, 2, 2), (2, 1, 4)):
        q = p ** k
        shape = (q,) * big_n
        half = big_n // 2
        for j in range(big_n * k + 1):
            for sub in kc.enumerate_subgroups(shape, p ** j):
                checked += 1
                els = sub.elements()
                zero_a = (0,) * half
                zero_b = (0,) * (big_n - half)
                meets_b = any(e[:half] == zero_a and e[half:] != zero_b
                              for e in els)
                meets_a = any(e[half:] == zero_b and e[:half] != zero_a
                              for e in els)
                proj_a = {e[:half] for e in els}
                # injectivity of the projection given trivial intersection
                if not meets_b and len(proj_a) != len(els):
                    violations.append((p, k, big_n, sub.gens, "proj_a"))
                # order equalities when both intersections vanish
                if not meets_a and not meets_b:
                    proj_b = {e[half:] for e in els}
                    if not (len(els) == len(proj_a) == len(proj_b)):
                        violations.append((p, k, big_n, sub.gens, "orders"))
    ok = not violations
    _report(7, "projection properties on every enumerated subgroup", ok, t0,
            detail=f"{checked} subgroups")
    assert checked > 300
    assert ok, violations[:5]


def test_criterion_08_end_to_end_demo_and_reverification():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "knotcert.cli", "demo", "--a", "1", "--b", "1"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["mode"] == "exhaustive"
    assert data["per_side_cap"] == 3
    assert data["prime"] == 3
    for combo in data["combos"]:
        coeffs = combo["coefficients"]
        assert sum(c for c in coeffs if c > 0) <= 3, coeffs
        assert sum(-c for c in coeffs if c < 0) <= 3, coeffs
        assert combo["reason"] in ("parity", "witnessed")
    # the demo certificate's bytes are part of the contract
    assert len(data["combos"]) == 146
    assert hashlib.sha256(_canonical_json(data).encode()).hexdigest() == (
        "348e1fdb6a0dfe124141da474e2d4a337bfa54fe667e99b26f142fcb531468a8"
    )
    # and so are the indent-2 bytes the CLI writes
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "32c319f0053b76d2044f3680f312c9d6d4e0d6c21dcfa5944969085cbf0e0011"
    )
    verified, problems = kc.verify_certificate(data)
    ok = verified and elapsed < 60.0
    _report(8, "demo --a 1 --b 1 certifies and re-verifies", ok, t0,
            detail=f"{len(data['combos'])} combos, demo ran {elapsed:.1f}s")
    assert verified, problems
    assert elapsed < 60.0, f"demo took {elapsed:.2f}s, bound is 60s"


def test_criterion_09_winding_zero_forgets_companion():
    t0 = time.perf_counter()
    pattern_sig = kc.signature_function(parse_knot("mirror(torus(2,3))"), 60)
    companions = [
        "torus(2,3)", "torus(2,5)", "torus(2,7)", "torus(2,9)", "torus(2,11)",
        "mirror(torus(2,3))", "mirror(torus(2,5))",
        "torus(2,3)#torus(2,5)", "2*torus(2,3)", "3*mirror(torus(2,5))",
    ]
    assert len(companions) == 10
    bad = []
    for c in companions:
        sat = kc.satellite_signature_function(0, pattern_sig, parse_knot(c))
        if sat != pattern_sig:
            bad.append(c)
    ok = not bad
    _report(9, "w = 0 satellite signature ignores companion", ok, t0)
    assert ok, bad


def test_criterion_10_identical_sides_stay_inconclusive():
    t0 = time.perf_counter()
    cover = kc.whitehead_cover(1, 1)
    bad = []
    for s in ("torus(2,3)", "5*mirror(torus(2,3))"):
        e = parse_knot(s)
        inst = kc.ObstructionInstance(cover, kc.CGProfile.zero(),
                                      (e,), (e,), 3, 1)
        res = kc.check_slice_obstruction(inst)
        if res.obstructed or not res.inconclusive:
            bad.append((s, "falsely obstructed"))
        if res.reason != "vanishing-subgroup" or res.failed_subgroup is None:
            bad.append((s, res.reason))
    ok = not bad
    _report(10, "identical sides report inconclusive", ok, t0)
    assert ok, bad

"""Seeded inputs for the three workloads.

A run is made of whole rounds; every round has the same make-up, and
the seed only picks among inputs of the same size, so the work per
round barely depends on the seed while no two operations of a run
share an input.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

# base companions for certify-z3: connected sums of mirrored T(2, n),
# written as ((sign, n), ...) with sign -1 for the mirror image
Z3_BASES = (
    ((-1, 3),),
    ((-1, 5),),
    ((-1, 7),),
    ((-1, 9),),
    ((-1, 3), (-1, 5)),
    ((-1, 3), (-1, 7)),
)
Z3_MULTIPLES = tuple(combinations(range(1, 6), 2))
Z3_PATTERNS = ((1, 1), (-1, -1))
Z3_ROUND = 4

MIRROR_T25 = ((-1, 5),)


def _component_text(sign, n):
    return f"torus(2,{n})" if sign > 0 else f"mirror(torus(2,{n}))"


def member_text(member):
    mult, components = member
    base = "#".join(_component_text(s, n) for s, n in components)
    if mult == 1:
        return base
    return f"{mult}*({base})" if len(components) > 1 else f"{mult}*{base}"


def _certify_job(pattern, p, k, base, multiples, budget, cap, max_order):
    members = [(m, base) for m in multiples]
    return {
        "pattern": pattern,
        "p": p,
        "k": k,
        "members": members,
        "family": ";".join(member_text(m) for m in members),
        "budget": budget,
        "cap": cap,
        "max_group_order": max_order,
    }


def certify_z3_rounds(seed):
    """Endless rounds of four Z_3 jobs: budget 6, cap 3, two-member families."""
    rng = random.Random(seed)
    pool = [(pat, base, mult) for pat in Z3_PATTERNS for base in Z3_BASES
            for mult in Z3_MULTIPLES]
    rng.shuffle(pool)
    i = 0
    while True:
        rnd = []
        for _ in range(Z3_ROUND):
            pat, base, mult = pool[i % len(pool)]
            i += 1
            rnd.append(_certify_job(pat, 3, 1, base, mult, 6, 3, 3 ** 6))
        yield rnd


def certify_zq_rounds(seed):
    """Endless rounds of one Z_5, one Z_7 and one Z_9 job.

    Each keeps the recurrence family's largest multiple (85, about 43,
    9 or so), which sets the cost, and draws the middle multiples.
    """
    rng = random.Random(seed)
    seen = set()
    while True:
        while True:
            m2 = rng.randint(3, 5)
            z5 = (1, m2, rng.randrange(2 * m2 + 1, 42, 2), 85)
            m2 = rng.randint(3, 9)
            z7 = (1, m2, rng.choice((39, 41, 43, 45)))
            z9 = (1, rng.randint(3, 13))
            if (z5, z7, z9) not in seen:
                seen.add((z5, z7, z9))
                break
        yield [
            _certify_job((1, -1), 5, 1, MIRROR_T25, z5, 4, 2, 3 ** 6),
            _certify_job((1, 2), 7, 1, MIRROR_T25, z7, 4, 2, 7 ** 4),
            _certify_job((1, -2), 3, 2, MIRROR_T25, z9, 3, None, 3 ** 6),
        ]


# ---------------------------------------------------------------------------
# invariants-dense

# one size: the median of a one-size run is steadier than that of a mix,
# whose sizes differ twofold in cost; 13 is prime, so every root of its
# Alexander polynomial needs the exact nullity over Q(zeta_26)
DENSE_N = 13
REGULAR_DEN = 31  # prime above 2n: never a root of the torus(2, n) polynomial


def torus_rows(n):
    size = n - 1
    return [[-1 if i == j else (1 if j == i + 1 else 0) for j in range(size)]
            for i in range(size)]


def conjugate(rows, rng):
    """P V P^T for a seeded product of elementary unimodular congruences.

    One sweep of row_i += +-row_{i+1} (with the matching column move)
    fills the matrix with small entries; seeded sign flips follow.
    """
    v = [r[:] for r in rows]
    size = len(v)
    for i in range(size - 1):
        c = rng.choice((1, -1))
        v[i] = [x + c * y for x, y in zip(v[i], v[i + 1])]
        for r in v:
            r[i] += c * r[i + 1]
    for i in range(size):
        if rng.random() < 0.5:
            v[i] = [-x for x in v[i]]
            for r in v:
                r[i] = -r[i]
    return v


def _points(n, rng):
    """Two roots of Delta in (1/2, 1) with denominator 2n, two regular points."""
    roots = [Fraction(2 * c + 1, 2 * n) for c in range((n + 1) // 2, n)
             if gcd(2 * c + 1, n) == 1]
    regular = rng.sample(range(1, REGULAR_DEN), 2)
    return ([str(x) for x in rng.sample(roots, 2)]
            + [f"{j}/{REGULAR_DEN}" for j in regular])


def dense_warmup():
    """The standard matrix itself, which no conjugation sweep produces,
    so the warm-up shares no block with a timed operation."""
    n = DENSE_N
    return {"n": n, "rows": torus_rows(n),
            "points": [f"{n + 2}/{2 * n}", f"{n + 4}/{2 * n}",
                       f"1/{REGULAR_DEN}", f"2/{REGULAR_DEN}"]}


def dense_rounds(seed):
    """Endless rounds of one new conjugate of the torus(2, DENSE_N) matrix."""
    rng = random.Random(seed)
    seen = set()
    while True:
        rows = conjugate(torus_rows(DENSE_N), rng)
        key = tuple(map(tuple, rows))
        if key not in seen:
            seen.add(key)
            yield [{"n": DENSE_N, "rows": rows, "points": _points(DENSE_N, rng)}]

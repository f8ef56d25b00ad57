"""Hypothesis strategies and input generators shared by the test modules.

They live here rather than in conftest.py because the test run also
collects perfbench/tests, whose own conftest.py would shadow this
directory's under the module name ``conftest``.
"""

import hypothesis.strategies as st

import knotcert as kc


def torus_exprs(max_n=13):
    """T(2, n) for odd n in [3, max_n]."""
    return st.integers(1, (max_n - 1) // 2).map(lambda i: kc.torus(2, 2 * i + 1))


def knot_exprs(max_n=9, max_size=24):
    """Recursive expressions: torus knots under mirror, #, and multiples.

    Capped by Seifert matrix size so exact-arithmetic property tests stay
    fast; includes the unknot as a leaf.
    """
    base = torus_exprs(max_n) | st.just(kc.unknot())
    expr = st.recursive(
        base,
        lambda kids: st.one_of(
            kids.map(kc.mirror),
            st.tuples(kids, kids).map(lambda ab: kc.connected_sum(*ab)),
            st.tuples(st.integers(0, 3), kids).map(
                lambda mk: kc.multiple(mk[0], mk[1])
            ),
        ),
        max_leaves=3,
    )
    return expr.filter(lambda e: kc.evaluate(e).size <= max_size)


def unit_fractions(max_den=60):
    """Rationals in (0, 1) with bounded denominator."""
    return st.fractions(
        min_value=0, max_value=1, max_denominator=max_den
    ).filter(lambda x: 0 < x < 1)


def dense_conjugate(rows, rng):
    """P V P^T for a seeded product of elementary unimodular congruences.

    One sweep of row_i += +-row_{i+1} (with the matching column move)
    joins every diagonal block into one and fills the matrix with small
    entries; seeded sign flips follow.  The result is congruent to
    rows, so its signatures, Alexander polynomial and cover homology
    are those of rows.
    """
    v = [list(r) for r in rows]
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

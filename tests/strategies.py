"""Hypothesis strategies shared by the test modules.

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

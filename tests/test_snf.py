"""Smith normal form over Z, cross-checked against sympy."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given

from knotcert.polynomials import det_int
from knotcert.snf import smith_normal_form
from oracles import sympy_invariant_factors

int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-12, 12), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)

# m != n: U is m x m and W is n x n, so a mix-up of the two sizes shows
rect_matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(
    lambda mn: mn[0] != mn[1]
).flatmap(
    lambda mn: st.lists(
        st.lists(st.integers(-12, 12), min_size=mn[1], max_size=mn[1]),
        min_size=mn[0],
        max_size=mn[0],
    )
)


@given(int_matrices | rect_matrices)
def test_snf_transform_properties(rows):
    diag, u, w = smith_normal_form(rows)
    m, n = len(rows), len(rows[0])

    # the whole factorization: U A W = diag with U (m x m) and W (n x n)
    # unimodular
    assert len(diag) == min(m, n)
    assert len(u) == m and all(len(r) == m for r in u)
    assert len(w) == n and all(len(r) == n for r in w)
    assert abs(det_int(u)) == 1
    assert abs(det_int(w)) == 1
    U, A, W = (np.array(x, dtype=object) for x in (u, rows, w))
    D = np.zeros((m, n), dtype=object)
    np.fill_diagonal(D, diag)
    assert np.array_equal(U @ A @ W, D)

    # divisibility chain, nonnegative, zeros trailing
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0

    # a square A has |det A| equal to the product of the diagonal
    if m == n:
        prod = 1
        for d in diag:
            prod *= d
        assert abs(det_int(rows)) == prod


@given(int_matrices)
def test_snf_diag_matches_sympy_invariant_factors(rows):
    diag, _, _ = smith_normal_form(rows)
    assert tuple(d for d in diag if d > 1) == sympy_invariant_factors(rows)


def test_snf_identity_and_zero():
    diag, u, w = smith_normal_form([[1, 0], [0, 1]])
    assert diag == [1, 1]
    assert u == w == [[1, 0], [0, 1]]
    diag, _, _ = smith_normal_form([[0, 0], [0, 0]])
    assert diag == [0, 0]


def test_snf_known_example():
    # coker is Z/2 + Z/2 + Z/156 (checked against sympy by hand)
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    diag, _, _ = smith_normal_form(a)
    assert diag == [2, 2, 156]

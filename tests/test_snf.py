"""Smith normal form over Z, cross-checked against sympy."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given

from knotcert.polynomials import det_int
from knotcert.snf import is_unimodular, smith_normal_form
from oracles import sympy_invariant_factors

int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-12, 12), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(int_matrices)
def test_snf_transform_properties(rows):
    diag, u, uinv = smith_normal_form(rows)
    n = len(rows)
    U, Ui, A = np.array(u), np.array(uinv), np.array(rows)

    assert is_unimodular(u)
    assert abs(det_int(u)) == 1
    assert np.array_equal(U @ Ui, np.eye(n, dtype=np.int64))

    # divisibility chain, nonnegative, zeros trailing
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0

    # U A = diag @ W^{-1}: row i of U A is divisible by d_i (zero rows
    # where d_i = 0)
    ua = (U @ A).tolist()
    for row, d in zip(ua, diag):
        if d == 0:
            assert all(x == 0 for x in row)
        else:
            assert all(x % d == 0 for x in row)

    # |det A| is the product of the diagonal
    prod = 1
    for d in diag:
        prod *= d
    assert abs(det_int(rows)) == prod


@given(int_matrices)
def test_snf_diag_matches_sympy_invariant_factors(rows):
    diag, _, _ = smith_normal_form(rows)
    assert tuple(d for d in diag if d > 1) == sympy_invariant_factors(rows)


def test_snf_identity_and_zero():
    diag, u, uinv = smith_normal_form([[1, 0], [0, 1]])
    assert diag == [1, 1]
    diag, _, _ = smith_normal_form([[0, 0], [0, 0]])
    assert diag == [0, 0]


def test_snf_known_example():
    # coker is Z/2 + Z/2 + Z/156 (checked against sympy by hand)
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    diag, _, _ = smith_normal_form(a)
    assert diag == [2, 2, 156]

"""Knot expressions, Seifert matrices, Alexander polynomials."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

import knotcert as kc
from strategies import dense_conjugate, knot_exprs
from knotcert.polynomials import det_int
from oracles import sympy_alexander_coeffs


# ---------------------------------------------------------------------------
# construction and parsing

def test_torus_matrix_is_bidiagonal():
    v = kc.evaluate(kc.torus(2, 3))
    assert v.rows == ((-1, 1), (0, -1))
    v5 = kc.evaluate(kc.torus(2, 5))
    assert v5.size == 4
    for i in range(4):
        for j in range(4):
            expect = -1 if i == j else (1 if j == i + 1 else 0)
            assert v5.rows[i][j] == expect


def test_torus_rejects_bad_parameters():
    with pytest.raises(kc.ExpressionError):
        kc.torus(2, 4)
    with pytest.raises(kc.ExpressionError):
        kc.torus(3, 5)
    with pytest.raises(kc.ExpressionError):
        kc.torus(2, 1)


def test_raw_rejects_non_seifert_matrices():
    with pytest.raises(kc.ExpressionError):
        kc.raw(((0, 0), (0, 0)))  # det(V - V^T) = 0
    with pytest.raises(kc.ExpressionError):
        kc.raw(((1, 2), (0, 1)))  # det(V - V^T) = 4
    with pytest.raises(kc.ExpressionError):
        kc.raw(((1, 1, 0), (0, 1, 0)))  # not square


def test_parse_errors():
    for bad in ("torus(2,4)", "torus(2,3) +torus(2,5)", "mirror(", "3*", ""):
        with pytest.raises(kc.ExpressionError):
            kc.parse_knot(bad)


@given(knot_exprs())
def test_parse_round_trip(e):
    assert kc.parse_knot(kc.expr_str(e)) == e


def test_parse_whitespace_and_nesting():
    e = kc.parse_knot(" 2* mirror( torus(2,3) # torus(2,5) ) # unknot ")
    assert e == kc.connected_sum(
        kc.multiple(2, kc.mirror(kc.connected_sum(kc.torus(2, 3), kc.torus(2, 5)))),
        kc.unknot(),
    )


# ---------------------------------------------------------------------------
# Seifert matrix structure

@given(knot_exprs())
def test_seifert_pairing_is_unimodular(e):
    v = kc.evaluate(e)
    n = v.size
    a = [
        [v.rows[i][j] - v.rows[j][i] for j in range(n)]
        for i in range(n)
    ]
    # exactly +1, not just a unit: V - V^T is skew-symmetric of even
    # size, so its determinant is a perfect square (the Pfaffian squared)
    assert det_int(a) == 1


@given(knot_exprs())
def test_mirror_transposes_and_negates(e):
    v = kc.evaluate(e)
    m = kc.evaluate(kc.mirror(e))
    n = v.size
    assert m.size == n
    for i in range(n):
        for j in range(n):
            assert m.rows[i][j] == -v.rows[j][i]


@given(knot_exprs())
def test_derived_matrices_equal_the_checked_construction(e):
    # torus matrices, mirror and block_diagonal skip the determinant check:
    # every matrix evaluate builds, torus(2, n) included, must be exactly
    # what the checked constructor accepts
    for v in (kc.evaluate(e), kc.evaluate(kc.mirror(e)),
              kc.evaluate(kc.connected_sum(e, kc.mirror(e))),
              kc.evaluate(kc.multiple(3, e)), kc.evaluate(kc.multiple(-2, e))):
        checked = kc.SeifertMatrix(v.rows)
        assert checked == v and hash(checked) == hash(v)
        assert checked.diagonal_blocks() == v.diagonal_blocks()
        assert all(type(x) is int for row in v.rows for x in row)
        n = v.size
        assert det_int(
            [[v.rows[i][j] - v.rows[j][i] for j in range(n)] for i in range(n)]
        ) == 1


def _scanned_blocks(v):
    # a fresh matrix of the same rows, whose blocks the union-find finds
    return kc.SeifertMatrix._derived(v.rows).diagonal_blocks()


@given(knot_exprs())
def test_passed_on_blocks_equal_the_scanned_blocks(e):
    # mirror and block_diagonal hand their result the blocks of their
    # parts; they must be the blocks a scan of the assembled matrix finds
    for v in (kc.evaluate(e), kc.evaluate(kc.mirror(e)),
              kc.evaluate(kc.connected_sum(e, kc.mirror(e))),
              kc.evaluate(kc.multiple(3, e)), kc.evaluate(kc.multiple(-2, e))):
        assert v.diagonal_blocks() == _scanned_blocks(v)


@pytest.mark.parametrize("known", [True, False], ids=["known", "unknown"])
def test_mirror_blocks_whether_or_not_computed(known):
    # a torus block, a mirrored one, a dense one from congruences, and
    # their orthogonal sum; none of the blocks is symmetric
    parts = [kc.evaluate(kc.torus(2, 5)), kc.evaluate(kc.mirror(kc.torus(2, 3))),
             kc.SeifertMatrix(dense_conjugate(kc.evaluate(kc.torus(2, 7)).rows,
                                              random.Random(3)))]
    for v in parts + [kc.SeifertMatrix(kc.SeifertMatrix.block_diagonal(parts).rows)]:
        v = kc.SeifertMatrix(v.rows)  # checked constructor: no blocks yet
        if known:
            v.diagonal_blocks()
        m = v.mirror()
        assert ("_blocks" in m.__dict__) == known
        assert m.diagonal_blocks() == _scanned_blocks(m)
        assert m.mirror() == v and m.mirror().diagonal_blocks() == v.diagonal_blocks()


def test_raw_still_checks_inside_derived_expressions():
    bad = ((1, 2), (0, 1))  # det(V - V^T) = 4
    for text in ("mirror([[1,2],[0,1]])", "3*[[1,2],[0,1]]",
                 "torus(2,3) # [[1,2],[0,1]]"):
        with pytest.raises(kc.ExpressionError):
            kc.evaluate(kc.parse_knot(text))
    with pytest.raises(kc.ExpressionError):
        kc.evaluate(kc.mirror(kc.raw(bad)))


def test_connected_sum_is_block_diagonal():
    v = kc.evaluate(kc.connected_sum(kc.torus(2, 3), kc.torus(2, 3)))
    assert v.size == 4
    assert v.rows[0][2] == v.rows[0][3] == v.rows[2][0] == v.rows[3][1] == 0
    blocks = v.diagonal_blocks()
    assert len(blocks) == 2


def test_multiple_iterates_connected_sum():
    assert kc.evaluate(kc.multiple(3, kc.torus(2, 3))).size == 6
    assert kc.multiple(0, kc.torus(2, 3)) == kc.unknot() or kc.evaluate(
        kc.multiple(0, kc.torus(2, 3))
    ).size == 0
    assert kc.evaluate(kc.multiple(1, kc.torus(2, 5))) == kc.evaluate(kc.torus(2, 5))
    k = kc.connected_sum(kc.torus(2, 3), kc.mirror(kc.torus(2, 5)))
    assert kc.evaluate(kc.multiple(3, k)) == kc.evaluate(kc.connected_sum(k, k, k))
    assert kc.evaluate(kc.multiple(-2, k)) == kc.evaluate(
        kc.connected_sum(kc.mirror(k), kc.mirror(k))
    )


# ---------------------------------------------------------------------------
# Alexander polynomial: exact implementation vs symbolic oracle

@given(knot_exprs(max_n=9, max_size=12))
def test_alexander_matches_symbolic_determinant(e):
    ours = kc.alexander_polynomial(e)
    assert ours.coeffs == sympy_alexander_coeffs(kc.evaluate(e).rows)


@given(knot_exprs())
def test_alexander_is_palindromic_with_unit_augmentation(e):
    delta = kc.alexander_polynomial(e)
    assert delta.is_palindromic()
    assert delta(1) in (1, -1)
    assert abs(delta(-1)) % 2 == 1


@given(knot_exprs(max_size=16))
def test_alexander_multiplicative_under_sum(e):
    delta = kc.alexander_polynomial(e)
    square = kc.alexander_polynomial(kc.connected_sum(e, e))
    assert square == delta * delta


@given(knot_exprs(max_size=16))
def test_alexander_invariant_under_mirror(e):
    assert kc.alexander_polynomial(kc.mirror(e)) == kc.alexander_polynomial(e)


def test_alexander_examples():
    assert str(kc.alexander_polynomial(kc.torus(2, 3))) == "t^2 - t + 1"
    assert kc.alexander_polynomial(kc.torus(2, 5)).coeffs == (1, -1, 1, -1, 1)
    assert kc.alexander_polynomial(kc.unknot()).coeffs == (1,)


def test_alexander_of_raw_genus_one():
    # V = ((1,1),(0,2)): det(V - tV^T) = 2t^2 - 3t + 2
    e = kc.raw(((1, 1), (0, 2)))
    assert kc.alexander_polynomial(e).coeffs == (2, -3, 2)

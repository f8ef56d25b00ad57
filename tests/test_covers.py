"""Double branched covers: homology, linking forms, characters."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

import knotcert as kc
from oracles import sympy_linking
from strategies import knot_exprs


# ---------------------------------------------------------------------------
# homology of the double branched cover

def test_torus_covers_are_cyclic():
    for n in (3, 5, 7, 9, 15, 99):
        h = kc.homology_from_seifert(kc.evaluate(kc.torus(2, n)))
        assert h.factors == (n,), n


def test_connected_sum_cover_splits():
    e = kc.connected_sum(kc.torus(2, 3), kc.torus(2, 3))
    h = kc.homology_from_seifert(kc.evaluate(e))
    assert sorted(h.factors) == [3, 3]


def test_unknot_cover_is_trivial():
    h = kc.homology_from_seifert(kc.evaluate(kc.unknot()))
    assert h.is_trivial() if callable(h.is_trivial) else h.is_trivial
    assert h.order == 1


@given(knot_exprs(max_size=16))
def test_cover_order_is_determinant(e):
    # dual route: SNF of V + V^T against the Alexander polynomial at -1
    h = kc.homology_from_seifert(kc.evaluate(e))
    assert h.order == abs(kc.alexander_polynomial(e)(-1))


# ---------------------------------------------------------------------------
# presentation bookkeeping

def test_presentation_positions_and_diag():
    pres = kc.cover_presentation(kc.evaluate(kc.torus(2, 3)))
    assert pres.diag == (1, 3)
    assert pres.positions == (1,)
    assert pres.group.factors == (3,)


@given(knot_exprs(max_size=16))
def test_coords_of_lifts_are_units(e):
    pres = kc.cover_presentation(kc.evaluate(e))
    r = pres.group.rank
    for i, lift in enumerate(pres.generator_lifts):
        expect = tuple(1 if j == i else 0 for j in range(r))
        assert pres.coords(lift) == expect


def test_coords_are_additive():
    pres = kc.cover_presentation(
        kc.evaluate(kc.connected_sum(kc.torus(2, 3), kc.torus(2, 3)))
    )
    assert pres.group.rank == 2
    a, b = pres.generator_lifts
    s = tuple(x + y for x, y in zip(a, b))
    assert pres.coords(s) == pres.group.add(pres.coords(a), pres.coords(b))


# ---------------------------------------------------------------------------
# linking form

def test_trefoil_linking_value():
    v = kc.evaluate(kc.torus(2, 3))
    pres = kc.cover_presentation(v)
    assert pres.linking_matrix == ((Fraction(2, 3),),)
    assert pres.linking((1,), (1,)) == Fraction(2, 3)
    assert kc.linking_form(v, (1,), (1,)) == Fraction(2, 3)


def test_linking_routes_agree():
    # standalone recomputation against the cached presentation
    for e in (kc.torus(2, 5), kc.connected_sum(kc.torus(2, 3), kc.torus(2, 3))):
        v = kc.evaluate(e)
        pres = kc.cover_presentation(v)
        r = pres.group.rank
        for x in product(*[range(f) for f in pres.group.factors]):
            for y in product(*[range(f) for f in pres.group.factors]):
                assert kc.linking_form(v, x, y) == pres.linking(x, y)


@pytest.mark.parametrize("text", [
    "3*torus(2,11)#torus(2,3)#torus(2,3)",
    "2*torus(2,21)#torus(2,5)",
    "torus(2,9)#mirror(torus(2,15))#2*torus(2,7)",
    "torus(2,3)#torus(2,3)",
])
def test_linking_matches_inverse_oracle(text):
    # lambda(x, y) = -x^T (V+V^T)^{-1} y mod 1 for integer vectors x, y,
    # whatever generators the presentation picked
    v = kc.evaluate(kc.parse_knot(text))
    pres = kc.cover_presentation(v)
    sym = v.symmetrized()
    rng = random.Random(2011)
    for _ in range(12):
        x = [rng.randint(-6, 6) for _ in sym]
        y = [rng.randint(-6, 6) for _ in sym]
        got = pres.linking(pres.coords(x), pres.coords(y))
        assert got == sympy_linking(sym, x, y), (x, y)


def test_linking_is_symmetric_bilinear_nondegenerate():
    e = kc.connected_sum(kc.torus(2, 3), kc.torus(2, 3))
    pres = kc.cover_presentation(kc.evaluate(e))
    g = pres.group
    els = list(g.elements())
    for x in els:
        for y in els:
            assert pres.linking(x, y) == pres.linking(y, x)
            for z in els:
                assert (
                    pres.linking(g.add(x, y), z)
                    == (pres.linking(x, z) + pres.linking(y, z)) % 1
                )
    zero = g.zero()
    for x in els:
        if x == zero:
            continue
        chi = pres.character_from_element(x)
        assert not chi.is_zero


def test_character_from_element_is_linking_row():
    pres = kc.cover_presentation(kc.evaluate(kc.torus(2, 5)))
    for x in pres.group.elements():
        chi = pres.character_from_element(x)
        for y in pres.group.elements():
            assert chi.evaluate(y) == pres.linking(x, y)


# ---------------------------------------------------------------------------
# twisted Whitehead pattern covers

def test_whitehead_cover_orders():
    for a, b in ((1, 1), (1, 2), (2, 3), (-1, 1), (1, -1), (-2, -3), (3, -2)):
        cover = kc.whitehead_cover(a, b)
        assert cover.group.order == abs(4 * a * b - 1), (a, b)
        assert cover.winding_number == 0
        assert cover.group.generates(cover.v1_class)


def test_whitehead_linking_denominator():
    for a, b in ((1, 1), (1, 2), (2, 3), (-1, 2)):
        cover = kc.whitehead_cover(a, b)
        n = cover.group.order
        lam = cover.linking_matrix[0][0]
        assert lam != 0
        assert lam.denominator == n, (a, b, lam)


def test_whitehead_excluded_parameters():
    for a, b in ((0, 5), (5, 0), (0, 0)):
        with pytest.raises(kc.HypothesisViolation):
            kc.whitehead_cover(a, b)


def test_whitehead_unknotted_pattern_cover_value():
    cover = kc.whitehead_cover(1, 1)
    assert cover.group.factors == (3,)
    assert cover.linking_matrix == ((Fraction(1, 3),),)


# ---------------------------------------------------------------------------
# characters

def test_characters_include_zero_and_negations():
    g = kc.FiniteAbelianGroup((3, 3))
    chars = kc.characters_of_order(g, 3)
    assert len(chars) == 9
    assert chars[0].is_zero
    vals = {c.values for c in chars}
    for c in chars:
        neg = tuple((-v) % 1 for v in c.values)
        assert neg in vals


def test_characters_of_bounded_order():
    g = kc.FiniteAbelianGroup((9,))
    all_chars = kc.characters_of_order(g, 3)
    assert len(all_chars) == 9
    small = kc.characters_of_order(g, 3, max_power=1)
    assert [c.values for c in small] == [
        (Fraction(0),),
        (Fraction(1, 3),),
        (Fraction(2, 3),),
    ]
    assert all(c.order in (1, 3) for c in small)


def test_characters_validate_prime():
    g = kc.FiniteAbelianGroup((9,))
    with pytest.raises(kc.HypothesisViolation):
        kc.characters_of_order(g, 4)
    with pytest.raises(kc.HypothesisViolation):
        kc.characters_of_order(g, 5)


def test_characters_sorted_deterministically():
    g = kc.FiniteAbelianGroup((3, 3))
    chars = kc.characters_of_order(g, 3)
    assert chars == sorted(chars, key=lambda c: c.sort_key())


def test_character_hash_is_the_dataclass_hash():
    # the hash is computed once, but must stay hash((values,)), so sets
    # and dicts of characters keep their order; equal characters built
    # from unreduced values, or by negation, hash alike
    g = kc.FiniteAbelianGroup((3, 9))
    for c in kc.characters_of_order(g, 3):
        assert hash(c) == hash((c.values,))
        assert hash(-(-c)) == hash(c) and -(-c) == c
    assert hash(kc.Character((Fraction(4, 3), -1))) == hash(kc.Character((Fraction(1, 3), 0)))

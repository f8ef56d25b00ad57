"""Exact Levine-Tristram signatures and signature step functions."""

import random
from fractions import Fraction

import hypothesis.strategies as st
import mpmath as mp
import pytest
from hypothesis import given, settings

import knotcert as kc
from knotcert import cli, signatures
from knotcert.knots import alexander_of_matrix
from knotcert.polynomials import cyclotomic, factor_multiplicity
from strategies import dense_conjugate, knot_exprs, torus_exprs, unit_fractions
from oracles import float_signature, sympy_cyclotomic_nullity
from test_acceptance import _SIGNATURE_CORPUS


# ---------------------------------------------------------------------------
# pointwise values

def test_trefoil_values():
    e = kc.torus(2, 3)
    assert kc.levine_tristram(e, Fraction(1, 2)) == -2
    assert kc.levine_tristram(e, Fraction(1, 3)) == -2
    assert kc.levine_tristram(e, Fraction(1, 12)) == 0
    # exactly at the jump the matrix is singular and the signature is odd
    assert kc.levine_tristram(e, Fraction(1, 6)) == -1
    assert kc.levine_tristram(e, Fraction(0)) == 0
    assert kc.levine_tristram(e, Fraction(1)) == 0


def test_torus_two_n_profile():
    # sigma_x(T(2,n)) steps down by 2 at each odd multiple of 1/(2n)
    for n in (3, 5, 7, 9):
        e = kc.torus(2, n)
        for j in range(1, (n - 1) // 2 + 1):
            assert kc.levine_tristram(e, Fraction(j, n)) == -2 * j, (n, j)
        assert kc.levine_tristram(e, Fraction(1, 2)) == -(n - 1)


def test_mirror_torus_positive_on_upper_arc():
    for n in (3, 5, 7):
        e = kc.mirror(kc.torus(2, n))
        for j in range(1, (n - 1) // 2 + 1):
            assert kc.levine_tristram(e, Fraction(j, n)) == 2 * j


@given(knot_exprs(), unit_fractions())
def test_conjugation_symmetry(e, x):
    assert kc.levine_tristram(e, x) == kc.levine_tristram(e, 1 - x)


@given(knot_exprs(max_size=16), knot_exprs(max_size=16), unit_fractions())
def test_additivity_under_connected_sum(e1, e2, x):
    whole = kc.levine_tristram(kc.connected_sum(e1, e2), x)
    assert whole == kc.levine_tristram(e1, x) + kc.levine_tristram(e2, x)


@given(knot_exprs(), unit_fractions())
def test_mirror_negates_signature(e, x):
    assert kc.levine_tristram(kc.mirror(e), x) == -kc.levine_tristram(e, x)


@given(st.integers(0, 4), knot_exprs(max_size=10), unit_fractions())
def test_multiples_scale_signature(m, e, x):
    assert kc.levine_tristram(kc.multiple(m, e), x) == m * kc.levine_tristram(e, x)


@settings(max_examples=60)
@given(knot_exprs(max_size=16), unit_fractions(max_den=48))
def test_exact_signature_matches_floating_oracle(e, x):
    v = kc.evaluate(e)
    assert kc.levine_tristram(e, x) == float_signature(v.rows, x)


def test_signature_of_matrix_agrees_with_expression_route():
    for e in (kc.torus(2, 5), kc.mirror(kc.torus(2, 7))):
        v = kc.evaluate(e)
        for x in (Fraction(1, 3), Fraction(2, 7), Fraction(1, 2)):
            assert kc.signature_of_matrix(v, x) == kc.levine_tristram(e, x)


def test_mpmath_fallback_reproduces_acceptance_sweeps(monkeypatch):
    # the criterion-3 points (every tenth: the whole sweep takes about 35 s
    # through mpmath) and the criterion-4 step functions, first on the
    # double-precision path, then with that path declining every block
    rng = random.Random(20260825)
    points = []
    for s in _SIGNATURE_CORPUS:
        for _ in range(50):
            q = rng.randint(2, 60)
            points.append((kc.parse_knot(s), Fraction(rng.randint(1, q - 1), q)))
    points = points[::10]
    mirrors = [kc.mirror(kc.torus(2, n)) for n in (3, 5, 7, 9)]

    def sweep():
        return ([kc.levine_tristram(e, x) for e, x in points],
                [kc.signature_function(e, 200) for e in mirrors])

    want = sweep()
    mp_calls = []
    certify_mp = signatures._certify_mp

    def counted_mp(*args):
        mp_calls.append(args)
        return certify_mp(*args)

    monkeypatch.setattr(signatures, "_certify_double", lambda *args: None)
    monkeypatch.setattr(signatures, "_certify_mp", counted_mp)
    signatures._block_signature.cache_clear()
    try:
        got = sweep()
    finally:
        signatures._block_signature.cache_clear()
    assert got == want
    # the fallback ran, singular points (nonzero nullity) included
    assert any(nullity for _, _, _, nullity, _ in mp_calls)


def test_precision_exhausted_maps_to_exit_3(monkeypatch, capsys):
    # the double path declines every block and the mpmath ladder stops at
    # 4 bits, too coarse to keep the trefoil's eigenvalues off 0
    monkeypatch.setattr(signatures, "_certify_double", lambda *args: None)
    monkeypatch.setattr(signatures, "_PRECISIONS", (2, 4))
    signatures._block_signature.cache_clear()
    try:
        with pytest.raises(kc.PrecisionExhausted, match="precision cap 4 bits"):
            signatures.signature_of_matrix(
                kc.evaluate(kc.torus(2, 3)), Fraction(1, 3)
            )
        assert cli.run(["sig", "torus(2,3)", "--at", "1/3"]) == 3
    finally:
        signatures._block_signature.cache_clear()
    assert "error:" in capsys.readouterr().err


def test_mpmath_no_convergence_climbs_the_ladder(monkeypatch, capsys):
    # at 8 bits mpmath's eigensolver gives up on the torus(2,5) block at
    # x = 1/3 with a RuntimeError; that rung must decline, not crash
    monkeypatch.setattr(signatures, "_certify_double", lambda *args: None)
    v = kc.evaluate(kc.torus(2, 5))
    x = Fraction(1, 3)
    signatures._block_signature.cache_clear()
    try:
        monkeypatch.setattr(signatures, "_PRECISIONS", (8, 113))
        assert signatures.signature_of_matrix(v, x) == -4
        signatures._block_signature.cache_clear()
        monkeypatch.setattr(signatures, "_PRECISIONS", (8,))
        with pytest.raises(kc.PrecisionExhausted, match="precision cap 8 bits"):
            signatures.signature_of_matrix(v, x)
        assert cli.run(["sig", "torus(2,5)", "--at", "1/3"]) == 3
    finally:
        signatures._block_signature.cache_clear()
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the double pass's integer enclosure of omega

def _assert_encloses(points):
    # at 400 bits the oracle's own error is far below the 2^-140 or so
    # that every radius has on top of the midpoint's rounding
    with mp.workprec(400):
        for j, d in points:
            cm, cr, sm, sr = signatures._omega_enclosure(j, d)
            assert cr < 1e-15 and sr < 1e-15, (j, d, cr, sr)
            theta = 2 * mp.pi * j / d
            assert abs(mp.cos(theta) - cm) <= cr, (j, d, "cos", cm, cr)
            assert abs(mp.sin(theta) - sm) <= sr, (j, d, "sin", sm, sr)


def test_omega_enclosure_holds_every_small_root_of_unity():
    _assert_encloses((j, d) for d in range(1, 201) for j in range(d))


@pytest.mark.parametrize("d", [2 ** 61 - 1, 10 ** 21 + 117])
def test_omega_enclosure_holds_at_huge_orders(d):
    rng = random.Random(d)
    js = [1, d - 1, d // 2, d // 4] + [rng.randrange(d) for _ in range(200)]
    _assert_encloses((j, d) for j in js)


# ---------------------------------------------------------------------------
# nullity at the roots of Delta

def _one_dense_block(e, seed):
    """A dense conjugate of e's Seifert matrix that is one diagonal block."""
    v = kc.evaluate(kc.raw(dense_conjugate(kc.evaluate(e).rows, random.Random(seed))))
    (block,) = v.diagonal_blocks()
    return v, block


@pytest.mark.parametrize("n", [5, 7, 13])
def test_nullity_shortcut_matches_field_elimination(n):
    v, block = _one_dense_block(kc.torus(2, n), n)
    locus = signatures._circle_root_locus(alexander_of_matrix(v))
    assert len(locus) == (n - 1) // 2
    for x in locus + [1 - x for x in locus]:
        j, d = x.numerator, x.denominator
        assert signatures._nullity(block, j, d) == 1, x
        assert signatures._exact_nullity(block, j, d) == 1, x
    # a regular point and a denominator past 2 deg^2 have nullity 0
    assert signatures._nullity(block, 1, 31) == 0
    assert signatures._nullity(block, 1, 2 * (n - 1) ** 2 + 1) == 0


def test_repeated_cyclotomic_factor_takes_the_field_path(monkeypatch):
    # Delta(T(2,3)) = Phi_6 and Delta(T(2,9)) = Phi_6 Phi_18, so Phi_6^2
    # divides Delta of the sum and its nullity at 1/6 is 2
    whole = kc.connected_sum(kc.torus(2, 3), kc.torus(2, 9))
    v, block = _one_dense_block(whole, 6)
    mixed = kc.raw(v.rows)
    mult, _ = factor_multiplicity(alexander_of_matrix(v), cyclotomic(6))
    assert mult == 2

    exact = signatures._exact_nullity
    calls = []

    def counted(block, j, d):
        calls.append((j, d))
        return exact(block, j, d)

    monkeypatch.setattr(signatures, "_exact_nullity", counted)
    signatures._block_signature.cache_clear()
    try:
        assert signatures._nullity(block, 1, 6) == 2
        assert kc.levine_tristram(mixed, Fraction(1, 6)) == -4
        assert kc.levine_tristram(whole, Fraction(1, 6)) == -4
        assert kc.signature_function(mixed, 18) == kc.signature_function(whole, 18)
    finally:
        signatures._block_signature.cache_clear()
    # only the repeated factor reaches the field; simple ones never do
    assert set(calls) == {(1, 6)}


# one diagonal block with Delta = (t^2 - t + 1)^2 whose A(e^{2 pi i/6})
# has a one-dimensional kernel: the nullity stays below the multiplicity
_PHI6_SQUARED_NULLITY_1 = kc.raw(
    ((-2, -1, 0, 1), (0, -2, 1, 1), (2, 1, 0, -2), (-1, 2, -1, 0))
)


def test_repeated_factor_with_nullity_below_its_multiplicity():
    v = kc.evaluate(_PHI6_SQUARED_NULLITY_1)
    (block,) = v.diagonal_blocks()
    mult, _ = factor_multiplicity(alexander_of_matrix(v), cyclotomic(6))
    assert mult == 2
    assert signatures._nullity(block, 1, 6) == 1
    x = Fraction(1, 6)
    assert kc.levine_tristram(_PHI6_SQUARED_NULLITY_1, x) == -1
    assert float_signature(v.rows, x) == -1


@pytest.mark.parametrize("n", [5, 7, 13])
def test_exact_nullity_matches_sympy_at_every_root(n):
    v, block = _one_dense_block(kc.torus(2, n), n)
    locus = signatures._circle_root_locus(alexander_of_matrix(v))
    for x in locus + [1 - x for x in locus]:
        j, d = x.numerator, x.denominator
        assert signatures._exact_nullity(block, j, d) == (
            sympy_cyclotomic_nullity(block, j, d)
        ), x


@pytest.mark.parametrize("e, seed, x, nullity", [
    (kc.connected_sum(kc.torus(2, 3), kc.torus(2, 9)), 6, Fraction(1, 6), 2),
    (kc.connected_sum(kc.torus(2, 9), kc.torus(2, 9)), 18, Fraction(1, 18), 2),
    (_PHI6_SQUARED_NULLITY_1, None, Fraction(1, 6), 1),
], ids=["T(2,3)#T(2,9)", "T(2,9)#T(2,9)", "phi6-squared-4x4"])
def test_exact_nullity_matches_sympy_on_repeated_factors(e, seed, x, nullity):
    if seed is None:
        (block,) = kc.evaluate(e).diagonal_blocks()
    else:
        _, block = _one_dense_block(e, seed)
    j, d = x.numerator, x.denominator
    assert signatures._exact_nullity(block, j, d) == nullity
    assert sympy_cyclotomic_nullity(block, j, d) == nullity


# ---------------------------------------------------------------------------
# step functions

def test_trefoil_signature_function():
    sf = kc.signature_function(kc.torus(2, 3), 12)
    assert sf.jumps == (Fraction(1, 6),)
    assert sf.interval_values == (0, -2)
    assert sf.jump_values == (-1,)
    assert sf.evaluate(Fraction(1, 6)) == -1
    assert sf.evaluate(Fraction(1, 12)) == 0
    assert sf.evaluate(Fraction(1, 2)) == -2
    # folding: evaluate(x) == evaluate(1 - x)
    assert sf.evaluate(Fraction(5, 6)) == -1
    assert sf.evaluate(Fraction(11, 12)) == 0


def test_unknot_signature_function_is_zero():
    sf = kc.signature_function(kc.unknot(), 6)
    assert sf.jumps == ()
    assert sf.interval_values == (0,)
    assert sf.evaluate(Fraction(1, 3)) == 0


def test_signature_function_structure():
    sf = kc.signature_function(kc.connected_sum(kc.torus(2, 5), kc.torus(2, 3)), 30)
    assert all(0 < j <= Fraction(1, 2) for j in sf.jumps)
    assert all(a < b for a, b in zip(sf.jumps, sf.jumps[1:]))
    assert len(sf.interval_values) == len(sf.jumps) + 1
    assert sf.interval_values[0] == 0


@given(knot_exprs(max_size=16))
def test_signature_function_matches_pointwise_values(e):
    # dual route: the compiled step function against fresh pointwise
    # evaluations on a grid finer than the jump spacing
    sf = kc.signature_function(e, 12)
    for num in range(0, 25):
        x = Fraction(num, 24)
        assert sf.evaluate(x) == kc.levine_tristram(e, x), (e, x)


def test_signature_function_den_bound_validation():
    with pytest.raises(kc.ExpressionError):
        kc.signature_function(kc.torus(2, 3), 1)


def test_signature_function_unsupported_jump_locus():
    # 2t^2 - 3t + 2 has unit-circle roots at irrational angles
    with pytest.raises(kc.UnsupportedKnotError):
        kc.signature_function(kc.raw(((1, 1), (0, 2))), 12)
    # pointwise evaluation still works fine there
    assert kc.levine_tristram(kc.raw(((1, 1), (0, 2))), Fraction(1, 3)) in (-2, 0, 2)


def test_to_dict_round_trip_fields():
    sf = kc.signature_function(kc.torus(2, 5), 20)
    d = sf.to_dict()
    assert d["jumps"] == [str(j) for j in sf.jumps]
    assert d["interval_values"] == list(sf.interval_values)
    assert d["jump_values"] == list(sf.jump_values)
    assert d["denominator_bound"] == 20


# ---------------------------------------------------------------------------
# satellite signature functions

def test_winding_zero_forgets_companion():
    pattern_sig = kc.signature_function(kc.torus(2, 3), 20)
    companions = [
        kc.unknot(),
        kc.torus(2, 5),
        kc.mirror(kc.torus(2, 7)),
        kc.multiple(3, kc.torus(2, 3)),
    ]
    for companion in companions:
        sat = kc.satellite_signature_function(0, pattern_sig, companion)
        assert sat == pattern_sig


def test_odd_winding_rejected():
    pattern_sig = kc.signature_function(kc.unknot(), 6)
    for w in (1, 3, -5):
        with pytest.raises(kc.HypothesisViolation):
            kc.satellite_signature_function(w, pattern_sig, kc.torus(2, 3))


@given(torus_exprs(max_n=9), st.sampled_from([0, 2, 4, -2]))
def test_satellite_function_matches_winding_formula(companion, w):
    pattern_sig = kc.signature_function(kc.torus(2, 3), 20)
    sat = kc.satellite_signature_function(w, pattern_sig, companion)
    for num in range(0, 21):
        x = Fraction(num, 20)
        expect = pattern_sig.evaluate(x) + kc.levine_tristram(
            companion, (Fraction(w) * x) % 1
        )
        assert sat.evaluate(x) == expect, (companion, w, x)


# ---------------------------------------------------------------------------
# signature-ordering ledger for multiple families

def test_ordering_fails_for_adjacent_multiples():
    base = kc.mirror(kc.torus(2, 5))
    family = (base, kc.multiple(2, base))
    check = kc.check_ordering_hypothesis(family, 5)
    assert not check.holds
    assert check.per_knot == ((2, 4), (4, 8))
    # overlap: max of the first block (4) is not below min of the next (4)
    assert check.rows == ((0, 4, 4, False),)


def test_ordering_holds_for_spread_multiples():
    base = kc.mirror(kc.torus(2, 5))
    family = tuple(kc.multiple(m, base) for m in (1, 3, 7, 15))
    check = kc.check_ordering_hypothesis(family, 5)
    assert check.holds
    assert check.per_knot == ((2, 4), (6, 12), (14, 28), (30, 60))
    assert check.rows == ((0, 4, 6, True), (1, 12, 14, True), (2, 28, 30, True))


def test_ordering_uses_all_fractions_below_half():
    # per_knot records (min, max) over every j/n with 0 < j < n/2
    base = kc.mirror(kc.torus(2, 9))
    check = kc.check_ordering_hypothesis((base,), 9)
    assert check.per_knot == ((2, 8),)
    assert check.holds

    # composite numerators are part of the sweep: at n = 6 the value at
    # j = 2 (x = 1/3) is 2 while the coprime-only sweep would cap at the
    # jump-point value 1
    base3 = kc.mirror(kc.torus(2, 3))
    check6 = kc.check_ordering_hypothesis((base3, kc.multiple(3, base3)), 6)
    assert check6.per_knot == ((1, 2), (3, 6))
    assert check6.holds


def test_ordering_validates_inputs():
    with pytest.raises(kc.HypothesisViolation):
        kc.check_ordering_hypothesis((), 5)
    with pytest.raises(kc.HypothesisViolation):
        kc.check_ordering_hypothesis((kc.torus(2, 3),), 2)

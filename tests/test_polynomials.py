"""Integer polynomial layer: cyclotomics, determinants, Sturm counts."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
import sympy
from hypothesis import example, given

from knotcert.polynomials import (
    ONE,
    IntPoly,
    T,
    compact_circle_form,
    cyclotomic,
    det_int,
    det_poly,
    euler_phi,
    factor_multiplicity,
    orders_with_phi_at_most,
    simplest_between,
    sturm_count,
)

t_sym = sympy.symbols("t")


def to_sympy(p):
    return sum(c * t_sym ** i for i, c in enumerate(p.coeffs))


small_polys = st.lists(st.integers(-5, 5), min_size=1, max_size=6).map(
    lambda cs: IntPoly(tuple(cs))
)
# nonzero, with a leading coefficient other than 1
non_monic_polys = st.tuples(
    st.lists(st.integers(-5, 5), max_size=4),
    st.integers(-6, 6).filter(lambda c: c not in (0, 1)),
).map(lambda t: IntPoly(tuple(t[0]) + (t[1],)))
monic_polys = st.lists(st.integers(-5, 5), max_size=4).map(
    lambda cs: IntPoly(tuple(cs) + (1,))
)


# ---------------------------------------------------------------------------
# cyclotomics and phi

def test_cyclotomic_matches_sympy():
    for d in range(1, 61):
        diff = to_sympy(cyclotomic(d)) - sympy.cyclotomic_poly(d, t_sym)
        assert sympy.expand(diff) == 0, d


def test_euler_phi_matches_sympy():
    for n in range(1, 300):
        assert euler_phi(n) == int(sympy.totient(n)), n


def test_cyclotomic_product_is_t_power_minus_one():
    # prod over d | n of Phi_d(t) = t^n - 1
    for n in (1, 2, 3, 4, 6, 8, 12, 30):
        prod = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPoly((-1,) + (0,) * (n - 1) + (1,)), n


def test_orders_with_phi_at_most_is_complete():
    for bound in (1, 2, 4, 6, 8):
        listed = set(orders_with_phi_at_most(bound))
        # the d <= 2*bound^2 + 1 range is provably exhaustive
        for d in range(3, 2 * bound * bound + 40):
            if int(sympy.totient(d)) <= bound:
                assert d in listed, (bound, d)
            else:
                assert d not in listed, (bound, d)


# ---------------------------------------------------------------------------
# ring operations

@given(small_polys, small_polys)
def test_poly_arithmetic_commutes_with_evaluation(p, q):
    x = Fraction(2, 3)
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (-p)(x) == -p(x)
    assert (p - q)(x) == p(x) - q(x)


@given(small_polys, st.integers(1, 24))
def test_divides_and_multiplicity_on_built_products(p, d):
    f = cyclotomic(d)
    q = f * f * p
    assert q.monic_divmod(f)[1].is_zero()
    if not p.is_zero():
        k, cofactor = factor_multiplicity(q, f)
        assert k >= 2
        assert not cofactor.monic_divmod(f)[1].is_zero()
        rebuilt = cofactor
        for _ in range(k):
            rebuilt = rebuilt * f
        assert rebuilt == q


@given(small_polys, monic_polys)
@example(IntPoly((3, -1, 0, 2, 5)), cyclotomic(6))
def test_monic_divmod_round_trip(p, f):
    quo, rem = p.monic_divmod(f)
    assert quo * f + rem == p
    assert rem.degree < f.degree


@given(small_polys, non_monic_polys)
def test_exact_div_by_non_monic_divisor(p, f):
    # the quotient is found through Q and must come back to Z[t]
    assert (p * f).exact_div(f) == p


@given(small_polys, non_monic_polys.filter(lambda f: f != -ONE))
@example(ONE, IntPoly((2,)))
def test_inexact_division_raises(p, f):
    # a remainder of 1 for deg f >= 1, a fractional quotient otherwise
    with pytest.raises(ArithmeticError):
        (p * f + ONE).exact_div(f)


@given(monic_polys.filter(lambda f: f.degree > 0))
def test_factor_multiplicity_of_zero(f):
    # monic_divmod(0) has remainder 0, so only the guard ends this
    assert factor_multiplicity(IntPoly(), f) == (0, IntPoly())


def test_factor_multiplicity_rejects_a_constant_divisor():
    # 1 divides every polynomial, so the loop would never end
    with pytest.raises(AssertionError):
        factor_multiplicity(T, ONE)


# ---------------------------------------------------------------------------
# determinants

@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_int_matches_sympy(rows):
    assert det_int(rows) == int(sympy.Matrix(rows).det())


def test_det_poly_examples():
    assert det_poly(((T, ONE), (ONE, T))) == T * T - ONE
    assert det_poly(()) == ONE
    # singular over Z[t]
    assert det_poly(((T, T), (T, T))).is_zero()


# ---------------------------------------------------------------------------
# real-root counting

@given(small_polys.filter(lambda p: not p.is_zero()))
def test_sturm_count_matches_sympy_roots(p):
    a, b = Fraction(-3), Fraction(7, 2)
    if p(a) == 0 or p(b) == 0:
        return
    distinct = set(sympy.Poly(to_sympy(p), t_sym).real_roots())
    expected = sum(1 for r in distinct if a < r < b)
    assert sturm_count(p, a, b) == expected


def test_sturm_count_ignores_multiplicity():
    p = (T - ONE) * (T - ONE) * (T - 3 * ONE)
    assert sturm_count(p, Fraction(0), Fraction(2)) == 1
    assert sturm_count(p, Fraction(0), Fraction(4)) == 2


@given(st.integers(3, 30))
def test_compact_circle_form_identity(d):
    # p(t) = t^m g(t + 1/t) for palindromic p of degree 2m
    p = cyclotomic(d)
    if p.degree % 2 or not p.is_palindromic():
        return
    g = compact_circle_form(p)
    m = p.degree // 2
    u = t_sym + 1 / t_sym
    g_sym = sum(c * u ** i for i, c in enumerate(g.coeffs))
    assert sympy.simplify(t_sym ** m * g_sym - to_sympy(p)) == 0


# ---------------------------------------------------------------------------
# simplest rational in an interval

@given(
    st.fractions(min_value=0, max_value=5, max_denominator=40),
    st.fractions(min_value=0, max_value=5, max_denominator=40),
)
def test_simplest_between_is_minimal(a, b):
    # documented domain: 0 <= a < b
    if a == b:
        return
    a, b = min(a, b), max(a, b)
    r = simplest_between(a, b)
    assert a < r < b
    # nothing with a smaller denominator fits in the open interval
    for q in range(1, r.denominator):
        lo = a * q
        for n in range(int(lo) - 1, int(b * q) + 2):
            assert not (a < Fraction(n, q) < b), (a, b, r, Fraction(n, q))

"""Satellite slice obstruction sums and the metabolizer search."""

import hashlib
import json
from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import knotcert as kc
import knotcert.obstruction as obstruction
from knotcert.covers import Character
from oracles import (brute_force_subgroups, int_list_text, self_annihilating_mask,
                     witness_json)


def wh11():
    return kc.whitehead_cover(1, 1)


def chi13():
    return Character((Fraction(1, 3),))


# ---------------------------------------------------------------------------
# rational intervals

def test_interval_arithmetic():
    a = kc.RatInterval(Fraction(-1), Fraction(2))
    b = kc.RatInterval.point(Fraction(3))
    assert (a + b).lo == 2 and (a + b).hi == 5
    assert (-a).lo == -2 and (-a).hi == 1
    assert (a - b).lo == -4 and (a - b).hi == -1
    assert a.scaled(-2) == kc.RatInterval(Fraction(-4), Fraction(2))
    assert not a.excludes_zero
    assert b.excludes_zero
    assert b.unwrap() == Fraction(3)
    assert a.unwrap() is a


def test_interval_validation():
    with pytest.raises(Exception):
        kc.RatInterval(Fraction(2), Fraction(1))


# ---------------------------------------------------------------------------
# profiles

def test_profile_modes():
    z = kc.CGProfile.zero()
    assert z.value(chi13()) == kc.RatInterval.point(0)
    e = kc.CGProfile.exact([((Fraction(1, 3),), 6)])
    assert e.value(chi13()).unwrap() == 6
    # negation invariance comes for free from orbit keying
    assert e.value(Character((Fraction(2, 3),))).unwrap() == 6
    b = kc.CGProfile.bounded(3)
    assert b.value(chi13()) == kc.RatInterval(Fraction(-3), Fraction(3))
    # zero character always maps to 0, unassigned orbits default to 0
    assert b.value(Character((Fraction(0),))).unwrap() == 0
    assert e.value(Character((Fraction(1, 5),))).unwrap() == 0


def test_profile_validation():
    with pytest.raises(kc.ProfileError):
        kc.CGProfile.exact([((Fraction(0),), 5)])  # taubar(0) != 0
    with pytest.raises(kc.ProfileError):
        kc.CGProfile.exact(
            [((Fraction(1, 3),), 6), ((Fraction(2, 3),), 7)]
        )  # conflicting values on one orbit
    with pytest.raises(kc.ProfileError):
        kc.CGProfile.bounded(-1)


def test_profile_description_round_trip():
    for prof in (
        kc.CGProfile.zero(),
        kc.CGProfile.bounded(Fraction(7, 2)),
        kc.CGProfile.exact(
            [((Fraction(1, 3),), 6), ((Fraction(1, 5),), Fraction(-2, 3))]
        ),
    ):
        assert kc.CGProfile.from_description(prof.describe()) == prof


def test_profile_description_errors():
    for bad in (
        [],
        {"mode": "warped"},
        {"mode": "bounded"},
        {"mode": "exact", "values": [{"taubar": "3"}]},
        {"mode": "exact", "values": [{"orbit": ["1/0"], "taubar": "3"}]},
    ):
        with pytest.raises(kc.ProfileError):
            kc.CGProfile.from_description(bad)


# ---------------------------------------------------------------------------
# satellite CG values

def test_satellite_value_trefoil_companion():
    # taubar = 0 and chi(v1) = 2/3: twice the trefoil signature there
    v = kc.satellite_cg_value(
        kc.CGProfile.zero(), wh11(), chi13(), kc.torus(2, 3)
    )
    assert v == -4


def test_satellite_value_bounded():
    v = kc.satellite_cg_value(
        kc.CGProfile.bounded(3), wh11(), chi13(), kc.torus(2, 3)
    )
    assert v == kc.RatInterval(Fraction(-7), Fraction(-1))


def test_satellite_value_zero_character():
    v = kc.satellite_cg_value(
        kc.CGProfile.bounded(9), wh11(), Character((Fraction(0),)), kc.torus(2, 3)
    )
    assert v == 0


def test_satellite_value_character_must_live_on_cover():
    with pytest.raises(kc.HypothesisViolation):
        kc.satellite_cg_value(
            kc.CGProfile.zero(), wh11(), Character((Fraction(1, 5),)), kc.unknot()
        )


# ---------------------------------------------------------------------------
# signed obstruction sums

def test_obstruction_sum_two_orbit_example():
    # Z_5 cover with taubar 6 on one orbit, 4 on the other; unknot
    # companions leave the profile values untouched: 6 - 4 = 2
    cover = kc.whitehead_cover(1, -1)
    assert cover.group.order == 5
    prof = kc.CGProfile.exact(
        [((Fraction(1, 5),), 6), ((Fraction(2, 5),), 4)]
    )
    inst = kc.ObstructionInstance(
        cover, prof, (kc.unknot(),), (kc.unknot(),), 5, 1
    )
    chi = (Character((Fraction(1, 5),)), Character((Fraction(2, 5),)))
    assert kc.obstruction_sum(inst, chi) == 2


def test_obstruction_sum_validates_length():
    inst = kc.ObstructionInstance(
        wh11(), kc.CGProfile.zero(), (kc.unknot(),), (), 3, 1
    )
    with pytest.raises(kc.HypothesisViolation):
        kc.obstruction_sum(inst, (chi13(), chi13()))


@given(
    st.lists(st.integers(0, 2), min_size=2, max_size=4),
    st.integers(1, 2),
)
def test_obstruction_sum_is_odd_under_side_swap(coeffs, split):
    split = min(split, len(coeffs) - 1)
    knots = [kc.torus(2, 3), kc.mirror(kc.torus(2, 5)), kc.unknot(),
             kc.multiple(2, kc.torus(2, 3))]
    pos = tuple(knots[i % 4] for i in range(split))
    neg = tuple(knots[(i + 1) % 4] for i in range(split, len(coeffs)))
    prof = kc.CGProfile.exact([((Fraction(1, 3),), Fraction(5, 2))])
    inst = kc.ObstructionInstance(wh11(), prof, pos, neg, 3, 1)
    swapped = kc.ObstructionInstance(wh11(), prof, neg, pos, 3, 1)
    chi = tuple(Character((Fraction(c, 3),)) for c in coeffs)
    chi_swapped = chi[len(pos):] + chi[: len(pos)]
    assert kc.obstruction_sum(swapped, chi_swapped) == -kc.obstruction_sum(inst, chi)


def test_obstruction_sum_memo_matches_fresh_sums():
    # one terms dict across every character tuple of a bounded instance
    # with summands on both sides gives the sums computed without it
    prof = kc.CGProfile.bounded(Fraction(1, 2))
    inst = kc.ObstructionInstance(
        wh11(), prof, (kc.torus(2, 3), kc.unknot()),
        (kc.mirror(kc.torus(2, 5)), kc.torus(2, 3)), 3, 1
    )
    terms = {}
    for coeffs in np.ndindex(3, 3, 3, 3):
        chi = tuple(Character((Fraction(c, 3),)) for c in coeffs)
        assert kc.obstruction_sum(inst, chi, terms) == kc.obstruction_sum(inst, chi)
    # summand entries are (index, character); whole sums are keyed by
    # their tuple of characters
    summands = [key for key in terms if isinstance(key[0], int)]
    sums = [key for key in terms if not isinstance(key[0], int)]
    assert len(summands) == 4 * 3
    assert len(sums) == 3 ** 4
    # a repeated tuple is answered from the memo, the same object
    chi = tuple(Character((Fraction(c, 3),)) for c in (1, 2, 0, 1))
    assert kc.obstruction_sum(inst, chi, terms) is terms[chi]


def test_value_tables_put_rows_over_one_denominator(monkeypatch):
    # the rows of real knots share their profile's denominators, so rows
    # over different ones are forced by hand; a negative summand's row
    # pair is negated with lo and hi swapped
    k3, k5 = kc.torus(2, 3), kc.torus(2, 5)
    rows = {k3: ((1, -2, 3), (1, 2, 5), 2), k5: ((0, 1, -1), (0, 4, 1), 3)}
    monkeypatch.setattr(obstruction, "_value_row", lambda *key: rows[key[3]])
    inst = kc.ObstructionInstance(wh11(), kc.CGProfile.zero(), (k3,), (k5, k3), 3, 1)
    lo, hi, den = obstruction._value_tables(inst)
    assert den == 6 and lo.shape == hi.shape == (3, 3)
    for alpha, (knot, sign) in enumerate([(k3, 1), (k5, -1), (k3, -1)]):
        row_lo, row_hi, d = rows[knot]
        for c in range(3):
            want = kc.RatInterval(Fraction(row_lo[c], d), Fraction(row_hi[c], d))
            if sign < 0:
                want = -want
            assert (Fraction(int(lo[alpha, c]), den),
                    Fraction(int(hi[alpha, c]), den)) == (want.lo, want.hi)


def test_instance_validation():
    with pytest.raises(kc.HypothesisViolation):
        kc.ObstructionInstance(wh11(), kc.CGProfile.zero(), (), (), 4, 1)
    with pytest.raises(kc.HypothesisViolation):
        kc.ObstructionInstance(wh11(), kc.CGProfile.zero(), (), (), 3, 0)
    with pytest.raises(kc.HypothesisViolation):
        # cover group Z_3 has no 9-primary part
        kc.ObstructionInstance(wh11(), kc.CGProfile.zero(), (), (), 3, 2)
    with pytest.raises(kc.HypothesisViolation):
        kc.ObstructionInstance(wh11(), kc.CGProfile.zero(), (), (), 5, 1)


# ---------------------------------------------------------------------------
# metabolizer search

def exact_inst():
    prof = kc.CGProfile.exact([((Fraction(1, 3),), 6)])
    return kc.ObstructionInstance(
        wh11(), prof, (kc.unknot(),), (kc.torus(2, 3),), 3, 1
    )


def _gens(w):
    """A witness dict's subgroup generators as a tuple of row tuples."""
    return tuple(map(tuple, w["subgroup"]))


def _value(w):
    """A witness dict's value as a Fraction or a RatInterval."""
    v = w["value"]
    if isinstance(v, dict):
        return kc.RatInterval(Fraction(v["lo"]), Fraction(v["hi"]))
    return Fraction(v)


def test_search_witnesses_every_candidate():
    res = kc.check_slice_obstruction(exact_inst())
    assert res.obstructed and res.reason == "witnessed"
    assert res.subgroup_count == 4
    by_gens = {_gens(w): _value(w) for w in res.witnesses}
    assert by_gens == {
        ((0, 1),): Fraction(-2),
        ((1, 0),): Fraction(6),
        ((1, 1),): Fraction(4),
        ((1, 2),): Fraction(4),
    }
    # every witness value is reproducible through the scalar route
    inst = exact_inst()
    for w in res.witnesses:
        chi = tuple(Character((Fraction(c, 3),)) for c in w["chi"])
        assert kc.obstruction_sum(inst, chi) == _value(w)


def test_search_identical_sides_is_inconclusive():
    inst = kc.ObstructionInstance(
        wh11(), kc.CGProfile.zero(), (kc.torus(2, 5),), (kc.torus(2, 5),), 3, 1
    )
    res = kc.check_slice_obstruction(inst)
    assert not res.obstructed
    assert res.reason == "vanishing-subgroup"
    assert res.failed_subgroup == ((1, 1),)
    # the diagonal really does vanish: chi and the same chi on each side
    val = kc.obstruction_sum(inst, (chi13(), chi13()))
    assert val == 0


def test_search_parity_shortcut():
    inst = kc.ObstructionInstance(
        wh11(), kc.CGProfile.zero(), (kc.torus(2, 5),), (), 3, 1
    )
    res = kc.check_slice_obstruction(inst)
    assert res.obstructed and res.reason == "parity"
    assert res.subgroup_count == 0 and res.witnesses == ()


def test_search_bounded_profile_can_be_inconclusive():
    prof = kc.CGProfile.bounded(100)
    inst = kc.ObstructionInstance(
        wh11(), prof, (kc.torus(2, 3),), (kc.unknot(),), 3, 1
    )
    res = kc.check_slice_obstruction(inst)
    assert not res.obstructed
    assert res.reason == "vanishing-subgroup"


def test_search_bounded_profile_can_still_obstruct():
    # both companions clear the bound on their own: [7,9] and [-5,-3]
    prof = kc.CGProfile.bounded(1)
    inst = kc.ObstructionInstance(
        wh11(), prof,
        (kc.multiple(2, kc.mirror(kc.torus(2, 3))),), (kc.torus(2, 3),), 3, 1
    )
    res = kc.check_slice_obstruction(inst)
    assert res.obstructed and res.reason == "witnessed"
    assert len(res.witnesses) == res.subgroup_count == 4
    for w in res.witnesses:
        value = _value(w)
        assert isinstance(value, kc.RatInterval)
        assert value.excludes_zero


def test_search_budget():
    inst = kc.ObstructionInstance(
        wh11(), kc.CGProfile.zero(),
        (kc.mirror(kc.torus(2, 3)), kc.mirror(kc.torus(2, 3))), (), 3, 1
    )
    with pytest.raises(kc.BudgetExceeded):
        kc.check_slice_obstruction(inst, max_group_order=3)


def test_self_annihilating_filter_narrows_candidates():
    inst = kc.ObstructionInstance(
        wh11(), kc.CGProfile.zero(),
        (kc.torus(2, 3),), (kc.mirror(kc.torus(2, 3)),), 3, 1
    )
    res_all = kc.check_slice_obstruction(inst)
    res_sa = kc.check_slice_obstruction(inst, self_annihilating_only=True)
    assert res_all.subgroup_count == 4
    assert res_sa.subgroup_count == 2
    assert res_sa.self_annihilating_only
    sa_gens = {_gens(w) for w in res_sa.witnesses}
    assert sa_gens == {((1, 1),), ((1, 2),)}
    assert sa_gens <= {_gens(w) for w in res_all.witnesses}


def _first_witness_oracle(inst, keep=None):
    """(witnesses, None) or (None, failed gens), one element at a time.

    Walks every candidate subgroup's Subgroup.elements() (those whose
    keep entry is true, when keep is given) through the scalar
    obstruction_sum; the witness is the first element whose sum
    excludes 0, and the first subgroup without one fails the sweep.
    Each distinct element's sum is computed once, on its first visit.
    """
    q = inst.p ** inst.k
    target = inst.p ** (inst.k * inst.total // 2)
    subs = kc.enumerate_subgroups((q,) * inst.total, target)
    characters = [Character((Fraction(c, q),)) for c in range(q)]
    sums = {}
    witnesses = []
    for s, kept in zip(subs, keep or [True] * len(subs)):
        if not kept:
            continue
        for e in s.elements():
            value = sums.get(e)
            if value is None:
                value = sums[e] = kc.obstruction_sum(
                    inst, tuple(characters[c] for c in e))
            if (kc.RatInterval.point(0) + value).excludes_zero:
                witnesses.append((s.gens, e, value))
                break
        else:
            return None, s.gens
    return tuple(witnesses), None


def _oracle_dicts(inst, keep=None):
    """_first_witness_oracle's witnesses as certificate dicts, or None."""
    witnesses, failed = _first_witness_oracle(inst, keep)
    if failed is not None:
        return None
    return tuple(witness_json(*w) for w in witnesses)


def test_sweep_matches_first_witness_oracle():
    # dual route: the table-lookup sweep against a scalar replay of
    # every element, on vanishing and witnessed, exact and bounded cases
    prof_b = kc.CGProfile.bounded(1)
    mt3 = kc.mirror(kc.torus(2, 3))
    m2, m3 = kc.multiple(2, mt3), kc.multiple(3, mt3)
    instances = [
        exact_inst(),
        kc.ObstructionInstance(wh11(), prof_b, (m2,), (kc.unknot(),), 3, 1),
        kc.ObstructionInstance(
            wh11(), kc.CGProfile.zero(),
            (m2, kc.torus(2, 5)), (kc.unknot(), kc.torus(2, 3)), 3, 1
        ),
        kc.ObstructionInstance(wh11(), prof_b, (m2,), (kc.torus(2, 3),), 3, 1),
        kc.ObstructionInstance(
            wh11(), kc.CGProfile.zero(), (mt3, m3),
            (kc.torus(2, 3), kc.multiple(3, kc.torus(2, 3))), 3, 1,
        ),
    ]
    verdicts = []
    for inst in instances:
        res = kc.check_slice_obstruction(inst)
        witnesses, failed = _first_witness_oracle(inst)
        verdicts.append(res.obstructed)
        if failed is None:
            assert res.obstructed and res.witnesses == tuple(
                witness_json(*w) for w in witnesses)
        else:
            assert not res.obstructed and res.failed_subgroup == failed
    assert verdicts == [True, False, False, True, True]


def _scalar_first_match(q, n, order, good):
    """The column walk's answer, one Subgroup.elements() walk at a time."""
    subs = kc.enumerate_subgroups((q,) * n, order)
    place = [q ** (n - 1 - i) for i in range(n)]
    codes = []
    for i, s in enumerate(subs):
        for e in s.elements():
            c = sum(x * w for x, w in zip(e, place))
            if good[c]:
                codes.append(c)
                break
        else:
            return None, i
    return codes, None


@pytest.mark.parametrize("q,n,order", [(3, 4, 9), (9, 2, 9), (5, 4, 25)])
def test_column_walk_matches_scalar_first_match(q, n, order):
    rng = np.random.default_rng(q * 100 + n)
    walked = vanished = 0
    for density in (0.02, 0.1, 0.3, 0.7):
        for _ in range(4):
            good = rng.random(q ** n) < density
            first, bad = obstruction._first_witnesses(q, n, order, None, good)
            codes, failed = _scalar_first_match(q, n, order, good)
            assert bad == failed
            if codes is None:
                assert first is None
                vanished += 1
            else:
                assert first.tolist() == codes
                walked += 1
    assert walked and vanished
    # an all-false mask: every subgroup vanishes, the first one is reported
    none = np.zeros(q ** n, dtype=bool)
    assert obstruction._first_witnesses(q, n, order, None, none) == (None, 0)


def test_vanishing_subgroup_is_the_first_in_enumeration_order():
    # (Z_3)^4 with duplicated sides: many candidates vanish; the sweep
    # names the first of them among the swept ones, with or without the
    # self-annihilating filter
    dup = (kc.mirror(kc.torus(2, 3)), kc.mirror(kc.torus(2, 3)))
    inst = kc.ObstructionInstance(wh11(), kc.CGProfile.zero(), dup, dup, 3, 1)
    subs = kc.enumerate_subgroups((3,) * 4, 9)
    mask = self_annihilating_mask(inst, subs)

    def vanishes(s):
        return all(kc.obstruction_sum(inst, _chis(e)) == 0 for e in s.elements())

    for only, swept in ((False, list(subs)),
                        (True, [s for s, m in zip(subs, mask) if m])):
        res = kc.check_slice_obstruction(inst, self_annihilating_only=only)
        assert not res.obstructed and res.subgroup_count == len(swept)
        expect = next(s for s in swept if vanishes(s))
        assert res.failed_subgroup == expect.gens
    # the filtered sweep skips the first candidates of the family
    assert not mask[0]


def test_filtered_sweep_matches_first_witness_oracle():
    inst, kwargs, _ = _digest_case("self-annihilating")
    res = kc.check_slice_obstruction(inst, **kwargs)
    subs = kc.enumerate_subgroups((3,) * inst.total, 3 ** (inst.total // 2))
    mask = self_annihilating_mask(inst, subs)
    witnesses, failed = _first_witness_oracle(inst, keep=mask)
    assert failed is None and res.witnesses == tuple(
        witness_json(*w) for w in witnesses)
    assert mask.index(True) > 0


@pytest.mark.parametrize("a,b,signs,p,k,count,isotropic", [
    (1, 1, (3, 3), 3, 1, 33880, 80),
    (1, 1, (4, 2), 3, 1, 33880, 0),
    (1, 1, (2, 2), 3, 1, 130, 8),
    (1, -1, (2, 2), 5, 1, 806, 12),
    (1, -1, (3, 1), 5, 1, 806, 12),
    (1, 2, (2, 2), 7, 1, 2850, 16),
    (1, -2, (2, 2), 3, 2, 12091, 41),
    (1, -2, (1, 1), 3, 2, 13, 3),
    (1, -2, (3, 1), 3, 2, 12091, 11),
    (1, -6, (1, 1), 5, 2, 31, 3),
    (1, -6, (2, 2), 5, 2, 527931, 97),
    (1, -12, (2, 0), 7, 2, 57, 1),
    (1, 2, (4, 0), 7, 1, 2850, 16),
    (1, -2, (2, 0), 3, 2, 13, 1),
    (1, -2, (4, 0), 3, 2, 12091, 41),
], ids=["z3-3+3", "z3-4+2", "z3-2+2", "z5-2+2", "z5-3+1", "z7-2+2",
        "z9-2+2", "z9-1+1", "z9-3+1", "z25-1+1", "z25-2+2", "z49-2+0",
        "z7-4+0", "z9-2+0", "z9-4+0"])
def test_self_annihilating_mask_matches_fraction_oracle(
        a, b, signs, p, k, count, isotropic):
    # the isotropic enumeration is the full one filtered by the Fraction
    # Gram oracle: the same gens in the same order
    u = kc.unknot()
    inst = kc.ObstructionInstance(
        kc.whitehead_cover(a, b), kc.CGProfile.zero(),
        (u,) * signs[0], (u,) * signs[1], p, k
    )
    q, total = p ** k, sum(signs)
    order = p ** (k * total // 2)
    subs = kc.enumerate_subgroups((q,) * total, order)
    iso = kc.enumerate_subgroups((q,) * total, order,
                                 form=obstruction._isotropy_form(inst))
    assert len(subs) == count and len(iso) == isotropic
    mask = self_annihilating_mask(inst, subs)
    assert [s.gens for s in iso] == [
        s.gens for s, keep in zip(subs, mask) if keep]


def _metabolizer_count(p, signs):
    """Metabolizers of diag(+1 x signs[0], -1 x signs[1]) on (Z_{p^2})^N.

    Sum over j of I_j p^{j(j-1)/2}, where I_j counts the totally
    isotropic j-dimensional subspaces of F_p^N (Balmaceda, Betty and
    Nemenzo, "Mass formula for self-dual codes over Z_{p^2}", 2008).
    For N = 2m the form is "plus" when (-1)^m times the product of the
    signs is a square mod p; for N = 2m + 1 the type does not matter.
    """
    big = sum(signs)
    m = big // 2
    if big % 2:
        factors = [(p ** (2 * (m - i)) - 1, p ** (i + 1) - 1) for i in range(m)]
    else:
        eps = 1 if pow((-1) ** (m + signs[1]) % p, (p - 1) // 2, p) == 1 else -1
        factors = [((p ** (m - i) - eps) * (p ** (m - i - 1) + eps),
                    p ** (i + 1) - 1) for i in range(m)]
    total = isotropic = 1
    for j, (num, den) in enumerate(factors, start=1):
        assert isotropic * num % den == 0
        isotropic = isotropic * num // den
        total += isotropic * p ** (j * (j - 1) // 2)
    return total


@pytest.mark.parametrize("signs,count", [
    ((1, 0), 1), ((1, 1), 3), ((2, 0), 1), ((2, 1), 5), ((3, 1), 11),
    ((2, 2), 41), ((3, 2), 161), ((3, 3), 3851), ((4, 2), 953),
], ids=lambda v: "+".join(map(str, v)) if isinstance(v, tuple) else None)
def test_pruned_z9_family_matches_metabolizer_count(signs, count):
    # every split of the Z_9 family at budget 6 and per-side cap 3 (up to
    # swapping the sides) and one more of (Z_9)^6, past what the full
    # enumeration can hold: the pruned recursion against the closed form
    u = kc.unknot()
    inst = kc.ObstructionInstance(
        kc.whitehead_cover(1, -2), kc.CGProfile.zero(),
        (u,) * signs[0], (u,) * signs[1], 3, 2
    )
    signs_, b = obstruction._isotropy_form(inst)
    assert b == 9 and signs_ == (1,) * signs[0] + (-1,) * signs[1]
    total = sum(signs)
    iso = kc.enumerate_subgroups((9,) * total, 3 ** total,
                                 form=(signs_, b))
    assert _metabolizer_count(3, signs) == count
    assert len(iso) == count
    assert len({s.gens for s in iso}) == count


def test_witness_cap_digest_commits_to_full_list():
    res_full = kc.check_slice_obstruction(exact_inst())
    res_capped = kc.check_slice_obstruction(exact_inst(), witness_cap=2)
    assert res_capped.witnesses == ()
    assert res_capped.witness_digest is not None
    entries = list(_oracle_dicts(exact_inst()))
    assert list(res_full.witnesses) == entries
    blob = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    assert res_capped.witness_digest == hashlib.sha256(blob.encode()).hexdigest()
    assert res_capped.witness_digest == obstruction.witness_list_digest(
        json.dumps(e, sort_keys=True, separators=(",", ":")).encode()
        for e in entries
    )
    # a generous cap keeps the witnesses inline
    res_loose = kc.check_slice_obstruction(exact_inst(), witness_cap=10)
    assert res_loose.witnesses == res_full.witnesses
    assert res_loose.witness_digest is None


def test_witness_list_digest_across_chunk_boundaries():
    chunk = obstruction._DIGEST_CHUNK
    for count in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        texts = [f'{{"i":{i}}}'.encode() for i in range(count)]
        blob = b"[" + b",".join(texts) + b"]"
        expected = hashlib.sha256(blob).hexdigest()
        # an iterator over a list, or a generator, as _witness_texts is
        assert obstruction.witness_list_digest(iter(texts)) == expected
        assert obstruction.witness_list_digest(
            t for t in texts) == expected


def _dict_oracle_digest(entries):
    blob = json.dumps(list(entries), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _digest_case(name):
    """(instance, sweep kwargs, property of the values)."""
    mt3 = kc.mirror(kc.torus(2, 3))
    m2, m3 = kc.multiple(2, mt3), kc.multiple(3, mt3)
    if name == "bounded-intervals":
        inst = kc.ObstructionInstance(
            wh11(), kc.CGProfile.bounded(Fraction(1, 2)),
            (m2, m3), (kc.torus(2, 5), kc.torus(2, 3)), 3, 1
        )
        return inst, {}, lambda w: isinstance(_value(w), kc.RatInterval)
    if name == "denominator-4":
        # Z_5 with fractional taubar values: den = 4
        prof = kc.CGProfile.exact(
            [((Fraction(1, 5),), Fraction(13, 2)), ((Fraction(2, 5),), Fraction(9, 4))]
        )
        inst = kc.ObstructionInstance(
            kc.whitehead_cover(1, -1), prof,
            (kc.unknot(), mt3), (kc.torus(2, 3), kc.torus(2, 5)), 5, 1
        )
        return inst, {}, lambda w: _value(w).denominator > 1
    sa = kc.ObstructionInstance(
        wh11(), kc.CGProfile.zero(),
        (kc.torus(2, 3), m2), (mt3, kc.torus(2, 5)), 3, 1
    )
    if name == "self-annihilating":
        return sa, {"self_annihilating_only": True}, None
    if name == "unfiltered":
        return sa, {}, None
    if name == "z11":
        # Z_11: coordinates of one and two digits, so the texts of rows
        # and characters differ in width; 16,226 subgroups of (Z_11)^4,
        # more than one digest chunk
        inst = kc.ObstructionInstance(
            kc.whitehead_cover(1, 3), kc.CGProfile.zero(),
            (mt3, mt3), (kc.torus(2, 3), kc.unknot()), 11, 1
        )
        return inst, {"max_group_order": 11 ** 4}, (
            lambda w: max(w["chi"]) >= 10 and max(map(max, w["subgroup"])) >= 10)
    assert name == "z9"
    inst = kc.ObstructionInstance(
        kc.whitehead_cover(1, -2), kc.CGProfile.zero(),
        (m2,), (kc.multiple(5, mt3),), 3, 2
    )
    return inst, {}, None


@pytest.mark.parametrize("name", [
    "bounded-intervals", "denominator-4", "self-annihilating",
    "unfiltered", "z9", "z11",
])
def test_capped_digest_matches_dict_oracle(name):
    # both the digest and the inline dicts come from _witness_texts; the
    # scalar first-witness walk, written out as dicts by the oracle and
    # hashed by json.dumps, must give the same dicts and the same digest
    inst, kwargs, prop = _digest_case(name)
    full = kc.check_slice_obstruction(inst, **kwargs)
    capped = kc.check_slice_obstruction(inst, witness_cap=2, **kwargs)
    assert full.obstructed and len(full.witnesses) == full.subgroup_count > 2
    assert capped.witnesses == () and capped.subgroup_count == full.subgroup_count
    subs = kc.enumerate_subgroups((inst.p ** inst.k,) * inst.total,
                                  inst.p ** (inst.k * inst.total // 2))
    keep = None
    if kwargs.get("self_annihilating_only"):
        keep = self_annihilating_mask(inst, subs)
    expect = _oracle_dicts(inst, keep)
    assert full.witnesses == expect
    assert capped.witness_digest == _dict_oracle_digest(expect)
    if prop is not None:
        assert any(map(prop, full.witnesses))
    if name == "z11":
        assert full.subgroup_count == 16226 > obstruction._DIGEST_CHUNK
    if kwargs.get("self_annihilating_only"):
        # the swept subset is a proper, non-initial part of the family
        everything = kc.check_slice_obstruction(inst)
        assert full.subgroup_count < everything.subgroup_count
        assert full.witnesses[0]["subgroup"] != everything.witnesses[0]["subgroup"]


@pytest.mark.parametrize("q,n", [(3, 6), (7, 4), (9, 3), (11, 4)])
def test_tables_by_code_match_the_vector_list(q, n):
    # dual route: _row_texts and the sweep's sum tables are built one
    # column at a time; the oracle writes each vector of (Z_q)^n, in
    # base-q code order, as its own list entry and sums its row
    vectors = list(product(range(q), repeat=n))
    plain = [int_list_text(v).encode() for v in vectors]
    # code 0, the zero vector, is the pad code: no generator row is zero
    comma = [b""] + [b"," + t for t in plain[1:]]
    got_plain, got_comma = obstruction._row_texts(q, n)
    for got, expect in ((got_plain, np.array(plain)), (got_comma, np.array(comma))):
        assert got.dtype == expect.dtype and np.array_equal(got, expect)
    table = np.array([[(7 * a * c + 3 * a) % 11 - 5 for c in range(q)]
                      for a in range(n)], dtype=np.int64)
    sums = obstruction._by_code(np.add, np.zeros(1, dtype=np.int64), table)
    assert sums.tolist() == [sum(table[a][c] for a, c in enumerate(v))
                             for v in vectors]


def test_digest_of_an_empty_swept_family():
    # no subgroup of order 3 of (Z_3)^2 is isotropic with both summands
    # positive, so the filtered sweep is empty; a negative cap still
    # asks for the digest, of the empty array
    inst = kc.ObstructionInstance(
        wh11(), kc.CGProfile.zero(), (kc.torus(2, 3), kc.torus(2, 5)), (), 3, 1
    )
    res = kc.check_slice_obstruction(inst, self_annihilating_only=True,
                                     witness_cap=-1)
    assert res.obstructed and res.subgroup_count == 0
    assert res.witness_digest == hashlib.sha256(b"[]").hexdigest()
    assert res.witnesses == ()
    # without a cap the empty family is inline: no witness, no digest
    res = kc.check_slice_obstruction(inst, self_annihilating_only=True,
                                     witness_cap=None)
    assert res.obstructed and res.subgroup_count == 0
    assert res.witnesses == () and res.witness_digest is None


def test_scaling_widens_witness_values():
    # replacing both companions by a higher multiple scales the sum:
    # K_m # K_m is witnessed on all 4 subgroups of (Z_3)^2 by the same
    # characters for every m, with values 4, 4, 8, 8 times m
    witnesses = {}
    for m in (1, 2, 3):
        k_m = kc.multiple(m, kc.mirror(kc.torus(2, 3)))
        inst = kc.ObstructionInstance(
            wh11(), kc.CGProfile.zero(), (k_m, k_m), (), 3, 1
        )
        res = kc.check_slice_obstruction(inst)
        assert res.obstructed and res.reason == "witnessed"
        assert len(res.witnesses) == res.subgroup_count == 4
        witnesses[m] = {(_gens(w), tuple(w["chi"])): _value(w)
                        for w in res.witnesses}
    assert sorted(witnesses[1].values()) == [4, 4, 8, 8]
    for key, v1 in witnesses[1].items():
        assert witnesses[2][key] == 2 * v1
        assert witnesses[3][key] == 3 * v1


def _chis(coeffs):
    return tuple(Character((Fraction(c, 3),)) for c in coeffs)


def _brute_sweep(inst, shape, required):
    """Replay the metabolizer sweep over raw element-set subgroups."""
    subs = [s for s in brute_force_subgroups(shape) if len(s) == required]
    vanishing = [
        s for s in subs
        if all(kc.obstruction_sum(inst, _chis(e)) == 0 for e in s)
    ]
    return subs, vanishing


def test_search_matches_brute_force_oracle_rank_two():
    inst = exact_inst()
    res = kc.check_slice_obstruction(inst)
    subs, vanishing = _brute_sweep(inst, (3, 3), 3)
    assert len(subs) == res.subgroup_count == 4
    assert res.obstructed and not vanishing


def test_search_matches_brute_force_oracle_rank_four():
    # ambient (Z_3)^4, candidate order 9: duplicated sides leave
    # genuinely vanishing subgroups that both routes must agree on
    dup = (kc.mirror(kc.torus(2, 3)), kc.mirror(kc.torus(2, 3)))
    inc = kc.ObstructionInstance(wh11(), kc.CGProfile.zero(), dup, dup, 3, 1)
    res = kc.check_slice_obstruction(inc)
    subs, vanishing = _brute_sweep(inc, (3, 3, 3, 3), 9)
    assert len(subs) == 130 and res.subgroup_count == 130
    assert not res.obstructed and vanishing
    failed = frozenset(kc.Subgroup(3, 4, res.failed_subgroup).elements())
    assert failed in vanishing

    # distinct multiples on the two sides keep every sum positive, and
    # the verdicts flip together
    obs = kc.ObstructionInstance(
        wh11(), kc.CGProfile.zero(),
        (kc.mirror(kc.torus(2, 3)), kc.multiple(3, kc.mirror(kc.torus(2, 3)))),
        (kc.torus(2, 3), kc.multiple(3, kc.torus(2, 3))), 3, 1,
    )
    res = kc.check_slice_obstruction(obs)
    subs, vanishing = _brute_sweep(obs, (3, 3, 3, 3), 9)
    assert len(subs) == res.subgroup_count == 130
    assert res.obstructed and not vanishing


# ---------------------------------------------------------------------------
# family subsequence selection

def test_selection_keeps_separated_ranges():
    cover = wh11()
    fam = tuple(kc.multiple(m, kc.mirror(kc.torus(2, 3))) for m in (1, 3, 9))
    rep = kc.select_subsequence(fam, cover, kc.CGProfile.bounded(1))
    assert rep.indices == (0, 1, 2)
    assert rep.ranges == (
        (Fraction(3), Fraction(5)),
        (Fraction(11), Fraction(13)),
        (Fraction(35), Fraction(37)),
    )


def test_selection_drops_overlapping_ranges():
    cover = wh11()
    mt = kc.mirror(kc.torus(2, 3))
    fam = (kc.multiple(1, mt), kc.multiple(2, mt))
    rep = kc.select_subsequence(fam, cover, kc.CGProfile.bounded(3))
    # [1,7] and [5,11] overlap; the earliest-index chain keeps only one
    assert rep.indices == (0,)


def test_selection_requires_positive_ranges():
    cover = wh11()
    rep = kc.select_subsequence(
        (kc.torus(2, 3), kc.mirror(kc.torus(2, 3))), cover, kc.CGProfile.zero()
    )
    # the first member has negative CG values and cannot start the chain
    assert rep.indices == (1,)
    # an all-zero family selects nothing (the pipeline turns this into
    # EmptySelectionError, tested with the certificates)
    empty = kc.select_subsequence((kc.unknot(),), cover, kc.CGProfile.zero())
    assert empty.indices == ()


def test_selection_report_lengths_match_family():
    cover = wh11()
    fam = tuple(kc.multiple(m, kc.mirror(kc.torus(2, 3))) for m in (1, 2, 4, 8))
    rep = kc.select_subsequence(fam, cover, kc.CGProfile.zero())
    assert len(rep.ranges) == len(fam)
    assert all(0 <= i < len(fam) for i in rep.indices)
    assert list(rep.indices) == sorted(rep.indices)

"""Independence certificates: generation, serialization, verification."""

import copy
import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import knotcert as kc
import knotcert.certify as certify
import knotcert.obstruction as obstruction


def family(*ms):
    base = kc.mirror(kc.torus(2, 3))
    return tuple(kc.multiple(m, base) for m in ms)


def small_cert(**kw):
    args = dict(budget=2, mode="exhaustive")
    args.update(kw)
    return kc.certify_independence(
        kc.whitehead_cover(1, 1), kc.CGProfile.zero(), family(1, 5), **args
    )


# ---------------------------------------------------------------------------
# generation

def test_ordering_mode_has_no_combos():
    cert = kc.certify_independence(
        kc.whitehead_cover(1, 1), kc.CGProfile.zero(), family(1, 5)
    )
    assert cert.mode == "ordering"
    assert cert.combos == ()
    assert cert.ordering.holds
    assert cert.selection.indices == (0, 1)


def test_exhaustive_mode_sweeps_signed_combinations():
    cert = small_cert()
    # count 2, budget 2: 4 singles, 4 doubled singles, 4 mixed pairs
    assert len(cert.combos) == 12
    coeff_sets = [c.coefficients for c in cert.combos]
    assert len(set(coeff_sets)) == 12
    assert all(sum(map(abs, cs)) <= 2 for cs in coeff_sets)
    # deterministic order: sorted by (total multiplicity, coefficients)
    totals = [sum(map(abs, cs)) for cs in coeff_sets]
    assert totals == sorted(totals)
    for combo in cert.combos:
        assert combo.reason in ("parity", "witnessed")
        if combo.reason == "witnessed":
            assert combo.witnesses


def _filtered_combinations(count, budget):
    # the construction _signed_combinations replaced: filter the whole
    # product, then sort
    out = [c for c in product(range(-budget, budget + 1), repeat=count)
           if 1 <= sum(map(abs, c)) <= budget]
    out.sort(key=lambda c: (sum(map(abs, c)), c))
    return out


@pytest.mark.parametrize("count", range(5))
def test_signed_combinations_match_the_filtered_product(count):
    for budget in range(7):
        assert (certify._signed_combinations(count, budget)
                == _filtered_combinations(count, budget)), budget


def test_per_side_cap_drops_combos_before_building_them(monkeypatch):
    built = []
    real = certify._combo_instance

    def counting(*args):
        built.append(tuple(args[3]))
        return real(*args)

    monkeypatch.setattr(certify, "_combo_instance", counting)
    cert = small_cert(budget=4, per_side_cap=1)
    assert built == [tuple(c.coefficients) for c in cert.combos]
    assert len(built) < len(certify._signed_combinations(2, 4))
    assert all(max(certify._side_sizes(c)) <= 1 for c in built)


def test_boundary_growth_still_certifies():
    # subset sums collide at 3*v1 = v2, but candidate metabolizers have
    # order 3^(total/2) and every such subgroup meets a coordinate
    # hyperplane, so a witness always exists
    cert = kc.certify_independence(
        kc.whitehead_cover(1, 1), kc.CGProfile.zero(), family(1, 3),
        budget=4, mode="exhaustive",
    )
    assert all(c.reason in ("parity", "witnessed") for c in cert.combos)


def test_per_side_cap_filters_combinations():
    cert = small_cert(budget=4, per_side_cap=1)
    coeff_sets = {c.coefficients for c in cert.combos}
    assert coeff_sets == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1),
    }
    assert cert.per_side_cap == 1


# ---------------------------------------------------------------------------
# hypothesis validation

def test_validation_rejects_bad_inputs():
    cover = kc.whitehead_cover(1, 1)
    prof = kc.CGProfile.zero()
    with pytest.raises(kc.HypothesisViolation):
        kc.certify_independence(cover, prof, ())
    with pytest.raises(kc.HypothesisViolation):
        kc.certify_independence(cover, prof, family(1), mode="telepathy")
    with pytest.raises(kc.HypothesisViolation):
        kc.certify_independence(cover, prof, family(1), budget=0)


def test_validation_rejects_degenerate_patterns():
    prof = kc.CGProfile.zero()
    lam = ((Fraction(1, 3),),)
    trivial = kc.PatternCover(kc.FiniteAbelianGroup(()), (), (), 0, ())
    with pytest.raises(kc.HypothesisViolation):
        kc.certify_independence(trivial, prof, family(1))
    noncyclic = kc.PatternCover(
        kc.FiniteAbelianGroup((3, 3)), (1, 0), (1, 0), 0,
        ((Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(1, 3))),
    )
    with pytest.raises(kc.HypothesisViolation):
        kc.certify_independence(noncyclic, prof, family(1))
    nongen = kc.PatternCover(
        kc.FiniteAbelianGroup((9,)), (3,), (3,), 0, ((Fraction(1, 9),),)
    )
    with pytest.raises(kc.HypothesisViolation):
        kc.certify_independence(nongen, prof, family(1))
    with pytest.raises(kc.HypothesisViolation):
        # rejected at construction already
        kc.PatternCover(kc.FiniteAbelianGroup((3,)), (1,), (1,), 1, lam)


def test_ordering_failure_is_reported():
    with pytest.raises(kc.HypothesisViolation) as exc:
        kc.certify_independence(
            kc.whitehead_cover(1, 1), kc.CGProfile.zero(), family(1, 1)
        )
    assert "ordering" in str(exc.value)


def test_empty_selection_raises():
    with pytest.raises(kc.EmptySelectionError):
        kc.certify_independence(
            kc.whitehead_cover(1, 1), kc.CGProfile.zero(), (kc.unknot(),)
        )
    with pytest.raises(kc.EmptySelectionError):
        # negative CG values only
        kc.certify_independence(
            kc.whitehead_cover(1, 1), kc.CGProfile.zero(), (kc.torus(2, 3),)
        )


def test_inconclusive_combination_raises(monkeypatch):
    # the committed selection criterion provably leaves no vanishing
    # subgroup, so the handler is exercised with a stubbed search
    def stub(inst, **kw):
        return kc.SliceObstructionResult(
            False, "vanishing-subgroup", inst.p, inst.k, inst.total, 0,
            failed_subgroup=((1, 1),),
        )

    monkeypatch.setattr(certify, "check_slice_obstruction", stub)
    with pytest.raises(kc.CertificationInconclusive) as exc:
        small_cert()
    assert "vanishing-subgroup" in str(exc.value) or "subgroup" in str(exc.value)


# ---------------------------------------------------------------------------
# serialization and round trips

def test_json_round_trip_verifies():
    cert = small_cert()
    data = json.loads(cert.to_json())
    ok, problems = kc.verify_certificate(data)
    assert ok, problems
    assert problems == []


def test_json_is_deterministic():
    assert small_cert().to_json() == small_cert().to_json()


def test_json_bytes_are_pinned():
    text = small_cert().to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "66c9a48731bd4f43fa592cc476fb23f322f1acf17e85ec5a610afebdfe699abf"
    )


def test_k2_certificate_is_pinned():
    # cover Z_9 (k = 2): the sweeps mix several row-order patterns, where
    # every Z_3 certificate above has one
    cert = kc.certify_independence(
        kc.whitehead_cover(1, -2), kc.CGProfile.zero(),
        [kc.multiple(m, kc.mirror(kc.torus(2, 9))) for m in (1, 9, 73)],
        budget=3, mode="exhaustive", per_side_cap=3,
    )
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == (
        "19f70ce30fefd008bab0e95d7e977bd8b4c7abaf2f4c9a2b59bf10a3785b9887"
    )
    d = cert.to_json_dict()
    assert d["prime"] == 3 and d["exponent"] == 2
    witnessed = [c for c in cert.combos if c.reason == "witnessed"]
    assert len(witnessed) == 62
    assert sum(c.subgroup_count for c in witnessed) == 6206
    # every combo of total 3 sweeps the order-27 family of (Z_9)^3
    subs = kc.enumerate_subgroups((9,) * 3, 27)
    assert len(subs) == 157 and subs.codes.shape == (157, 3)
    assert len({s.row_orders() for s in subs}) == 3
    assert len({tuple(o) for o in subs.orders.tolist()}) == 3


def test_json_carries_conventions_and_version():
    d = small_cert().to_json_dict()
    assert d["version"] == kc.__version__
    assert d["conventions"] == kc.CONVENTIONS
    assert d["prime"] == 3 and d["exponent"] == 1
    assert d["family"] == ["1*mirror(torus(2,3))", "5*mirror(torus(2,3))"]


@pytest.mark.parametrize("profile", [
    kc.CGProfile.zero(), kc.CGProfile.bounded(Fraction(1, 2)),
], ids=["exact", "bounded"])
def test_each_document_has_its_own_witness_dicts(profile):
    # the tamper tests edit the document to_json_dict returns; no edit
    # may reach the certificate or the next document
    cert = kc.certify_independence(
        kc.whitehead_cover(1, 1), profile, family(1, 5),
        budget=2, mode="exhaustive",
    )
    text = cert.to_json()
    doc = cert.to_json_dict()
    witness = _inline_witness(doc)
    witness["chi"][0] += 1
    witness["subgroup"][0][0] += 1
    if isinstance(witness["value"], dict):
        witness["value"]["lo"] = "0"
    else:
        witness["value"] += "0"
    assert cert.to_json() == text
    second = cert.to_json_dict()
    assert second != doc
    assert kc.verify_certificate(second) == (True, [])


def test_witness_cap_replaces_lists_with_digests():
    capped = small_cert(witness_cap=2).to_json_dict()
    full = small_cert(witness_cap=None).to_json_dict()
    digested = [c for c in capped["combos"] if "witness_digest" in c]
    assert digested, "4-subgroup combos exceed a cap of 2"
    by_coeffs = {tuple(c["coefficients"]): c for c in full["combos"]}
    for combo in digested:
        assert "witnesses" not in combo
        twin = by_coeffs[tuple(combo["coefficients"])]
        assert combo["witness_count"] == twin["subgroup_count"]
        assert combo["witness_digest"] == obstruction.witness_list_digest(
            json.dumps(w, sort_keys=True, separators=(",", ":")).encode()
            for w in twin["witnesses"]
        )
    ok, problems = kc.verify_certificate(capped)
    assert ok, problems


# ---------------------------------------------------------------------------
# tamper detection

def tampered(mutate):
    data = json.loads(small_cert().to_json())
    mutate(data)
    return kc.verify_certificate(data)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(version=2),
        lambda d: d.update(budget=3),
        lambda d: d.update(per_side_cap=1),
        lambda d: d["family"].append("torus(2,3)"),
        lambda d: d["conventions"].update(signature="flipped"),
        lambda d: d["ordering"].update(holds=False),
        lambda d: d["combos"][0].update(reason="witnessed"),
        lambda d: d["combos"].pop(),
        lambda d: d["selection"]["indices"].pop(),
    ],
    ids=[
        "version", "budget", "per_side_cap", "family", "conventions",
        "ordering", "combo-reason", "combo-missing", "selection",
    ],
)
def test_any_field_tamper_is_caught(mutate):
    ok, problems = tampered(mutate)
    assert not ok
    assert problems


def test_witness_value_tamper_is_caught():
    def mutate(d):
        for combo in d["combos"]:
            if combo.get("witnesses"):
                combo["witnesses"][0]["value"] = "2"
                return
        raise AssertionError("expected an inline witness")

    ok, problems = tampered(mutate)
    assert not ok
    # both routes complain: recomputation diff and direct replay
    assert any("witness" in p or "combo" in p for p in problems)


def test_witness_digest_tamper_is_caught():
    data = json.loads(small_cert(witness_cap=2).to_json())
    for combo in data["combos"]:
        if "witness_digest" in combo:
            combo["witness_digest"] = "0" * 64
            break
    ok, problems = kc.verify_certificate(data)
    assert not ok
    assert problems


def _inline_witness(d):
    return next(c for c in d["combos"] if c.get("witnesses"))["witnesses"][0]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["selection"]["indices"].__setitem__(0, 99),
        lambda d: d.pop("selection"),
        lambda d: d.pop("prime"),
        lambda d: d.update(combos=5),
        lambda d: d["combos"][0].pop("coefficients"),
        lambda d: _inline_witness(d).update(chi=["a"]),
        lambda d: _inline_witness(d).pop("subgroup"),
        lambda d: _inline_witness(d).update(value="x"),
        lambda d: _inline_witness(d).update(value={"lo": "1"}),
        lambda d: _inline_witness(d).update(subgroup=[[1]]),
    ],
    ids=[
        "selection-index", "no-selection", "no-prime", "combos-int",
        "no-coefficients", "chi-text", "no-subgroup", "value-text",
        "value-no-hi", "ragged-subgroup",
    ],
)
def test_malformed_replay_is_reported_not_raised(mutate):
    ok, problems = tampered(mutate)
    assert not ok
    assert problems


# ---------------------------------------------------------------------------
# the replay memo: witnesses that share a chi tuple are judged together

def shared_chi_data(profile=None):
    # budget 4: the (Z_3)^4 combos have 130 inline witnesses, a dozen of
    # them per chi tuple
    cert = kc.certify_independence(
        kc.whitehead_cover(1, 1), profile or kc.CGProfile.zero(), family(1, 5),
        budget=4, mode="exhaustive",
    )
    return json.loads(cert.to_json())


def sharing_witnesses(data):
    """The first combo's witnesses whose chi tuple is its most common."""
    for combo in data["combos"]:
        counts = Counter(tuple(w["chi"]) for w in combo.get("witnesses", ()))
        if counts and counts.most_common(1)[0][1] >= 3:
            chi = counts.most_common(1)[0][0]
            return [w for w in combo["witnesses"] if tuple(w["chi"]) == chi]
    raise AssertionError("expected witnesses that share a chi tuple")


def replay_problems(data):
    problems = []
    certify._replay_witnesses(
        data, certify._pattern_from_dict(data["pattern"]),
        kc.CGProfile.from_description(data["profile"]),
        tuple(kc.parse_knot(s) for s in data["family"]), problems,
    )
    return problems


@pytest.mark.parametrize("position", [0, 1, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("mode", ["exact", "bounded"])
def test_replay_reports_exactly_the_tampered_value(position, mode):
    profile = kc.CGProfile.bounded(Fraction(1, 2)) if mode == "bounded" else None
    data = shared_chi_data(profile)
    assert replay_problems(data) == []
    witness = sharing_witnesses(data)[position]
    witness["value"] = {"lo": "1", "hi": "2"} if mode == "bounded" else "2"
    problems = replay_problems(data)
    assert len(problems) == 1, problems
    assert f"witness {witness['chi']}" in problems[0]
    assert "recomputes to" in problems[0]


@pytest.mark.parametrize("position", [0, 1, -1], ids=["first", "middle", "last"])
def test_replay_reports_exactly_the_tampered_subgroup(position):
    data = shared_chi_data()
    witness = sharing_witnesses(data)[position]
    n = len(witness["chi"])
    # the right order, but spanned by unit vectors the chi avoids
    witness["subgroup"] = [[int(i == j) for j in range(n)]
                           for i in range(n) if not witness["chi"][i]][:n // 2]
    problems = replay_problems(data)
    assert len(problems) == 1, problems
    assert "is not in its subgroup" in problems[0]


@pytest.mark.parametrize("value", ["x", {"lo": "1"}, ["1"]],
                         ids=["text", "no-hi", "list"])
def test_malformed_value_behind_a_memo_hit_is_a_problem(value):
    data = shared_chi_data()
    sharing_witnesses(data)[1]["value"] = value
    ok, problems = kc.verify_certificate(data)
    assert not ok
    assert any("cannot replay the witnesses" in p for p in problems), problems


def test_replay_memo_does_not_take_a_float_chi_for_an_int():
    # [0.0, ..., 1.0] equals [0, ..., 1] as JSON data, so the recomputation
    # sees no difference; the replay parses it, and a float is no
    # character coefficient
    data = shared_chi_data()
    witness = sharing_witnesses(data)[1]
    witness["chi"] = [float(c) for c in witness["chi"]]
    ok, problems = kc.verify_certificate(data)
    assert not ok
    assert problems == [problems[0]] and "cannot replay the witnesses" in problems[0]


def test_verify_rejects_malformed_documents():
    ok, problems = kc.verify_certificate({"certificate": "bogus"})
    assert not ok
    assert problems

"""Linear-independence certificates for satellite knot families.

certify_independence drives the whole pipeline: theorem hypothesis
checks (cyclic cover, generating v1, even winding, signature ordering
chain), greedy subsequence selection, and -- in exhaustive mode -- a
slice obstruction sweep over every signed multiplicity combination of
the selected knots up to a total companion budget.

Certificates are plain JSON-serializable dicts with deterministic
ordering (stable key order, fractions as strings, no timestamps), so
identical inputs yield byte-identical certificates.  verify_certificate
recomputes everything from the embedded data and additionally replays
each stored witness through obstruction_sum, a second route that does
not share the vectorized search code.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from ._frozen import frozen
from .errors import (
    CertificationInconclusive,
    EmptySelectionError,
    HypothesisViolation,
    KnotcertError,
)
from .covers import FiniteAbelianGroup, PatternCover
from .knots import parse_knot
from .obstruction import (
    CGProfile,
    ObstructionInstance,
    RatInterval,
    _component_character,
    check_slice_obstruction,
    obstruction_sum,
    select_subsequence,
)
from .polynomials import prime_powers
from .signatures import check_ordering_hypothesis
from .subgroups import Subgroup

CONVENTIONS = {
    "signature": "sigma_x(K) = signature of (1-w)V + (1-conj(w))V^T at w = exp(2 pi i x)",
    "linking_form": "lambda(x, y) = -x^T (V+V^T)^{-1} y mod 1",
    "qz_embedding": "a class c in Z_n is read in Q/Z as c/n (1 -> 1/n)",
    "character_coefficients": "coefficient c means chi(generator) = c/p^k",
    "satellite_formula": "taubar_{P(K)}(chi) = taubar_{P(U)}(chi) + 2 sigma_{chi(V1)}(K)",
    "ordering_range": "the ordering ledger samples sigma_{j/n} for all 1 <= j < n/2, composite j/n included",
    "negative_side": "negative-side summands enter the obstruction sum with a minus sign",
    "metabolizer_candidates": "all subgroups of the required order are swept, a superset of linking-form metabolizers",
    "subgroup_bookkeeping": "with m positive and n negative summands the candidate order is p^((m+n)k/2)",
}


def _frac(f):
    return str(Fraction(f))


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _fresh_witness(w):
    """A copy of a witness dict that shares no list or dict with it."""
    value = w["value"]
    return {"chi": w["chi"][:], "subgroup": [row[:] for row in w["subgroup"]],
            "value": dict(value) if isinstance(value, dict) else value}


@frozen
class ComboRecord:
    coefficients: tuple
    reason: str
    subgroup_count: int
    witnesses: tuple
    witness_digest: str = None

    def to_json_dict(self):
        out = {
            "coefficients": list(self.coefficients),
            "reason": self.reason,
            "subgroup_count": self.subgroup_count,
        }
        if self.witness_digest is not None:
            # capped at source by the sweep: only the commitment survives
            out["witness_count"] = self.subgroup_count
            out["witness_digest"] = self.witness_digest
        else:
            out["witnesses"] = [_fresh_witness(w) for w in self.witnesses]
        return out


@frozen
class IndependenceCertificate:
    mode: str
    pattern: PatternCover
    profile: CGProfile
    prime: int
    exponent: int
    family: tuple
    ordering: object
    selection: object
    budget: int
    max_group_order: int
    witness_cap: int
    self_annihilating_only: bool
    per_side_cap: int = None
    combos: tuple = ()

    def to_json_dict(self):
        pat = self.pattern
        data = {
            "certificate": "satellite-family-linear-independence",
            "version": __version__,
            "mode": self.mode,
            "conventions": dict(CONVENTIONS),
            "pattern": {
                "factors": list(pat.group.factors),
                "v1_class": list(pat.v1_class),
                "v2_class": list(pat.v2_class),
                "winding_number": pat.winding_number,
                "linking_matrix": [
                    [_frac(x) for x in row] for row in pat.linking_matrix
                ],
            },
            "profile": self.profile.describe(),
            "prime": self.prime,
            "exponent": self.exponent,
            "family": [str(e) for e in self.family],
            "ordering": {
                "n": self.ordering.n,
                "holds": self.ordering.holds,
                "per_knot": [[mn, mx] for mn, mx in self.ordering.per_knot],
                "rows": [list(r) for r in self.ordering.rows],
            },
            "selection": {
                "indices": list(self.selection.indices),
                "ranges": [[_frac(lo), _frac(hi)] for lo, hi in self.selection.ranges],
            },
            "budget": self.budget,
            "max_group_order": self.max_group_order,
            "witness_cap": self.witness_cap,
            "self_annihilating_only": self.self_annihilating_only,
            "per_side_cap": self.per_side_cap,
        }
        if self.mode == "exhaustive":
            data["combos"] = [c.to_json_dict() for c in self.combos]
        return data

    def to_json(self):
        return _canonical_json(self.to_json_dict())


def _of_weight(count, weight):
    """All c in Z^count with sum |c_i| = weight, in increasing order."""
    if count == 1:
        yield from ((-weight,), (weight,)) if weight else ((0,),)
        return
    for x in range(-weight, weight + 1):
        for rest in _of_weight(count - 1, weight - abs(x)):
            yield (x,) + rest


def _signed_combinations(count, budget):
    """All c in Z^count with 1 <= sum |c_i| <= budget, sorted.

    The order is by (sum |c_i|, c); each weight's combinations are
    generated directly, so none outside the budget is ever built.
    """
    if count < 1:
        return []
    return [c for weight in range(1, budget + 1)
            for c in _of_weight(count, weight)]


def _side_sizes(coeffs):
    """(m, n): the summand counts on the positive and negative sides."""
    return (sum(c for c in coeffs if c > 0), -sum(c for c in coeffs if c < 0))


def _combo_instance(pattern, profile, selected, coeffs, p, k):
    """The instance #_{c>0} c P(K) # -(#_{c<0} |c| P(K)) of a combination."""
    pos, neg = [], []
    for c, knot in zip(coeffs, selected):
        if c > 0:
            pos.extend([knot] * c)
        elif c < 0:
            neg.extend([knot] * (-c))
    return ObstructionInstance(pattern, profile, pos, neg, p, k)


def certify_independence(pattern, profile, family, budget=6, mode="ordering",
                         max_group_order=3 ** 6, witness_cap=200,
                         self_annihilating_only=False, per_side_cap=None):
    """Certificate that the selected satellites are linearly independent.

    ordering mode verifies the theorem hypotheses and the strict chain
    of CG value ranges; exhaustive mode additionally obstructs every
    signed combination of the selected knots with total multiplicity up
    to the budget (optionally also capping the companion count on each
    side via per_side_cap).  Raises on any hypothesis failure; raises
    CertificationInconclusive when some combination cannot be
    obstructed (which is never a sliceness claim).
    """
    if mode not in ("ordering", "exhaustive"):
        raise HypothesisViolation(f"unknown certification mode {mode!r}")
    family = tuple(family)
    if not family:
        raise HypothesisViolation("family must be nonempty")
    if budget < 1:
        raise HypothesisViolation("budget must be >= 1")
    if per_side_cap is not None and per_side_cap < 1:
        raise HypothesisViolation("per-side cap must be >= 1")
    group = pattern.group
    if group.is_trivial or group.order == 1:
        raise HypothesisViolation(
            "pattern cover homology is trivial; such satellites are "
            "invisible to this obstruction (cf. the excluded P(0,b))"
        )
    if len(group.factors) != 1:
        raise HypothesisViolation(
            "pattern cover homology must be cyclic Z_n for the theorem"
        )
    if not group.generates(pattern.v1_class):
        raise HypothesisViolation(
            "v1 must generate the pattern cover homology"
        )
    if pattern.winding_number % 2 != 0:
        raise HypothesisViolation("winding number must be even")
    n = group.order
    ordering = check_ordering_hypothesis(family, n)
    if not ordering.holds:
        bad = [r for r in ordering.rows if not r[3]]
        raise HypothesisViolation(
            f"signature ordering hypothesis fails at n = {n}: "
            + "; ".join(f"max(J_{i}) = {mx} !< min(J_{i+1}) = {mn}"
                        for i, mx, mn, _ in bad)
        )
    selection = select_subsequence(family, pattern, profile)
    if not selection.indices:
        raise EmptySelectionError(
            "no family member has CG values strictly above 0; "
            "nothing can be selected"
        )
    p, k = prime_powers(n)[0]
    combos = ()
    if mode == "exhaustive":
        selected = [family[i] for i in selection.indices]
        records = []
        for coeffs in _signed_combinations(len(selected), budget):
            if per_side_cap is not None and max(_side_sizes(coeffs)) > per_side_cap:
                continue
            inst = _combo_instance(pattern, profile, selected, coeffs, p, k)
            result = check_slice_obstruction(
                inst, max_group_order=max_group_order,
                self_annihilating_only=self_annihilating_only,
                witness_cap=witness_cap,
            )
            if result.inconclusive:
                raise CertificationInconclusive(
                    f"combination {coeffs} could not be obstructed "
                    f"(reason: {result.reason}, subgroup "
                    f"{result.failed_subgroup}); no independence claim"
                )
            records.append(ComboRecord(
                coeffs, result.reason, result.subgroup_count,
                result.witnesses, result.witness_digest,
            ))
        combos = tuple(records)
    return IndependenceCertificate(
        mode, pattern, profile, p, k, family, ordering, selection,
        budget, max_group_order, witness_cap, self_annihilating_only,
        per_side_cap, combos,
    )


# ---------------------------------------------------------------------------
# verification

def _pattern_from_dict(d):
    return PatternCover(
        FiniteAbelianGroup(tuple(d["factors"])),
        tuple(d["v1_class"]),
        tuple(d["v2_class"]),
        d["winding_number"],
        tuple(
            tuple(Fraction(x) for x in row) for row in d["linking_matrix"]
        ),
    )


def _value_from_json(v):
    if isinstance(v, dict):
        return RatInterval(Fraction(v["lo"]), Fraction(v["hi"]))
    return Fraction(v)


def _value_key(v):
    """Hashable stand-in for a recorded value: what _value_from_json reads."""
    return (v["lo"], v["hi"]) if isinstance(v, dict) else v


def _replay_witnesses(data, pattern, profile, family, problems):
    """Replay every inline witness through obstruction_sum.

    Each witness is one obstruction_sum call and one Subgroup.contains
    check, made once per distinct (subgroup, chi) pair.  Witnesses of a combination repeat their (chi, recorded
    value) pairs, so each distinct pair is parsed and judged once, and
    every witness carrying it gets that pair's verdict; the pair's key
    includes the types of chi's entries, so a 1.0 is never taken for a
    1.  The one terms dict per combination memoizes the summands and
    the whole sums, so a repeated chi's obstruction_sum call is a
    lookup.  Appends what fails to problems; raises on a document whose
    combos or witnesses do not have the certificate's shape.
    """
    p, k = data["prime"], data["exponent"]
    q = p ** k
    selected = [family[i] for i in data["selection"]["indices"]]
    # combos share subgroups: (generator rows, chi) -> contains verdict
    members = {}
    for combo in data.get("combos", ()):
        coeffs = combo["coefficients"]
        try:
            inst = _combo_instance(pattern, profile, selected, coeffs, p, k)
        except KnotcertError as ex:
            problems.append(f"combo {coeffs} cannot be replayed: {ex}")
            continue
        terms = {}
        # (chi, chi's entry types, value key) -> (characters, problems)
        judged = {}
        for w in combo.get("witnesses", ()):
            vec = tuple(w["chi"])
            key = (vec, tuple(map(type, vec)), _value_key(w["value"]))
            seen = judged.get(key)
            if seen is None:
                chis = tuple(_component_character(q, c) for c in vec)
            else:
                chis = seen[0]
            try:
                val = obstruction_sum(inst, chis, terms)
            except KnotcertError as ex:
                problems.append(
                    f"witness {w['chi']} of combo {coeffs} cannot be "
                    f"replayed: {ex}"
                )
                continue
            if seen is None:
                seen = judged[key] = (chis, _value_problems(
                    w["chi"], coeffs, val, _value_from_json(w["value"])))
            problems.extend(seen[1])
            sgens = tuple(tuple(r) for r in w["subgroup"])
            if (sgens, vec) not in members:
                members[sgens, vec] = not sgens or Subgroup(q, len(vec), sgens).contains(vec)
            if not members[sgens, vec]:
                problems.append(
                    f"witness {w['chi']} is not in its subgroup {sgens}"
                )


def _value_problems(chi, coeffs, val, recorded):
    """What is wrong with a witness whose sum is val and records recorded."""
    out = []
    if val != recorded:
        out.append(
            f"witness {chi} of combo {coeffs} recomputes to "
            f"{val}, certificate says {recorded}"
        )
    # adding to a point re-wraps the unwrapped sum as an interval
    if not (RatInterval.point(0) + val).excludes_zero:
        out.append(
            f"witness {chi} of combo {coeffs} does not exclude zero"
        )
    return out


def verify_certificate(data):
    """Recompute a certificate from its own inputs and check every claim.

    Returns (ok, problems).  Two routes: (1) full deterministic
    recomputation must reproduce the certificate byte for byte;
    (2) every inline witness is replayed through obstruction_sum
    directly and must give the recorded nonvanishing value.
    """
    problems = []
    try:
        pattern = _pattern_from_dict(data["pattern"])
        profile = CGProfile.from_description(data["profile"])
        family = tuple(parse_knot(s) for s in data["family"])
    except Exception as ex:  # noqa: BLE001 - verification reports, not raises
        return False, [f"cannot reconstruct inputs: {ex}"]
    try:
        cert = certify_independence(
            pattern, profile, family,
            budget=data["budget"], mode=data["mode"],
            max_group_order=data["max_group_order"],
            witness_cap=data["witness_cap"],
            self_annihilating_only=data["self_annihilating_only"],
            per_side_cap=data.get("per_side_cap"),
        )
    except Exception as ex:  # noqa: BLE001
        return False, [f"recomputation failed: {ex}"]
    recomputed = cert.to_json_dict()
    if recomputed != data:
        for key in sorted(set(recomputed) | set(data)):
            if recomputed.get(key) != data.get(key):
                problems.append(f"field {key!r} differs on recomputation")
    if data["mode"] == "exhaustive":
        try:
            _replay_witnesses(data, pattern, profile, family, problems)
        except Exception as ex:  # noqa: BLE001 - a malformed document
            problems.append(
                f"cannot replay the witnesses: {type(ex).__name__}: {ex}"
            )
    return not problems, problems

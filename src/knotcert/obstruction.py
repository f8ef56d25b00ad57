"""Casson-Gordon obstruction sums for connected sums of satellites.

For a pattern P with cover data (group Z_n, curve class v1, winding 0)
and a companion K, the normalized Casson-Gordon value at a character
chi of prime-power order is

    cg(chi, K) = taubar_{P(U)}(chi) + 2 sigma_{chi(v1)}(K),

where taubar comes from a CGProfile (exact values per character orbit,
or a single bound B with every unknown value in [-B, B]) and sigma is
the exact Levine-Tristram engine.  A connected sum

    #_i P(K_i)  #  -(#_j P(L_j))

is probed for sliceness by enumerating every subgroup of the required
metabolizer order p^{(m+n)k/2} inside (Z_{p^k})^{m+n} and hunting for a
character tuple in each with nonvanishing obstruction sum; if all
subgroups are witnessed the sum cannot be slice.  Inconclusive is
always allowed, a false obstruction never.

Interval semantics: in bounded mode a sum only counts as nonvanishing
when its whole interval lies on one side of 0.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .errors import BudgetExceeded, HypothesisViolation, ProfileError
from .covers import Character, PatternCover
from .knots import KnotExpr
from .polynomials import prime_powers
from .signatures import levine_tristram
from .subgroups import enumerate_subgroups


@dataclass(frozen=True)
class RatInterval:
    """Closed rational interval; degenerate intervals model exact values."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        assert self.lo <= self.hi

    @classmethod
    def point(cls, v):
        return cls(Fraction(v), Fraction(v))

    @property
    def is_point(self):
        return self.lo == self.hi

    def __add__(self, other):
        if isinstance(other, RatInterval):
            return RatInterval(self.lo + other.lo, self.hi + other.hi)
        return RatInterval(self.lo + other, self.hi + other)

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RatInterval) else -other)

    def scaled(self, c):
        c = Fraction(c)
        lo, hi = c * self.lo, c * self.hi
        return RatInterval(min(lo, hi), max(lo, hi))

    @property
    def excludes_zero(self):
        return self.lo > 0 or self.hi < 0

    def unwrap(self):
        return self.lo if self.is_point else self


def _orbit_key(values):
    """Canonical key for {chi, -chi}: taubar is even under negation."""
    fwd = tuple((v.numerator, v.denominator) for v in values)
    bwd = tuple((((-v) % 1).numerator, ((-v) % 1).denominator) for v in values)
    return min(fwd, bwd)


@dataclass(frozen=True)
class CGProfile:
    """taubar_{P(U)} data: exact per-orbit values or a uniform bound."""

    mode: str
    values: tuple = ()      # ((orbit_key, Fraction), ...) in exact mode
    bound: Fraction = Fraction(0)

    def __post_init__(self):
        assert self.mode in ("exact", "bounded")
        if self.mode == "bounded" and self.bound < 0:
            raise ProfileError("profile bound must be >= 0")

    @classmethod
    def zero(cls):
        return cls("exact", ())

    @classmethod
    def exact(cls, assignments):
        """assignments: iterable of (character-or-values, taubar value)."""
        table = {}
        for chi, tau in assignments:
            vals = chi.values if isinstance(chi, Character) else tuple(
                Fraction(v) % 1 for v in chi
            )
            tau = Fraction(tau)
            if all(v == 0 for v in vals) and tau != 0:
                raise ProfileError("taubar(0) must be 0")
            key = _orbit_key(vals)
            if key in table and table[key] != tau:
                raise ProfileError(
                    f"conflicting taubar values for the orbit of {vals}: "
                    f"{table[key]} vs {tau} (taubar(-chi) = taubar(chi))"
                )
            table[key] = tau
        return cls("exact", tuple(sorted(table.items())))

    @classmethod
    def bounded(cls, bound):
        return cls("bounded", (), Fraction(bound))

    def value(self, chi):
        """taubar(chi) as a RatInterval (a point in exact mode)."""
        if chi.is_zero:
            return RatInterval.point(0)
        if self.mode == "bounded":
            return RatInterval(-self.bound, self.bound)
        key = _orbit_key(chi.values)
        for k, v in self.values:
            if k == key:
                return RatInterval.point(v)
        # characters without an assigned value default to taubar = 0;
        # the zero profile is the common case and listing every orbit
        # of a large character group would be hostile to callers
        return RatInterval.point(0)

    def describe(self):
        if self.mode == "bounded":
            return {"mode": "bounded", "bound": str(self.bound)}
        return {
            "mode": "exact",
            "values": [
                {"orbit": [f"{n}/{d}" for n, d in key], "taubar": str(v)}
                for key, v in self.values
            ],
        }

    @classmethod
    def from_description(cls, data):
        """Inverse of describe; also accepts {"chi": [...]} entries."""
        if not isinstance(data, dict) or "mode" not in data:
            raise ProfileError("profile description needs a 'mode' field")
        if data["mode"] == "bounded":
            try:
                return cls.bounded(Fraction(data["bound"]))
            except (KeyError, ValueError, ZeroDivisionError) as ex:
                raise ProfileError(f"bad bounded profile: {ex}") from ex
        if data["mode"] != "exact":
            raise ProfileError(f"unknown profile mode {data['mode']!r}")
        assignments = []
        for entry in data.get("values", ()):
            vals = entry.get("orbit", entry.get("chi"))
            if vals is None or "taubar" not in entry:
                raise ProfileError(
                    "exact profile entries need 'orbit' (or 'chi') and 'taubar'"
                )
            try:
                chi_vals = tuple(Fraction(v) for v in vals)
                assignments.append((chi_vals, Fraction(entry["taubar"])))
            except (ValueError, ZeroDivisionError) as ex:
                raise ProfileError(f"bad profile entry {entry}: {ex}") from ex
        return cls.exact(assignments)


def _character_in_group(chi, group):
    if len(chi.values) != len(group.factors):
        return False
    return all(d % v.denominator == 0 for v, d in zip(chi.values, group.factors))


def _cg_interval(profile, cover, chi, companion):
    """satellite_cg_value as a RatInterval (a point in exact mode)."""
    if not _character_in_group(chi, cover.group):
        raise HypothesisViolation(
            f"character {chi.values} does not live on {cover.group.describe()}"
        )
    if chi.is_zero:
        return RatInterval.point(0)
    x = chi.evaluate(cover.v1_class)
    sig = levine_tristram(companion, x)
    return profile.value(chi) + 2 * sig


def satellite_cg_value(profile, cover, chi, companion):
    """taubar_{P(U)}(chi) + 2 sigma_{chi(v1)}(companion).

    Returns a Fraction in exact mode, a RatInterval in bounded mode.
    """
    return _cg_interval(profile, cover, chi, companion).unwrap()


@dataclass(frozen=True)
class ObstructionInstance:
    """#_i P(K_i) # -(#_j P(L_j)) with its prime-power character data."""

    pattern: PatternCover
    profile: CGProfile
    positive_side: tuple
    negative_side: tuple
    p: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "positive_side", tuple(self.positive_side))
        object.__setattr__(self, "negative_side", tuple(self.negative_side))
        for e in self.positive_side + self.negative_side:
            assert isinstance(e, KnotExpr)
        if prime_powers(self.p) != ((self.p, 1),):
            raise HypothesisViolation(f"{self.p} is not prime")
        if self.k < 1:
            raise HypothesisViolation("exponent k must be >= 1")
        if len(self.pattern.group.factors) != 1:
            raise HypothesisViolation(
                "obstruction instances need a cyclic pattern cover group"
            )
        n = self.pattern.group.order
        q = self.p ** self.k
        if n % q != 0 or (n // q) % self.p == 0:
            raise HypothesisViolation(
                f"cover group order {n} has p-primary part != p^k = {q}"
            )

    @property
    def m(self):
        return len(self.positive_side)

    @property
    def n_neg(self):
        return len(self.negative_side)

    @property
    def total(self):
        return self.m + self.n_neg


def _component_character(inst, c):
    """Character of the pattern cover group with chi(gen) = c / p^k."""
    q = inst.p ** inst.k
    return Character((Fraction(c % q, q),))


def obstruction_sum(inst, chi_tuple):
    """Signed sum of satellite CG values; Fraction or RatInterval."""
    if len(chi_tuple) != inst.total:
        raise HypothesisViolation(
            f"need {inst.total} characters (one per summand), got {len(chi_tuple)}"
        )
    total = RatInterval.point(0)
    for chi, knot in zip(chi_tuple[: inst.m], inst.positive_side):
        total = total + _cg_interval(inst.profile, inst.pattern, chi, knot)
    for chi, knot in zip(chi_tuple[inst.m:], inst.negative_side):
        total = total - _cg_interval(inst.profile, inst.pattern, chi, knot)
    return total.unwrap()


# ---------------------------------------------------------------------------
# vectorized witness search over all candidate metabolizers

# Two sweep kernels (the support-only matvec and the per-coefficient
# gather) and two tensor builders (one einsum over shared echelon shapes
# for k = 1, Subgroup.elements() for k >= 2) are kept on purpose; the
# code picks between them from the value tables and from k.  Folding
# each pair into its general member keeps the certificates
# byte-identical, but on a 2-core machine it slowed the (Z_3)^6 sweep
# of 33,880 subgroups from about 485 ms to about 540 ms, and each
# (Z_3)^6 tensor build by about 0.2 s from per-subgroup row_orders()
# calls: roughly 10 % of a Z_3 certify round trip.

# self-check hook: set False to force the per-coefficient gather path even
# when the support-only shortcut applies (they must agree)
_FLAT_FAST_PATH = True


@lru_cache(maxsize=None)
def _subgroups_with_elements(q, n, order):
    """(subgroups, elements tensor [S, E, n], support tensor) cached.

    The elements tensor lists every member of every subgroup in the
    deterministic coefficient-grid order of Subgroup.elements(); the
    support tensor is (elements != 0) as int64, used by the fast path
    when CG values only depend on which components are nonzero.
    """
    subs = enumerate_subgroups((q,) * n, order)
    ((p, k),) = prime_powers(q)
    if k == 1 and subs and subs[0].gens:
        # F_p case: every subgroup has exactly t echelon generators
        from itertools import product as _product
        t = len(subs[0].gens)
        assert all(len(s.gens) == t for s in subs)
        gens = np.array([s.gens for s in subs], dtype=np.int64)
        coeffs = np.array(list(_product(range(p), repeat=t)), dtype=np.int64)
        arr = (np.einsum("et,stn->sen", coeffs, gens) % p).astype(np.int16)
    else:
        arr = np.zeros((len(subs), order, n), dtype=np.int16)
        for i, s in enumerate(subs):
            els = s.elements()
            assert len(els) == order
            arr[i] = np.array(els, dtype=np.int16)
    support = (arr != 0).astype(np.int64)
    return subs, arr, support


def _value_tables(inst):
    """Per-summand CG value intervals at every character coefficient.

    Returns (lo, hi) lists of lists of Fractions, shape [total][q]:
    entry [alpha][c] is the signed contribution of summand alpha when
    its character component is c/p^k.
    """
    q = inst.p ** inst.k
    lo, hi = [], []
    signed = [(knot, 1) for knot in inst.positive_side] + [
        (knot, -1) for knot in inst.negative_side
    ]
    for knot, sign in signed:
        row_lo, row_hi = [], []
        for c in range(q):
            chi = _component_character(inst, c)
            iv = _cg_interval(inst.profile, inst.pattern, chi, knot)
            if sign < 0:
                iv = -iv
            row_lo.append(iv.lo)
            row_hi.append(iv.hi)
        lo.append(row_lo)
        hi.append(row_hi)
    return lo, hi


def _self_annihilating_mask(inst, subs):
    """Which subgroups pair to 0 with themselves under the linking form."""
    q = inst.p ** inst.k
    n_cover = inst.pattern.group.order
    lam = inst.pattern.linking_matrix[0][0]
    # self-linking of the p-primary generator (n/q) * g
    mu = (Fraction(n_cover // q) ** 2 * lam) % 1
    signs = [1] * inst.m + [-1] * inst.n_neg
    out = []
    for s in subs:
        ok = True
        for u in s.gens:
            for w in s.gens:
                pair = sum(
                    sg * mu * ui * wi for sg, ui, wi in zip(signs, u, w)
                ) % 1
                if pair != 0:
                    ok = False
                    break
            if not ok:
                break
        out.append(ok)
    return out


# ---------------------------------------------------------------------------
# canonical witness serialization
#
# A witness is (subgroup generators, character coefficient tuple, value).
# Its JSON form below is the one certificates embed; the digest of a
# witness family is sha256 over the canonical (sorted keys, no spaces)
# JSON array, streamed so huge families never have to live in memory.

def value_json(v):
    if isinstance(v, RatInterval):
        return {"lo": str(v.lo), "hi": str(v.hi)}
    return str(Fraction(v))


def witness_json(gens, coeffs, value):
    return {
        "subgroup": [list(row) for row in gens],
        "chi": list(coeffs),
        "value": value_json(value),
    }


def witness_list_digest(entries):
    """sha256 hex digest of the canonical JSON array of witness dicts."""
    sha = hashlib.sha256()
    sha.update(b"[")
    first = True
    for entry in entries:
        if not first:
            sha.update(b",")
        first = False
        sha.update(
            json.dumps(entry, sort_keys=True, separators=(",", ":")).encode()
        )
    sha.update(b"]")
    return sha.hexdigest()


@dataclass(frozen=True)
class SliceObstructionResult:
    """Outcome of the metabolizer sweep; never claims sliceness.

    When a witness_cap is in force and the subgroup count exceeds it,
    witnesses are not materialized; witness_digest commits to the full
    family instead (one witness per subgroup, in enumeration order).
    """

    obstructed: bool
    reason: str
    p: int
    k: int
    total: int
    subgroup_count: int
    witnesses: tuple = ()
    witness_digest: str = None
    failed_subgroup: tuple = None
    profile_mode: str = "exact"
    bound: Fraction = Fraction(0)
    self_annihilating_only: bool = False

    @property
    def inconclusive(self):
        return not self.obstructed


def check_slice_obstruction(inst, max_group_order=3 ** 6,
                            self_annihilating_only=False, witness_cap=None):
    """Obstruct sliceness of the signed satellite connected sum.

    Sweeps every subgroup of order p^{(m+n)k/2} of (Z_{p^k})^{m+n} (a
    superset of the linking-form metabolizers, hence sound); each needs
    a member character tuple whose obstruction sum is nonzero (interval
    excluding 0 in bounded mode).  Raises BudgetExceeded when the
    ambient group is larger than max_group_order.

    witness_cap (None = keep everything): when more subgroups than this
    are witnessed, the result carries only the sha256 digest of the
    canonical witness array rather than the witnesses themselves.
    """
    q = inst.p ** inst.k
    total = inst.total
    if total == 0:
        return SliceObstructionResult(
            False, "empty-instance", inst.p, inst.k, 0, 0,
            profile_mode=inst.profile.mode, bound=inst.profile.bound,
            self_annihilating_only=self_annihilating_only,
        )
    if (inst.k * total) % 2 == 1:
        # |H1|_p = p^{k(m+n)} is not a perfect square, but slice knots
        # have square cover homology order: obstructed with no search
        return SliceObstructionResult(
            True, "parity", inst.p, inst.k, total, 0,
            profile_mode=inst.profile.mode, bound=inst.profile.bound,
            self_annihilating_only=self_annihilating_only,
        )
    if q ** total > max_group_order:
        raise BudgetExceeded(
            f"ambient character group has order {q}^{total} > "
            f"budget {max_group_order}"
        )
    target = inst.p ** (inst.k * total // 2)
    subs, arr, support = _subgroups_with_elements(q, total, target)
    picked = list(range(len(subs)))
    if self_annihilating_only:
        mask = _self_annihilating_mask(inst, subs)
        picked = [i for i in picked if mask[i]]
    lo_f, hi_f = _value_tables(inst)
    den = lcm(*[f.denominator for row in lo_f + hi_f for f in row], 1)
    lo_t = np.array([[int(f * den) for f in row] for row in lo_f], dtype=np.int64)
    hi_t = np.array([[int(f * den) for f in row] for row in hi_f], dtype=np.int64)
    full = len(picked) == len(subs)
    sub_arr = arr if full else arr[picked]
    exact_tables = np.array_equal(lo_t, hi_t)
    # fast path: when each summand's value is the same at every nonzero
    # coefficient (e.g. q = 3, where c and -c give conjugate characters),
    # the sum only depends on the support pattern, a single int matvec
    flat = (_FLAT_FAST_PATH and
            np.all(lo_t[:, 1:] == lo_t[:, 1:2]) and
            np.all(hi_t[:, 1:] == hi_t[:, 1:2]))
    if flat:
        assert not lo_t[:, 0].any() and not hi_t[:, 0].any()
        sup = support if full else support[picked]
        ns, ne = sup.shape[:2]
        sums_lo = (sup.reshape(ns * ne, total) @ lo_t[:, 1]).reshape(ns, ne)
        if exact_tables:
            sums_hi = sums_lo
        else:
            sums_hi = (sup.reshape(ns * ne, total) @ hi_t[:, 1]).reshape(ns, ne)
    else:
        sums_lo = np.zeros(sub_arr.shape[:2], dtype=np.int64)
        for alpha in range(total):
            sums_lo += lo_t[alpha][sub_arr[:, :, alpha]]
        if exact_tables:
            sums_hi = sums_lo
        else:
            sums_hi = np.zeros(sub_arr.shape[:2], dtype=np.int64)
            for alpha in range(total):
                sums_hi += hi_t[alpha][sub_arr[:, :, alpha]]
    witness_mask = (sums_lo > 0) | (sums_hi < 0)
    per_sub = witness_mask.any(axis=1)
    if not bool(per_sub.all()):
        bad = int(np.argmin(per_sub))
        return SliceObstructionResult(
            False, "vanishing-subgroup", inst.p, inst.k, total, len(picked),
            failed_subgroup=subs[picked[bad]].gens,
            profile_mode=inst.profile.mode, bound=inst.profile.bound,
            self_annihilating_only=self_annihilating_only,
        )
    first = np.argmax(witness_mask, axis=1)
    rows = np.arange(sub_arr.shape[0])
    wit_coeffs = sub_arr[rows, first].tolist()
    wlo = sums_lo[rows, first].tolist()
    whi = wlo if exact_tables else sums_hi[rows, first].tolist()
    chosen = subs if full else [subs[i] for i in picked]

    def witness_values():
        if exact_tables and den == 1:
            for v in wlo:
                yield Fraction(v)
        elif exact_tables:
            for v in wlo:
                yield Fraction(v, den)
        else:
            for a, b in zip(wlo, whi):
                yield RatInterval(Fraction(a, den), Fraction(b, den)).unwrap()

    if witness_cap is not None and len(chosen) > witness_cap:
        digest = witness_list_digest(
            witness_json(s.gens, wit_coeffs[i], v)
            for i, (s, v) in enumerate(zip(chosen, witness_values()))
        )
        witnesses = ()
    else:
        digest = None
        witnesses = tuple(
            (s.gens, tuple(wit_coeffs[i]), v)
            for i, (s, v) in enumerate(zip(chosen, witness_values()))
        )
    return SliceObstructionResult(
        True, "witnessed", inst.p, inst.k, total, len(picked),
        witnesses=witnesses, witness_digest=digest,
        profile_mode=inst.profile.mode, bound=inst.profile.bound,
        self_annihilating_only=self_annihilating_only,
    )


# ---------------------------------------------------------------------------
# subsequence selection (the ordering-based rank argument)

def _prime_power_characters(group_order):
    """All nonzero characters of Z_n of prime-power order, as value lists."""
    chars = []
    for p, k in prime_powers(group_order):
        q = p ** k
        for c in range(1, q):
            chars.append(Character((Fraction(c, q),)))
    return chars


@dataclass(frozen=True)
class SelectionReport:
    """Greedy subsequence whose CG value ranges form a strict chain."""

    indices: tuple
    ranges: tuple       # per family member: (lower, upper) over nonzero chi
    profile_mode: str
    bound: Fraction

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)


def select_subsequence(family, cover, profile):
    """Earliest-index chain with 0 < values(J_a) < values(J_b) < ...

    For each knot the range of taubar(chi) + 2 sigma_{chi(v1)} over all
    nonzero prime-power characters chi is computed (as an interval in
    bounded mode); an index is selected when its whole range sits
    strictly above 0 and above the ranges of everything selected
    before it.  May return an empty selection.
    """
    family = list(family)
    chars = _prime_power_characters(cover.group.order)
    assert chars, "cover group is nontrivial for theorem-sized patterns"
    ranges = []
    for e in family:
        lows, highs = [], []
        for chi in chars:
            iv = _cg_interval(profile, cover, chi, e)
            lows.append(iv.lo)
            highs.append(iv.hi)
        ranges.append((min(lows), max(highs)))
    indices = []
    threshold = Fraction(0)
    for i, (lo, hi) in enumerate(ranges):
        if lo > threshold:
            indices.append(i)
            threshold = hi
    return SelectionReport(
        tuple(indices), tuple(ranges), profile.mode, profile.bound
    )

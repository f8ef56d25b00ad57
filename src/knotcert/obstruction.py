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
metabolizer order p^{(m+n)k/2} inside (Z_{p^k})^{m+n} (or just the
metabolizers) and hunting for a character tuple in each with
nonvanishing obstruction sum; if all subgroups are witnessed the sum
cannot be slice.  Inconclusive is always allowed, a false obstruction
never.

Interval semantics: in bounded mode a sum only counts as nonvanishing
when its whole interval lies on one side of 0.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice
from math import lcm

import numpy as np

from ._frozen import frozen
from .errors import BudgetExceeded, HypothesisViolation, ProfileError
from .covers import Character, PatternCover, characters_of_order
from .knots import KnotExpr
from .polynomials import prime_powers
from .signatures import levine_tristram
from .subgroups import enumerate_subgroups


@frozen
class RatInterval:
    """Closed rational interval; degenerate intervals model exact values."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not isinstance(self.lo, Fraction):
            object.__setattr__(self, "lo", Fraction(self.lo))
        if not isinstance(self.hi, Fraction):
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


@frozen
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


# the sweep tables, select_subsequence and every witness replay ask for
# the same few (knot, character) values; all four arguments are frozen
@lru_cache(maxsize=4096)
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


@frozen
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


# typed: a replayed certificate's 1.0 or True is not taken for the int 1
@lru_cache(maxsize=4096, typed=True)
def _component_character(q, c):
    """Character of the cyclic pattern cover group Z_q with chi(gen) = c / q."""
    return Character((Fraction(c % q, q),))


def obstruction_sum(inst, chi_tuple, terms=None):
    """Signed sum of satellite CG values; Fraction or RatInterval.

    terms, when given, is a dict kept by the caller across calls on the
    one instance.  It memoizes each summand's signed interval by
    (summand index, character) and each whole sum by its tuple of
    characters, so a replay of many witnesses of one combination looks
    up each summand's value once and adds each distinct tuple's
    summands once; a repeated tuple costs one dict lookup.
    """
    chi_tuple = tuple(chi_tuple)
    if len(chi_tuple) != inst.total:
        raise HypothesisViolation(
            f"need {inst.total} characters (one per summand), got {len(chi_tuple)}"
        )
    if terms is None:
        terms = {}
    value = terms.get(chi_tuple)
    if value is not None:
        return value
    lo = hi = Fraction(0)
    for alpha, chi in enumerate(chi_tuple):
        iv = terms.get((alpha, chi))
        if iv is None:
            if alpha < inst.m:
                iv = _cg_interval(inst.profile, inst.pattern, chi,
                                  inst.positive_side[alpha])
            else:
                iv = -_cg_interval(inst.profile, inst.pattern, chi,
                                   inst.negative_side[alpha - inst.m])
            terms[alpha, chi] = iv
        lo += iv.lo
        hi += iv.hi
    # a summand key is (int, Character), never a tuple of characters
    value = terms[chi_tuple] = RatInterval(lo, hi).unwrap()
    return value


# ---------------------------------------------------------------------------
# vectorized witness search over all candidate metabolizers


def _by_code(op, start, columns):
    """op folded over columns[j][digit j], for every base-q code at once.

    start is a one-entry array.  Digit 0 is the most significant, so the
    codes of the first j + 1 digits are those of the first j times q
    plus digit j: each column is one broadcast op onto the array so far,
    and the result is indexed by code, with no [q^n, n] digit table.
    """
    out = start
    for col in columns:
        out = op(out[:, None], col).ravel()
    return out


@lru_cache(maxsize=8)
def _candidates(q, n, order, form):
    """The subgroups of (Z_q)^n of the order, isotropic for form if given.

    Every family cache takes form positionally, so a family has one key.
    The sweep and the digest read its padded forms and row orders
    (subs.forms, subs.orders) without a copy, in the sorted order.
    """
    return enumerate_subgroups((q,) * n, order, form=form)


# a certify process reads the first few columns of at most a few families
@lru_cache(maxsize=16)
def _grid_column(q, n, order, form, j):
    """Base-q code of member j of every candidate, in enumeration order.

    Member j is the j-th point of the coefficient grid that
    Subgroup.elements() walks; every candidate has exactly order points.
    Its coefficients are j's mixed-radix digits in each candidate's row
    orders, last row fastest, for all candidates at once; a pad row has
    order 1, so digit 0, and a row slot whose digits are all 0 is
    skipped.  Codes use the smallest unsigned dtype holding q^n - 1.
    """
    subs = _candidates(q, n, order, form)
    forms, orders = subs.forms, subs.orders
    # a coordinate before its one reduction mod q sums s products < q^2
    wide = np.promote_types(
        forms.dtype, np.min_scalar_type(-forms.shape[1] * (q - 1) ** 2))
    # coordinate-major, with each product written in that layout too
    member = np.zeros((n, len(forms)), dtype=wide)
    term = np.empty_like(member)
    rest = np.full(len(forms), j, dtype=np.min_scalar_type(order))
    for r in range(forms.shape[1] - 1, -1, -1):
        if not rest.any():
            break
        rest, c = np.divmod(rest, orders[:, r])
        if c.any():
            member += np.multiply(forms[:, r].T, c.astype(wide), out=term)
    member -= member // q * q  # numpy vectorizes // by a scalar, not %
    dtype = np.min_scalar_type(q ** n - 1)
    place = q ** np.arange(n - 1, -1, -1, dtype=dtype)
    # summed in the code dtype, with no wide copy of the members
    return np.einsum("nf,n->f", member, place, dtype=dtype, casting="unsafe")


def _first_witnesses(q, n, order, form, good):
    """(codes, None), or (None, i) when some candidate has no witness.

    good[c] says whether the member with base-q code c is a witness.
    codes[i] is the code of candidate i's first witness in grid order;
    i is the first candidate whose whole grid misses.  The grid is
    walked one column at a time over the candidates still without a
    witness, and most find one in a few columns.
    """
    pending = np.arange(len(_candidates(q, n, order, form)))
    first = np.zeros(len(pending), dtype=np.intp)
    for j in range(order):
        if not len(pending):
            break
        codes = _grid_column(q, n, order, form, j)[pending]
        hit = good[codes]
        first[pending[hit]] = codes[hit]
        pending = pending[~hit]
    if len(pending):
        return None, int(pending[0])
    return first, None


# one entry per (profile, cover, q, knot): a certify run asks for the
# few distinct knots of its family once per combination summand
@lru_cache(maxsize=256)
def _value_row(profile, cover, q, knot):
    """(lo, hi, den): knot's CG value intervals at c/q, c < q.

    lo and hi are int tuples over the row's least common denominator
    den: the value at c/q is the interval lo[c]/den to hi[c]/den.
    """
    ivs = [_cg_interval(profile, cover, _component_character(q, c), knot)
           for c in range(q)]
    den = lcm(*[f.denominator for iv in ivs for f in (iv.lo, iv.hi)])
    lo = tuple(iv.lo.numerator * (den // iv.lo.denominator) for iv in ivs)
    hi = tuple(iv.hi.numerator * (den // iv.hi.denominator) for iv in ivs)
    return lo, hi, den


def _value_tables(inst):
    """Per-summand CG value intervals at every character coefficient.

    Returns (lo, hi, den): int64 arrays of shape [total, q] over one
    denominator den, so summand alpha contributes lo[alpha, c]/den to
    hi[alpha, c]/den when its character component is c/p^k.  Each
    summand's row pair is one _value_row lookup; a negative summand's
    pair is negated with lo and hi swapped, since -[a, b] = [-b, -a].
    """
    q = inst.p ** inst.k
    rows = [_value_row(inst.profile, inst.pattern, q, knot)
            for knot in inst.positive_side + inst.negative_side]
    den = lcm(*[d for _, _, d in rows])
    scale = np.array([[den // d] for _, _, d in rows], dtype=np.int64)
    lo = np.array([r[0] for r in rows], dtype=np.int64) * scale
    hi = np.array([r[1] for r in rows], dtype=np.int64) * scale
    neg = slice(inst.m, None)
    lo[neg], hi[neg] = -hi[neg], -lo[neg]
    return lo, hi, den


def _isotropy_form(inst):
    """(signs, b) such that u, w pair to 0 iff b | sum_i sign_i u_i w_i.

    They pair to mu * sum_i sign_i u_i w_i mod 1, where mu = a/b in
    lowest terms is the self-linking of the p-primary generator.
    """
    q = inst.p ** inst.k
    n_cover = inst.pattern.group.order
    lam = inst.pattern.linking_matrix[0][0]
    # self-linking of the p-primary generator (n/q) * g
    b = ((Fraction(n_cover // q) ** 2 * lam) % 1).denominator
    return (1,) * inst.m + (-1,) * inst.n_neg, b


# ---------------------------------------------------------------------------
# canonical witness serialization
#
# A witness is one swept subgroup's generators, the coefficient tuple of
# its first witnessing character and that character's obstruction sum.
# Its canonical JSON form (sorted keys, no spaces) is
# {"chi":[...],"subgroup":[[...],...],"value":V}, where V is the sum as
# a fraction string, or {"hi":...,"lo":...} for an interval.
# _witness_texts is the one writer of that form.  It builds a family's
# texts as byte strings, whole arrays at a time: a witness's chi and
# value are both functions of its base-q code, so each distinct code
# gets one head (chi, up to the subgroup's opening bracket) and one
# tail (the closing bracket and the value), and the subgroup text
# between them joins the texts of its generator rows, looked up by
# their base-q codes (_gen_codes) in a per-(q, n) table (_row_texts).
# An inline family is those texts parsed as one JSON array, and a
# digest-only family is the sha256 of that array (witness_list_digest).

# byte-string concatenation: np.char.add is the ufunc np.add from numpy
# 2.0 on, and naming it np.add spares loading numpy.char (about 0.2 MB
# of memory); numpy 1.x's np.add has no loop for byte strings
_concat = np.add if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else np.char.add


@lru_cache(maxsize=8)
def _row_texts(q, n):
    """(plain, comma): canonical JSON bytes of every vector of (Z_q)^n.

    Both are byte-string arrays indexed by base-q code: plain[c] is the
    text of vector c and comma[c] the same after a comma.  comma has
    one more entry, the empty text at code q^n, which stands for a row
    a generator matrix does not have.
    """
    digits = np.array([str(d).encode() for d in range(q)])
    after_comma = _concat(b",", digits)
    columns = [after_comma if j else digits for j in range(n)]
    plain = _concat(_by_code(_concat, np.array([b"["]), columns), b"]")
    comma = np.append(_concat(b",", plain), b"")
    return plain, comma


@lru_cache(maxsize=8)
def _gen_codes(q, n, order, form):
    """[S, s] base-q codes of each candidate's generator rows.

    Candidates are in the enumeration order of _candidates, rows in
    their gens order; a pad row (k >= 2 only) has code q^n.  The dtype
    is the smallest unsigned one holding q^n.
    """
    subs = _candidates(q, n, order, form)
    dtype = np.min_scalar_type(q ** n)
    place = q ** np.arange(n - 1, -1, -1, dtype=dtype)
    # summed in the code dtype, with no wide copy of the forms
    codes = np.einsum("frn,n->fr", subs.forms, place, dtype=dtype,
                      casting="unsafe")
    codes[subs.orders == 1] = q ** n
    return codes


@lru_cache(maxsize=1024)
def _value_tail(lo, hi, den):
    """Canonical JSON bytes that end a witness of value lo/den to hi/den."""
    lo, hi = Fraction(lo, den), Fraction(hi, den)
    # an interval's keys in sorted order, as every key of the text is
    value = f'"{lo}"' if lo == hi else f'{{"hi":"{hi}","lo":"{lo}"}}'
    return f'],"value":{value}}}'.encode()


def _witness_texts(q, n, order, form, codes, sum_lo, sum_hi, den):
    """Canonical JSON bytes of each witness, in family order.

    codes holds each candidate's witness code, in enumeration order, and
    sum_lo/sum_hi are the sweep's tables, so code c has the value
    sum_lo[c]/den to sum_hi[c]/den.  Each text is its code's head, its subgroup's row
    texts and its code's tail, concatenated as whole arrays of
    _DIGEST_CHUNK witnesses at a time; heads and tails are built only
    for the distinct codes.  A generator of one bytes object per
    witness, each chunk built when its reader reaches it.
    """
    plain, comma = _row_texts(q, n)
    gens = _gen_codes(q, n, order, form)
    # sorted distinct codes; np.unique(codes) loads numpy.ma (1.3 MB)
    ranked = np.sort(codes.astype(gens.dtype))
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    distinct = ranked[first]
    heads = _concat(_concat(b'{"chi":', plain[distinct]), b',"subgroup":[')
    tails = np.array([_value_tail(a, b, den) for a, b in
                      zip(sum_lo[distinct].tolist(), sum_hi[distinct].tolist())])
    for lo in range(0, len(codes), _DIGEST_CHUNK):
        part = np.searchsorted(distinct, codes[lo:lo + _DIGEST_CHUNK])
        g = gens[lo:lo + _DIGEST_CHUNK]
        texts = _concat(heads[part], plain[g[:, 0]])
        for col in g.T[1:]:
            texts = _concat(texts, comma[col])
        yield from _concat(texts, tails[part]).tolist()


# witnesses per hashed chunk: about 100 kB of text, small enough to stay
# in cache, large enough that sha256 calls cost nothing per witness
_DIGEST_CHUNK = 1024


def witness_list_digest(texts):
    """sha256 hex digest of the canonical JSON array of a witness family.

    texts yields each witness's canonical JSON bytes, one item per
    witness in family order, as _witness_texts builds them.  The array
    is hashed in chunks of _DIGEST_CHUNK witnesses, so a family of any
    size needs only one chunk's text in memory at a time.
    """
    # imported here, not at module top: loading OpenSSL costs every
    # process that never hashes a digest a few MB of memory
    import hashlib

    sha = hashlib.sha256(b"[")
    texts = iter(texts)
    sep = b""
    while chunk := list(islice(texts, _DIGEST_CHUNK)):
        sha.update(sep)
        sha.update(b",".join(chunk))
        sep = b","
    sha.update(b"]")
    return sha.hexdigest()


@frozen
class SliceObstructionResult:
    """Outcome of the metabolizer sweep; never claims sliceness.

    witnesses holds one witness per swept subgroup, in enumeration
    order, each as the dict a certificate embeds: {"chi": [...],
    "subgroup": [[...], ...], "value": "a/b" or {"hi": ..., "lo": ...}}.
    When a witness_cap is in force and the subgroup count exceeds it,
    witnesses is empty and witness_digest commits to the family instead.
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
    self_annihilating_only: bool = False

    @property
    def inconclusive(self):
        return not self.obstructed


def check_slice_obstruction(inst, max_group_order=3 ** 6,
                            self_annihilating_only=False, witness_cap=None):
    """Obstruct sliceness of the signed satellite connected sum.

    Sweeps every subgroup of order p^{(m+n)k/2} of (Z_{p^k})^{m+n} (a
    superset of the linking-form metabolizers, hence sound), or with
    self_annihilating_only just the metabolizers, which are enumerated
    directly; each needs a member character tuple whose obstruction
    sum is nonzero (interval excluding 0 in bounded mode).  Raises
    BudgetExceeded when the ambient group is larger than max_group_order.

    Each witness is written once, as canonical JSON text, by
    _witness_texts.  witness_cap (None = keep everything): when more
    subgroups than this are witnessed, the result carries only the
    sha256 digest of the array of those texts; otherwise the array is
    parsed into the result's witness dicts.
    """
    q = inst.p ** inst.k
    total = inst.total
    result = partial(SliceObstructionResult, p=inst.p, k=inst.k, total=total,
                     self_annihilating_only=self_annihilating_only)
    if total == 0:
        return result(False, "empty-instance", subgroup_count=0)
    if (inst.k * total) % 2 == 1:
        # |H1|_p = p^{k(m+n)} is not a perfect square, but slice knots
        # have square cover homology order: obstructed with no search
        return result(True, "parity", subgroup_count=0)
    if q ** total > max_group_order:
        raise BudgetExceeded(
            f"ambient character group has order {q}^{total} > "
            f"budget {max_group_order}"
        )
    target = inst.p ** (inst.k * total // 2)
    form = _isotropy_form(inst) if self_annihilating_only else None
    subs = _candidates(q, total, target, form)
    lo_t, hi_t, den = _value_tables(inst)
    # the obstruction sum of every character tuple, by base-q code, so
    # each subgroup member's sum is one lookup: at most q^total entries,
    # which max_group_order caps
    start = np.zeros(1, dtype=np.int64)
    sum_lo = _by_code(np.add, start, lo_t)
    sum_hi = _by_code(np.add, start, hi_t)
    first, bad = _first_witnesses(
        q, total, target, form, (sum_lo > 0) | (sum_hi < 0))
    if first is None:
        return result(False, "vanishing-subgroup", subgroup_count=len(subs),
                      failed_subgroup=subs[bad].gens)
    texts = _witness_texts(q, total, target, form, first, sum_lo, sum_hi, den)
    if witness_cap is not None and len(subs) > witness_cap:
        digest, witnesses = witness_list_digest(texts), ()
    else:
        digest, witnesses = None, tuple(json.loads(b"[" + b",".join(texts) + b"]"))
    return result(True, "witnessed", subgroup_count=len(subs),
                  witnesses=witnesses, witness_digest=digest)


# ---------------------------------------------------------------------------
# subsequence selection (the ordering-based rank argument)

@frozen
class SelectionReport:
    """Greedy subsequence whose CG value ranges form a strict chain."""

    indices: tuple
    ranges: tuple       # per family member: (lower, upper) over nonzero chi


def select_subsequence(family, cover, profile):
    """Earliest-index chain with 0 < values(J_a) < values(J_b) < ...

    For each knot the range of taubar(chi) + 2 sigma_{chi(v1)} over all
    nonzero prime-power characters chi is computed (as an interval in
    bounded mode); an index is selected when its whole range sits
    strictly above 0 and above the ranges of everything selected
    before it.  May return an empty selection.
    """
    family = list(family)
    chars = [chi for p, _ in prime_powers(cover.group.order)
             for chi in characters_of_order(cover.group, p) if not chi.is_zero]
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
    return SelectionReport(tuple(indices), tuple(ranges))

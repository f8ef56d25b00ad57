"""Exact Levine-Tristram signatures and signature step functions.

The signature at omega = exp(2 pi i x) for rational x is the signature
of the Hermitian matrix

    A(omega) = (1 - omega) V + (1 - conj(omega)) V^T .

Exactness strategy, per diagonal block of V:

* The nullity of A(omega) = (1 - omega)(V - conj(omega) V^T) is the
  number of invariant factors of V - t V^T over Q[t] that the d-th
  cyclotomic polynomial Phi_d divides (d = order of omega; Levine 1969,
  Tristram 1969, Kawauchi's survey).  That is 0 when Phi_d does not
  divide Delta = det(V - t V^T), and 1 when it divides it once, as in
  every torus(2, n) block; a repeated factor is left to the exact
  congruence below, which returns the nullity too.
* The nonzero eigenvalue signs come from rigorous Gershgorin discs of
  B = Q* A Q, where Q is a floating approximation of the eigenvector
  matrix and B is evaluated in outward-rounded double-precision
  midpoint/radius form, with omega enclosed by integer fixed-point
  arithmetic.  B is congruent to A, so by Sylvester's law its signature
  equals the signature of A.
* Where the discs are inconclusive, one exact fallback answers.  The
  signature is constant between circle roots of Delta, so a nonsingular
  point moves to the simplest rational on its arc (_arc_point, exact
  Sturm counts).  A singular point, a repeated factor or a point that
  is already the simplest on its arc is diagonalized by congruence over
  Q(omega) = Q[t]/Phi_d (_exact_inertia), each pivot's sign read in
  fixed point at a doubling bit count.  A sign is never accepted from
  an uncertified float.

Values at rational x are queried through levine_tristram; whole step
functions (jump locus + interval values) through signature_function.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from ._frozen import frozen
from .errors import (
    ExpressionError,
    HypothesisViolation,
    UnsupportedKnotError,
)
from .knots import (KnotExpr, _alexander_of_block, _normalize_alexander,
                    alexander_of_matrix, evaluate)
from .polynomials import (
    _qdivmod,
    _qmul,
    _qsub,
    compact_circle_form,
    cyclotomic,
    euler_phi,
    factor_multiplicity,
    orders_with_phi_at_most,
    simplest_between,
    sturm_count,
)

HALF = Fraction(1, 2)


@frozen
class CirclePoint:
    """Rational point x = j/p of the unit circle, stored reduced in [0, 1)."""

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise ExpressionError("circle point needs a positive denominator")
        g = gcd(self.num, self.den)
        num = (self.num // g) % (self.den // g)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", self.den // g)

    @classmethod
    def parse(cls, text):
        m = text.strip().split("/")
        try:
            if len(m) == 1:
                return cls(int(m[0]), 1)
            if len(m) == 2:
                return cls(int(m[0]), int(m[1]))
        except ValueError:
            pass
        raise ExpressionError(f"cannot parse circle point {text!r}; want j/p")

    @property
    def as_fraction(self):
        return Fraction(self.num, self.den)

    @property
    def order(self):
        """Multiplicative order of exp(2 pi i num/den)."""
        return self.den if self.num else 1

    def __str__(self):
        return f"{self.num}/{self.den}"


def _as_circle_fraction(x):
    if isinstance(x, CirclePoint):
        return x.as_fraction
    if isinstance(x, str):
        return CirclePoint.parse(x).as_fraction
    return Fraction(x) % 1


# ---------------------------------------------------------------------------
# integer fixed point: an integer v at `bits` stands for v / 2^bits, and
# every error bound counts units of 2^-bits.  The double pass encloses
# omega at _BITS; the exact fallback refines at doubling bit counts.

_EPS = 2.0 ** -53
_INFLATE = 1.0 + 2.0 ** -40
_ETA = 1e-290

_BITS = 160
_ONE = 1 << _BITS
_E8 = 2981  # > e^8


def _arctan_inv(x, one):
    """(a, k): |a - one atan(1/x)| < 3k + 2 for an integer x >= 5.

    Each power one / x^(2i+1) is floored and carries the previous
    power's error divided by x^2, so it is low by less than 2, and its
    term, floored once more, by less than 3.  The loop stops at the
    first power that floors to 0, whose exact value is below 2, so the
    alternating tail from there on is below 2.
    """
    power, x2 = one // x, x * x
    total, k = 0, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        power //= x2
        k += 1
    return total, k


def _machin_pi(bits):
    """(v, err): |v - pi 2^bits| < err, from pi = 16 atan(1/5) - 4 atan(1/239)."""
    one = 1 << bits
    a5, k5 = _arctan_inv(5, one)
    a239, k239 = _arctan_inv(239, one)
    return 16 * a5 - 4 * a239, 16 * (3 * k5 + 2) + 4 * (3 * k239 + 2)


_PI = _machin_pi(_BITS)


def _cos_sin(j, d, bits, pi):
    """(cos, sin, err) of 2 pi j/d at `bits`, with pi = _machin_pi(bits).

    theta = 2 pi (j mod d)/d lies in [0, 8), and its fixed-point value
    t is floored from pi's, so it is off by less than 2 pi_err + 1
    units; cos and sin are 1-Lipschitz, so that error passes through
    unchanged.  The Taylor terms term_k = term_{k-1} t / (k 2^bits) are
    floored, each low by less than sum_i (t/2^bits)^i / i! < e^8 units.
    The first term that floors to 0 (at k = K) is below e^8 units and
    the tail from it on shrinks at least geometrically by 8/9, so the
    sums of cos and sin are each off by less than err = (K + 9) e^8 +
    2 pi_err + 1 units in all.
    """
    one = 1 << bits
    pi_v, pi_err = pi
    t = 2 * pi_v * (j % d) // d
    cos_v = sin_v = 0
    term, k = one, 0
    while term:
        if k % 2:
            sin_v += -term if k % 4 == 3 else term
        else:
            cos_v += -term if k % 4 == 2 else term
        k += 1
        term = term * t // (k * one)
    return cos_v, sin_v, (k + 9) * _E8 + 2 * pi_err + 1


# ---------------------------------------------------------------------------
# rigorous double-precision pass (midpoint/radius interval algebra)

def _fixed_to_midrad(v, err):
    """(mid, rad) doubles whose disc holds [v - err, v + err] / _ONE."""
    mid = v / _ONE  # correctly rounded
    num, den = mid.as_integer_ratio()  # den is a power of two
    gap = abs(v * den - num * _ONE) + err * den
    return mid, (gap / (den * _ONE)) * _INFLATE + _ETA


@lru_cache(maxsize=4096)
def _omega_enclosure(j, d):
    """(cos, sin) of 2 pi j/d as (mid, rad) doubles, rigorously."""
    cos_v, sin_v, err = _cos_sin(j, d, _BITS, _PI)
    cm, cr = _fixed_to_midrad(cos_v, err)
    sm, sr = _fixed_to_midrad(sin_v, err)
    return cm, cr, sm, sr


def _hermitian_form(block, j, d):
    """Midpoint/radius enclosure of (1-w)V + (1-conj w)V^T, w = e^{2pi i j/d}."""
    v = np.array(block, dtype=np.float64)
    cm, cr, sm, sr = _omega_enclosure(j, d)
    c = complex(1.0 - cm, -sm)  # 1 - omega
    a_mid = c * v + np.conj(c) * v.T
    coeff_rad = (cr + sr) * _INFLATE
    a_rad = (np.abs(v) + np.abs(v.T)) * coeff_rad
    a_rad = a_rad * _INFLATE + 4.0 * _EPS * np.abs(a_mid) + _ETA
    return a_mid, a_rad


def _mr_matmul(am, ar, bm, br):
    """Rigorous complex matrix product in midpoint/radius form.

    Relies on IEEE-754 double arithmetic with correctly rounded basic
    operations; the gamma constant covers any summation order numpy
    might use, with generous inflation on top.
    """
    n = am.shape[1]
    gamma = 8.0 * (n + 4) * _EPS
    cm = am @ bm
    abs_am = np.abs(am) + ar
    abs_bm = np.abs(bm) + br
    cr = ar @ (np.abs(bm) + br) + np.abs(am) @ br + gamma * (abs_am @ abs_bm)
    cr = cr * _INFLATE + 4.0 * _EPS * np.abs(cm) + _ETA
    return cm, cr


def _classify_discs(bm, br, nullity):
    """Signed Gershgorin disc count of B, or None when inconclusive.

    Positive and negative discs can never merge (they live on opposite
    sides of 0), so each connected component of the disc union is
    purely positive, purely negative, or touches 0; requiring exactly
    `nullity` zero-straddling discs, all disjoint from the signed
    ones, pins every eigenvalue's sign.
    """
    centers = np.real(np.diagonal(bm))
    mag = np.abs(bm) + br
    np.fill_diagonal(mag, 0.0)
    radii = (np.diagonal(br) + mag.sum(axis=1)) * _INFLATE + _ETA
    lo = (centers - radii).tolist()
    hi = (centers + radii).tolist()
    pos = [l > 0 for l in lo]
    neg = [h < 0 for h in hi]
    mixed = [not (p or q) for p, q in zip(pos, neg)]
    if sum(mixed) != nullity:
        return None
    if nullity:
        for i, mi in enumerate(mixed):
            if not mi:
                continue
            for k, mk in enumerate(mixed):
                if not mk and lo[k] <= hi[i] and hi[k] >= lo[i]:
                    return None
    return sum(pos) - sum(neg)


def _certify_double(block, j, d, nullity):
    am, ar = _hermitian_form(block, j, d)
    if not np.all(np.isfinite(am)):
        return None
    q = np.linalg.eigh(am)[1]
    bm, br = _mr_matmul(np.conj(q.T), np.zeros_like(ar), am, ar)
    bm, br = _mr_matmul(bm, br, q, np.zeros_like(ar))
    return _classify_discs(bm, br, nullity)


# ---------------------------------------------------------------------------
# exact fallback, case 1: a nonsingular point moves along its arc

def _refinements():
    """(bits, _machin_pi(bits)) at _BITS and at every doubling after it."""
    bits, pi = _BITS, _PI
    while True:
        yield bits, pi
        bits *= 2
        pi = _machin_pi(bits)


def _enclose_s(x, bits, pi):
    """Fractions lo < 2 cos(2 pi x) < hi from _cos_sin at `bits`."""
    c, _, err = _cos_sin(x.numerator, x.denominator, bits, pi)
    return Fraction(c - err, 1 << (bits - 1)), Fraction(c + err, 1 << (bits - 1))


def _root_free(g, lo, hi):
    """True when g has no root in the closed interval [lo, hi]."""
    return g(lo) != 0 and g(hi) != 0 and sturm_count(g, lo, hi) == 0


def _arc_point(block, x):
    """The simplest rational on x's arc between circle roots of Delta.

    x must not be a root.  Folded into (0, 1/2], where s = 2 cos(2 pi x)
    decreases, x's arc is a stretch of s free of roots of g, with
    Delta(t) = t^m g(t + 1/t).  Once s(x)'s enclosure holds no root of
    g, the Stern-Brocot walk from 1/2 toward x stops at the first node y
    whose enclosure joins x's without a root of g in between; every
    node before y lies off the arc, so y is its simplest point.
    """
    if x > HALF:
        x = 1 - x
    g = compact_circle_form(_normalize_alexander(_alexander_of_block(block)))
    for bits, pi in _refinements():
        lo, hi = _enclose_s(x, bits, pi)
        if _root_free(g, lo, hi):
            break
    left, right, y = Fraction(0), Fraction(1), HALF
    while y != x:
        ly, hy = _enclose_s(y, bits, pi)
        if _root_free(g, min(lo, ly), max(hi, hy)):
            break
        left, right = (left, y) if x < y else (y, right)
        y = Fraction(left.numerator + right.numerator,
                     left.denominator + right.denominator)
    return y


# ---------------------------------------------------------------------------
# exact fallback, case 2: congruence over Q[t]/Phi_d

def _real_sign(c, j, d):
    """Sign of sum_k c_k cos(2 pi jk/d), the residue c's value at omega.

    That value must be real and nonzero; the sum is taken in fixed point
    at doubling bit counts until its error bound clears 0.
    """
    den = lcm(*(x.denominator for x in c))
    ints = [int(x * den) for x in c]
    for bits, pi in _refinements():
        total = bound = 0
        for k, ck in enumerate(ints):
            if ck:
                cos_v, _, err = _cos_sin(j * k, d, bits, pi)
                total += ck * cos_v
                bound += abs(ck) * err
        if abs(total) > bound:
            return 1 if total > 0 else -1


def _exact_inertia(block, j, d):
    """(signature, nullity) of A(omega), omega = e^{2 pi i j/d}, d >= 2.

    Q(omega) is Q[t]/Phi_d, as j/d is reduced; every entry is an int or
    Fraction tuple reduced mod Phi_d, and conjugation is t -> t^(d - 1).
    The Hermitian matrix is diagonalized by congruence: pivot on a nonzero
    diagonal entry through its Schur complement; when every diagonal
    entry left is 0 but some a_ik is not, e_i += conj(a_ik) e_k makes
    the diagonal entry 2 |a_ik|^2.  By Sylvester's law of inertia the
    signature is the sum of the pivots' signs (_real_sign) and the
    nullity is the size of the zero block that is left.
    """
    phi = cyclotomic(d).coeffs

    def residue(a):
        return _qdivmod(a, phi)[1]

    def inverse(a):
        # s1 a = r1 mod Phi_d throughout; r1 ends a nonzero constant
        r0, r1, s0, s1 = phi, a, (), (1,)
        while len(r1) > 1:
            q, r = _qdivmod(r0, r1)
            r0, r1, s0, s1 = r1, r, s1, _qsub(s0, _qmul(q, s1))
        inv = 1 / Fraction(r1[0])
        return tuple(c * inv for c in s1)

    def times(a, b):
        return residue(_qmul(a, b))

    # a_rc = v_rc (1 - t) + v_cr (1 - conj t), with conj t = t^(d - 1)
    u = residue((1, -1))
    u_bar = residue((1,) + (0,) * (d - 2) + (-1,))
    m = [[_qsub(tuple(v * c for c in u), tuple(-w * c for c in u_bar))
          for v, w in zip(row, col)] for row, col in zip(block, zip(*block))]
    live = list(range(len(block)))
    sig = 0
    while live:
        i = next((i for i in live if m[i][i]), None)
        if i is None:
            pair = next(((i, k) for i in live for k in live if m[i][k]), None)
            if pair is None:
                break
            i, k = pair
            neg_lam = tuple(-c for c in m[k][i])  # -conj(a_ik)
            neg_lam_bar = tuple(-c for c in m[i][k])
            for r in live:
                m[r][i] = _qsub(m[r][i], times(m[r][k], neg_lam))
            for c in live:
                m[i][c] = _qsub(m[i][c], times(neg_lam_bar, m[k][c]))
        live.remove(i)
        sig += _real_sign(m[i][i], j, d)
        inv = inverse(m[i][i])
        for r in live:
            if m[r][i]:
                f = times(m[r][i], inv)
                for c in live:
                    if m[i][c]:
                        m[r][c] = _qsub(m[r][c], times(f, m[i][c]))
    return sig, len(live)


# ---------------------------------------------------------------------------
# per-block certified signature

def _nullity(block, j, d):
    """dim ker A(omega) at omega = e^{2 pi i j/d}, or None.

    0 or 1 exactly when Phi_d's multiplicity in Delta is; None for a
    repeated factor, which _exact_inertia decides.
    """
    delta = _alexander_of_block(block)
    deg = delta.degree
    # Phi_d can only divide when phi(d) <= deg Delta, and phi(d) >= sqrt(d/2)
    # rules out every d > 2 deg^2 before euler_phi factors d
    if d > 2 * deg * deg or euler_phi(d) > deg:
        return 0
    mult, _ = factor_multiplicity(delta, cyclotomic(d))
    return mult if mult <= 1 else None


@lru_cache(maxsize=256)
def _block_signature(block, x):
    j, d = x.numerator, x.denominator
    nullity = _nullity(block, j, d)
    if nullity is not None:
        sig = _certify_double(block, j, d, nullity)
        if sig is not None:
            return sig
        if nullity == 0:
            y = _arc_point(block, x)
            if y != x:
                return _block_signature(block, y)
    return _exact_inertia(block, j, d)[0]


def signature_of_matrix(v, x):
    """Certified signature of (1-w)V + (1-conj w)V^T at w = e^{2 pi i x}."""
    x = Fraction(x) % 1
    if x == 0 or v.size == 0:
        return 0
    return sum(_block_signature(b, x) for b in v.diagonal_blocks())


def levine_tristram(e, x):
    """Levine-Tristram signature of a knot expression at rational x."""
    if not isinstance(e, KnotExpr):
        raise ExpressionError(f"expected a knot expression, got {e!r}")
    return signature_of_matrix(evaluate(e), _as_circle_fraction(x))


# ---------------------------------------------------------------------------
# signature step functions

@frozen(uncompared=("den_bound",))
class SignatureFunction:
    """Step function on (0, 1/2], extended by sigma_x = sigma_{1-x}.

    jumps lists the unit-circle roots of the Alexander polynomial (the
    only places the signature can change); interval_values[i] is the
    constant value between jumps[i-1] and jumps[i]; jump_values[i] is
    the value exactly at jumps[i].
    """

    jumps: tuple
    interval_values: tuple
    jump_values: tuple
    den_bound: int = 2

    def __post_init__(self):
        assert len(self.interval_values) == len(self.jumps) + 1
        assert len(self.jump_values) == len(self.jumps)

    @classmethod
    def zero(cls, den_bound=2):
        return cls((), (0,), (), den_bound)

    def evaluate(self, x):
        x = _as_circle_fraction(x)
        if x == 0:
            return 0
        if x > HALF:
            x = 1 - x
        idx = bisect_right(self.jumps, x)
        if idx and self.jumps[idx - 1] == x:
            return self.jump_values[idx - 1]
        return self.interval_values[idx]

    def to_dict(self):
        return {
            "jumps": [str(j) for j in self.jumps],
            "interval_values": list(self.interval_values),
            "jump_values": list(self.jump_values),
            "denominator_bound": self.den_bound,
        }


def _circle_root_locus(delta):
    """Rational x in (0, 1/2) with exp(2 pi i x) a root of delta.

    Raises UnsupportedKnotError when delta also has unit-circle roots
    at irrational angles (not roots of unity), since those cannot be
    listed as exact rationals.
    """
    deg = delta.degree
    locus = []
    rest = delta
    if deg >= 2:
        for d in orders_with_phi_at_most(deg):
            phi_d = cyclotomic(d)
            mult, rest_after = factor_multiplicity(rest, phi_d)
            if mult:
                rest = rest_after
                half = Fraction(1, 2)
                for j in range(1, d):
                    if gcd(j, d) == 1:
                        x = Fraction(j, d)
                        if x < half:
                            locus.append(x)
    if rest.degree > 0:
        assert rest.is_palindromic() and rest.degree % 2 == 0
        g = compact_circle_form(rest)
        n_circle = sturm_count(g, Fraction(-2), Fraction(2))
        if n_circle:
            raise UnsupportedKnotError(
                "Alexander polynomial has unit-circle roots at irrational "
                "angles; the exact rational jump locus is not defined here"
            )
    return sorted(set(locus))


def _step_function(jumps, value_at, den_bound):
    """Sample value_at once inside each gap of the sorted jumps and at each jump."""
    cuts = [Fraction(0)] + jumps + [HALF]
    interval_values = [
        value_at(HALF if hi == HALF else simplest_between(lo, hi))
        for lo, hi in zip(cuts, cuts[1:])
    ]
    jump_values = [value_at(x) for x in jumps]
    return SignatureFunction(
        tuple(jumps), tuple(interval_values), tuple(jump_values), den_bound
    )


def signature_function(e, den_bound):
    """Exact signature step function of a knot expression on (0, 1/2]."""
    if not isinstance(den_bound, int) or den_bound < 2:
        raise ExpressionError("denominator bound must be an integer >= 2")
    v = evaluate(e)
    if v.size == 0:
        return SignatureFunction.zero(den_bound)
    delta = alexander_of_matrix(v)
    jumps = _circle_root_locus(delta)
    return _step_function(
        jumps, lambda x: signature_of_matrix(v, x), den_bound
    )


def satellite_signature_function(w, pattern_sig, companion, den_bound=None):
    """Signature function of a satellite with winding number w.

    sigma_x(P(K)) = sigma_x(P(U)) + sigma_{w x}(K); for w = 0 the
    companion drops out entirely and the pattern function is returned
    unchanged.
    """
    if w % 2 != 0:
        raise HypothesisViolation(
            "satellite signature formula requires an even winding number"
        )
    if w == 0:
        return pattern_sig
    bound = den_bound if den_bound is not None else pattern_sig.den_bound
    k_sig = signature_function(companion, bound)
    aw = abs(w)
    jumps = set(pattern_sig.jumps)
    for jk in k_sig.jumps:
        for target in (jk, 1 - jk):
            m = 0
            while True:
                x = (target + m) / aw
                if x > HALF:
                    break
                if x > 0:
                    jumps.add(x)
                m += 1
    return _step_function(
        sorted(jumps),
        lambda x: pattern_sig.evaluate(x) + k_sig.evaluate(aw * x),
        bound,
    )


# ---------------------------------------------------------------------------
# ordering hypothesis

@frozen
class OrderingCheck:
    """Verdict and ledger for the signature ordering chain at level n.

    For consecutive knots the chain needs
        max_j sigma_{j/n}(J_i)  <  min_j sigma_{j/n}(J_{i+1})
    over 1 <= j < n/2 (composite j/n included).
    """

    holds: bool
    n: int
    per_knot: tuple  # (min, max) per family member
    rows: tuple      # (index i, max_i, min_{i+1}, ok)

    def __bool__(self):
        return self.holds


def check_ordering_hypothesis(family, n):
    if not isinstance(n, int) or n < 3:
        raise HypothesisViolation("ordering hypothesis needs an integer n >= 3")
    family = list(family)
    if not family:
        raise HypothesisViolation("ordering hypothesis needs a nonempty family")
    js = list(range(1, (n + 1) // 2))
    assert js, "n >= 3 always leaves at least j = 1"
    stats = []
    for e in family:
        v = evaluate(e)
        vals = [signature_of_matrix(v, Fraction(j, n)) for j in js]
        stats.append((min(vals), max(vals)))
    rows = []
    holds = True
    for i in range(len(family) - 1):
        ok = stats[i][1] < stats[i + 1][0]
        rows.append((i, stats[i][1], stats[i + 1][0], ok))
        holds = holds and ok
    return OrderingCheck(holds, n, tuple(stats), tuple(rows))

"""Exact Levine-Tristram signatures and signature step functions.

The signature at omega = exp(2 pi i x) for rational x is the signature
of the Hermitian matrix

    A(omega) = (1 - omega) V + (1 - conj(omega)) V^T .

Exactness strategy, per eigenvalue sign:

* The nullity of A(omega) is decided exactly.  A(omega) is
  (1 - omega)(V - conj(omega) V^T), so its nullity is the number of
  invariant factors of V - t V^T over Q[t] that the d-th cyclotomic
  polynomial Phi_d divides (d = order of omega; Levine 1969,
  Tristram 1969, Kawauchi's survey).  That count is 0 when Phi_d does
  not divide Delta = det(V - t V^T), and otherwise at least 1 and at
  most the multiplicity of Phi_d in Delta.  A simple factor, as in
  every torus(2, n) block, therefore gives nullity 1 with no further
  work; only a repeated factor falls back to exact Gaussian
  elimination over Q(zeta_d) = Q[t]/Phi_d, with every entry a
  rational polynomial residue mod Phi_d.
* The nonzero eigenvalue signs come from rigorous Gershgorin discs of
  B = Q* A Q, where Q is a floating approximation of the eigenvector
  matrix and B is evaluated in outward-rounded interval arithmetic.
  B is congruent to A, so by Sylvester's law its signature equals the
  signature of A.  The first pass is in double-precision
  midpoint/radius form, with omega enclosed by integer fixed-point
  arithmetic (no mpmath).  Only when its discs are inconclusive does
  the mpmath interval fallback refine them at increasing precision
  until exactly the known number straddle zero; mpmath is imported
  there and nowhere else.  A sign is never accepted from an
  uncertified float.

Values at rational x are queried through levine_tristram; whole step
functions (jump locus + interval values) through signature_function.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import (
    ExpressionError,
    HypothesisViolation,
    PrecisionExhausted,
    UnsupportedKnotError,
)
from .knots import KnotExpr, SeifertMatrix, evaluate, alexander_of_matrix, _alexander_of_block
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


@dataclass(frozen=True)
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
# rigorous double-precision pass (midpoint/radius interval algebra)
#
# omega = e^{2 pi i j/d} enters as integer fixed-point cos and sin with
# counted error bounds, rounded out to doubles: this pass needs only
# numpy and Python integers, and mpmath serves the fallback alone.

_EPS = 2.0 ** -53
_INFLATE = 1.0 + 2.0 ** -40
_ETA = 1e-290

# omega is enclosed in fixed point: an integer v stands for v / 2^_BITS,
# and every error bound below counts units of 2^-_BITS
_BITS = 160
_ONE = 1 << _BITS
_E8 = 2981  # > e^8


def _arctan_inv(x):
    """(a, k): |a - _ONE atan(1/x)| < 3k + 2 for an integer x >= 5.

    Each power _ONE / x^(2i+1) is floored and carries the previous
    power's error divided by x^2, so it is low by less than 2, and its
    term, floored once more, by less than 3.  The loop stops at the
    first power that floors to 0, whose exact value is below 2, so the
    alternating tail from there on is below 2.
    """
    power, x2 = _ONE // x, x * x
    total, k = 0, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        power //= x2
        k += 1
    return total, k


def _machin_pi():
    """(v, err): |v - pi _ONE| < err, from pi = 16 atan(1/5) - 4 atan(1/239)."""
    a5, k5 = _arctan_inv(5)
    a239, k239 = _arctan_inv(239)
    return 16 * a5 - 4 * a239, 16 * (3 * k5 + 2) + 4 * (3 * k239 + 2)


_PI, _PI_ERR = _machin_pi()


def _fixed_to_midrad(v, err):
    """(mid, rad) doubles whose disc holds [v - err, v + err] / _ONE."""
    mid = v / _ONE  # correctly rounded
    num, den = mid.as_integer_ratio()  # den is a power of two
    gap = abs(v * den - num * _ONE) + err * den
    return mid, (gap / (den * _ONE)) * _INFLATE + _ETA


@lru_cache(maxsize=4096)
def _omega_enclosure(j, d):
    """(cos, sin) of 2 pi j/d as (mid, rad) doubles, rigorously.

    theta = 2 pi (j mod d)/d lies in [0, 8), and its fixed-point value
    t is floored from _PI, so it is off by less than 2 _PI_ERR + 1 units;
    cos and sin are 1-Lipschitz, so that error passes through unchanged.
    The Taylor terms term_k = term_{k-1} t / (k _ONE) are floored, each
    low by less than sum_i (t/_ONE)^i / i! < e^8 units.  The first term that
    floors to 0 (at k = K) is below e^8 units and the tail from it on
    shrinks at least geometrically by 8/9, so the sums of cos and sin
    are each off by less than (K + 9) e^8 units in all.
    """
    t = 2 * _PI * (j % d) // d
    cos_v = sin_v = 0
    term, k = _ONE, 0
    while term:
        if k % 2:
            sin_v += -term if k % 4 == 3 else term
        else:
            cos_v += -term if k % 4 == 2 else term
        k += 1
        term = term * t // (k * _ONE)
    err = (k + 9) * _E8 + 2 * _PI_ERR + 1
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


def _gershgorin_discs(bm, br):
    centers = np.real(np.diagonal(bm))
    mag = np.abs(bm) + br
    np.fill_diagonal(mag, 0.0)
    radii = (np.diagonal(br) + mag.sum(axis=1)) * _INFLATE + _ETA
    return centers, radii


def _classify_intervals(lo, hi, nullity):
    """Signed disc count, or None when the discs are inconclusive.

    Positive and negative discs can never merge (they live on opposite
    sides of 0), so each connected component of the disc union is
    purely positive, purely negative, or touches 0; requiring exactly
    `nullity` zero-straddling discs, all disjoint from the signed
    ones, pins every eigenvalue's sign.
    """
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


def _classify_discs(centers, radii, nullity):
    lo = (centers - radii).tolist()
    hi = (centers + radii).tolist()
    return _classify_intervals(lo, hi, nullity)


def _certify_double(block, j, d, nullity):
    am, ar = _hermitian_form(block, j, d)
    if not np.all(np.isfinite(am)):
        return None
    q = np.linalg.eigh(am)[1]
    bm, br = _mr_matmul(np.conj(q.T), np.zeros_like(ar), am, ar)
    bm, br = _mr_matmul(bm, br, q, np.zeros_like(ar))
    centers, radii = _gershgorin_discs(bm, br)
    return _classify_discs(centers, radii, nullity)


# ---------------------------------------------------------------------------
# arbitrary-precision fallback (mpmath interval arithmetic), the only
# user of mpmath

def _certify_mp(block, j, d, nullity, prec):
    import mpmath as mp  # loaded only when the double pass declines

    n = len(block)
    with mp.workprec(prec):
        w = mp.e ** (2j * mp.pi * j / d)
        a_float = mp.matrix(n)
        for r in range(n):
            for c in range(n):
                a_float[r, c] = (1 - w) * block[r][c] + (1 - mp.conj(w)) * block[c][r]
        try:
            _, q = mp.eighe(a_float)
        except RuntimeError:
            # the QL iteration did not converge at this precision; the
            # ladder retries higher up, and no sign is taken from it
            return None
    old = mp.iv.prec
    try:
        mp.iv.prec = prec
        theta = 2 * mp.iv.pi * j / d
        wc, ws = mp.iv.cos(theta), mp.iv.sin(theta)
        one = mp.iv.mpf(1)
        cw = mp.iv.mpc(one - wc, -ws)       # 1 - omega
        cwb = mp.iv.mpc(one - wc, ws)       # 1 - conj(omega)
        a = [
            [cw * block[r][c] + cwb * block[c][r] for c in range(n)]
            for r in range(n)
        ]
        qiv = [
            [mp.iv.mpc(mp.iv.mpf(q[r, c].real), mp.iv.mpf(q[r, c].imag)) for c in range(n)]
            for r in range(n)
        ]
        qconj = [
            [mp.iv.mpc(z.real, -z.imag) for z in row] for row in qiv
        ]
        zero = mp.iv.mpc(0)
        # B = Q* A Q
        aq = [
            [sum((a[r][k] * qiv[k][c] for k in range(n)), zero) for c in range(n)]
            for r in range(n)
        ]
        b = [
            [sum((qconj[k][r] * aq[k][c] for k in range(n)), zero) for c in range(n)]
            for r in range(n)
        ]

        def mag_bound(z):
            # interval upper bound for |z| via |Re z| + |Im z|; the
            # endpoint extraction is exact, the addition outward
            re = max(abs(mp.mpf(z.real.a)), abs(mp.mpf(z.real.b)))
            im = max(abs(mp.mpf(z.imag.a)), abs(mp.mpf(z.imag.b)))
            return mp.iv.mpf(re) + mp.iv.mpf(im)

        lo, hi = [], []
        for i in range(n):
            off = mp.iv.mpf(0)
            for c in range(n):
                if c != i:
                    off += mag_bound(b[i][c])
            lo.append(mp.mpf((b[i][i].real - off).a))
            hi.append(mp.mpf((b[i][i].real + off).b))
    finally:
        mp.iv.prec = old
    return _classify_intervals(lo, hi, nullity)


# ---------------------------------------------------------------------------
# exact rank over Q[t]/Phi_d (for singular points)

def _exact_nullity(block, j, d):
    """dim ker A(omega): n minus the rank of V - conj(omega) V^T mod Phi_d.

    Q(zeta_d) is Q[t]/Phi_d, so every entry is a Fraction tuple reduced
    mod Phi_d, conj(omega) is t^(d - j) reduced, and Gaussian elimination
    inverts each pivot by extended Euclid against the irreducible Phi_d.
    """
    phi = tuple(Fraction(c) for c in cyclotomic(d).coeffs)

    def residue(a):
        return _qdivmod(a, phi)[1]

    def inverse(a):
        # s1 a = r1 mod Phi_d throughout; r1 ends a nonzero constant
        r0, r1, s0, s1 = phi, a, (), (Fraction(1),)
        while len(r1) > 1:
            q, r = _qdivmod(r0, r1)
            r0, r1, s0, s1 = r1, r, s1, _qsub(s0, _qmul(q, s1))
        return tuple(c / r1[0] for c in s1)

    conj = residue((Fraction(0),) * ((d - j) % d) + (Fraction(1),))
    n = len(block)
    m = [
        [
            _qsub((Fraction(block[r][c]),), tuple(block[c][r] * x for x in conj))
            for c in range(n)
        ]
        for r in range(n)
    ]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = inverse(m[rank][col])
        for r in range(rank + 1, n):
            if m[r][col]:
                factor = residue(_qmul(m[r][col], inv))
                for c in range(col, n):
                    m[r][c] = _qsub(m[r][c], residue(_qmul(factor, m[rank][c])))
        rank += 1
    return n - rank


# ---------------------------------------------------------------------------
# per-block certified signature

_PRECISIONS = (113, 240, 480, 960, 1920, 3840)


def _nullity(block, j, d):
    """dim ker A(omega) at omega = e^{2 pi i j/d}.

    0 or 1 exactly when Phi_d's multiplicity in Delta is; a repeated
    factor is decided by elimination over Q[t]/Phi_d (_exact_nullity).
    """
    delta = _alexander_of_block(block)
    deg = delta.degree
    # Phi_d can only divide when phi(d) <= deg Delta, and phi(d) >= sqrt(d/2)
    # rules out every d > 2 deg^2 before euler_phi factors d
    if d > 2 * deg * deg or euler_phi(d) > deg:
        return 0
    mult, _ = factor_multiplicity(delta, cyclotomic(d))
    if mult <= 1:
        return mult
    nullity = _exact_nullity(block, j, d)
    assert 1 <= nullity <= mult
    return nullity


@lru_cache(maxsize=256)
def _block_signature(block, x):
    j, d = x.numerator, x.denominator
    nullity = _nullity(block, j, d)
    sig = _certify_double(block, j, d, nullity)
    if sig is None:
        for prec in _PRECISIONS:
            sig = _certify_mp(block, j, d, nullity, prec)
            if sig is not None:
                break
        else:
            raise PrecisionExhausted(
                f"could not certify eigenvalue signs at x = {x} "
                f"(size {len(block)}, precision cap {_PRECISIONS[-1]} bits)"
            )
    return sig


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

@dataclass(frozen=True)
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
    den_bound: int = field(compare=False, default=2)

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

@dataclass(frozen=True)
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

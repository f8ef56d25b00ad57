"""Exact univariate polynomial arithmetic over Z and Q.

Coefficient tuples are stored lowest degree first.  Nothing in this
module touches floating point: these routines back the exactness
claims of the signature engine (cyclotomic divisibility, Sturm root
counts), so everything stays in Z or Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, coefficients lowest degree first."""

    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))
        assert all(isinstance(c, int) for c in self.coeffs)

    @property
    def degree(self):
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(other * c for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate by Horner; works for int, Fraction and complex x."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift_down(self, e):
        """Divide by t**e; the dropped coefficients must vanish."""
        assert all(c == 0 for c in self.coeffs[:e])
        return IntPoly(self.coeffs[e:])

    def monic_divmod(self, other):
        """Divide by a monic integer polynomial, staying in Z[t]."""
        assert other.coeffs and other.coeffs[-1] == 1, "divisor must be monic"
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return IntPoly(), self
        quo = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree]
            quo[k] = c
            if c:
                for j, oj in enumerate(other.coeffs):
                    rem[k + j] -= c * oj
        return IntPoly(quo), IntPoly(rem)

    def exact_div(self, other):
        """Exact division in Z[t]; raises if the division is not exact."""
        q, r = _qdivmod(
            tuple(Fraction(c) for c in self.coeffs),
            tuple(Fraction(c) for c in other.coeffs),
        )
        if any(r_i != 0 for r_i in r):
            raise ArithmeticError("inexact polynomial division")
        out = []
        for c in q:
            assert c.denominator == 1, "quotient left Z[t]"
            out.append(int(c))
        return IntPoly(out)

    def is_palindromic(self):
        return self.coeffs == tuple(reversed(self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}t" if i == 1 else f"{mag}t^{i}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


ONE = IntPoly((1,))
T = IntPoly((0, 1))


@lru_cache(maxsize=256)
def prime_powers(n):
    """Factorization of n as ((p, k), ...), primes increasing; () for n < 2.

    n is a prime power exactly when the result has one entry.  Cached:
    subgroup enumeration asks about the same modulus for every candidate.
    """
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def euler_phi(n):
    assert n >= 1
    result = n
    for p, _ in prime_powers(n):
        result -= result // p
    return result


@lru_cache(maxsize=None)
def cyclotomic(d):
    """d-th cyclotomic polynomial, computed by exact division."""
    assert d >= 1
    num = IntPoly((-1,) + (0,) * (d - 1) + (1,))  # t^d - 1
    for e in range(1, d):
        if d % e == 0:
            q, r = num.monic_divmod(cyclotomic(e))
            assert r.is_zero()
            num = q
    return num


def divides(p, q):
    """True when p | q in Z[t]; p must be monic (cyclotomics are)."""
    if q.is_zero():
        return True
    _, r = q.monic_divmod(p)
    return r.is_zero()


def factor_multiplicity(p, f):
    """Largest k with f**k | p, plus the cofactor. f monic."""
    k = 0
    while not p.is_zero() and divides(f, p):
        p, _ = p.monic_divmod(f)
        k += 1
    return k, p


def orders_with_phi_at_most(bound):
    """All d >= 3 whose primitive d-th roots could divide a degree <= bound poly."""
    # phi(d) >= sqrt(d/2) for every d, so d <= 2*bound**2 suffices.
    out = []
    for d in range(3, 2 * bound * bound + 2):
        if euler_phi(d) <= bound:
            out.append(d)
    return out


# ---------------------------------------------------------------------------
# determinants

def det_int(rows):
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    assert all(len(r) == n for r in m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q, r = divmod(num, prev)
                assert r == 0
                m[i][j] = q
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det_poly(rows):
    """Bareiss determinant of a square matrix of IntPoly entries."""
    n = len(rows)
    if n == 0:
        return ONE
    m = [list(r) for r in rows]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return IntPoly()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = IntPoly()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


# ---------------------------------------------------------------------------
# rational-coefficient helpers (Sturm chains, exact inertia mod Phi_d)

def _qdivmod(a, b):
    a, b = _trim(a), _trim(b)
    assert b, "division by zero polynomial"
    rem = list(a)
    dq = len(rem) - len(b)
    if dq < 0:
        return (), tuple(rem)
    quo = [Fraction(0)] * (dq + 1)
    inv_lead = 1 / Fraction(b[-1])
    for k in range(dq, -1, -1):
        c = rem[k + len(b) - 1] * inv_lead
        quo[k] = c
        if c:
            for j, bj in enumerate(b):
                rem[k + j] -= c * bj
    return _trim(quo), _trim(rem)


def _qmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _qsub(a, b):
    n = max(len(a), len(b))
    a = tuple(a) + (Fraction(0),) * (n - len(a))
    b = tuple(b) + (Fraction(0),) * (n - len(b))
    return _trim(tuple(x - y for x, y in zip(a, b)))


def _qeval(cs, x):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _qderiv(cs):
    return _trim(tuple(i * c for i, c in enumerate(cs) if i))


def _sign_variations(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def sturm_count(p, a, b):
    """Number of distinct real roots of p in the open interval (a, b).

    Both endpoints must be non-roots (asserted).  p is an IntPoly,
    endpoints are Fractions; the chain runs in exact rationals.
    """
    cs = _trim(tuple(Fraction(c) for c in p.coeffs))
    assert cs, "zero polynomial has no isolated roots"
    assert _qeval(cs, a) != 0 and _qeval(cs, b) != 0
    # square-free part via gcd with the derivative
    u, v = cs, _qderiv(cs)
    while v:
        u, v = v, _qdivmod(u, v)[1]
    if len(u) > 1:
        cs = _qdivmod(cs, u)[0]
    chain = [cs, _qderiv(cs)]
    while chain[-1]:
        _, r = _qdivmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-c for c in r))
    va = _sign_variations([_qeval(c, a) for c in chain if c])
    vb = _sign_variations([_qeval(c, b) for c in chain if c])
    assert va >= vb
    return va - vb


def compact_circle_form(p):
    """Rewrite a palindromic even-degree p as g(u) with u = t + 1/t.

    p(t) / t^m = g(t + 1/t) where deg p = 2m.  Unit-circle roots
    t = exp(i theta) of p correspond to real roots u = 2 cos theta of
    g in [-2, 2].
    """
    assert p.is_palindromic() and p.degree % 2 == 0
    m = p.degree // 2
    # basis polys b_k(u) = t^k + t^-k: b_0 = 2, b_1 = u, b_{k+1} = u b_k - b_{k-1}
    g = IntPoly((p.coeffs[m],))
    bk_minus, bk = IntPoly((2,)), T
    for k in range(1, m + 1):
        g = g + p.coeffs[m + k] * bk
        bk_minus, bk = bk, T * bk - bk_minus
    return g


def simplest_between(a, b):
    """Smallest-denominator rational strictly inside (a, b), 0 <= a < b."""
    a, b = Fraction(a), Fraction(b)
    assert 0 <= a < b
    fa = a.numerator // a.denominator
    if b > fa + 1:
        return Fraction(fa + 1)
    if a == fa:
        # interval sits inside (fa, fa + 1]; take fa + 1/q with minimal q
        inv = 1 / (b - fa)
        q = inv.numerator // inv.denominator + 1
        return fa + Fraction(1, q)
    return fa + 1 / simplest_between(1 / (b - fa), 1 / (a - fa))

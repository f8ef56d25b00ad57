"""Exact univariate polynomial arithmetic over Z and Q.

Coefficient tuples are stored lowest degree first.  Nothing in this
module touches floating point: these routines back the exactness
claims of the signature engine (cyclotomic divisibility, Sturm root
counts), so everything stays in Z or Q.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


# ---------------------------------------------------------------------------
# coefficient-tuple kernels: the one polynomial arithmetic, on int or
# Fraction coefficients (IntPoly wraps them)

def _qsub(a, b):
    """a - b."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def _qmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _qeval(cs, x):
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _qdivmod(a, b):
    """(quotient, remainder) of a by b over Q.

    A divisor with leading coefficient 1 keeps integer coefficients
    integers; any other divisor divides through Fraction.
    """
    a, b = _trim(a), _trim(b)
    assert b, "division by zero polynomial"
    dq = len(a) - len(b)
    if dq < 0:
        return (), a
    top = len(b) - 1
    inv_lead = None if b[-1] == 1 else 1 / Fraction(b[-1])
    body = b[:top]
    rem = list(a)
    quo = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + top] if inv_lead is None else rem[k + top] * inv_lead
        quo[k] = c
        if c:
            for j, bj in enumerate(body):
                rem[k + j] -= c * bj
    return _trim(quo), _trim(rem[:top])


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
        return IntPoly(_qsub(self.coeffs, tuple(-c for c in other.coeffs)))

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return IntPoly(_qsub(self.coeffs, other.coeffs))

    def __mul__(self, other):
        b = (other,) if isinstance(other, int) else other.coeffs
        return IntPoly(_qmul(self.coeffs, b))

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate by Horner; works for int, Fraction and complex x."""
        return _qeval(self.coeffs, x)

    def shift_down(self, e):
        """Divide by t**e; the dropped coefficients must vanish."""
        assert all(c == 0 for c in self.coeffs[:e])
        return IntPoly(self.coeffs[e:])

    def monic_divmod(self, other):
        """Divide by a monic integer polynomial, staying in Z[t]."""
        assert other.coeffs and other.coeffs[-1] == 1, "divisor must be monic"
        q, r = _qdivmod(self.coeffs, other.coeffs)
        return IntPoly(q), IntPoly(r)

    def exact_div(self, other):
        """Exact division in Z[t]; raises ArithmeticError if it is not exact."""
        q, r = _qdivmod(self.coeffs, other.coeffs)
        if r or any(c.denominator != 1 for c in q):
            raise ArithmeticError("inexact polynomial division")
        return IntPoly(tuple(int(c) for c in q))

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


def prime_powers(n):
    """Factorization of n as ((p, k), ...), primes increasing; () for n < 2.

    n is a prime power exactly when the result has one entry.
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


# bounded like every cache: 20 invariants-dense operations ask for 26 orders d
@lru_cache(maxsize=4096)
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


def factor_multiplicity(p, f):
    """Largest k with f**k | p, plus the cofactor. f monic, not constant."""
    assert f.degree > 0, "a constant divides every polynomial"
    k = 0
    # the zero polynomial divides by f with remainder 0 forever
    while not p.is_zero():
        q, r = p.monic_divmod(f)
        if r:
            break
        p, k = q, k + 1
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

def _bareiss(rows, one, exact_div):
    """Fraction-free Bareiss determinant of a square matrix over Z or Z[t].

    one is the ring's 1 (a singular matrix gives one - one, its 0) and
    exact_div(a, b) the quotient a / b, which is exact at every step;
    entries are tested for zero by truth value.
    """
    n = len(rows)
    if n == 0:
        return one
    m = [list(r) for r in rows]
    assert all(len(r) == n for r in m)
    sign = 1
    prev = one
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return one - one
        # column k below the pivot is never read again
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def det_int(rows):
    """Fraction-free Bareiss determinant of a square integer matrix."""
    return _bareiss(rows, 1, operator.floordiv)


def det_poly(rows):
    """Bareiss determinant of a square matrix of IntPoly entries."""
    return _bareiss(rows, ONE, IntPoly.exact_div)


# ---------------------------------------------------------------------------
# real-root counting

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
    cs = p.coeffs
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

"""Exhaustive subgroup enumeration in homocyclic p-groups (Z_{p^k})^N.

Every subgroup has exactly one Howell form (see howell_form), so the
subgroups of order p^t are enumerated as Howell forms directly, for
every k alike.  A form is a list of rows with strictly increasing pivot
columns c_1 < ... < c_s; row i is zero before c_i, has leading entry
p^{v_i} with 0 <= v_i < k and sum(k - v_i) = t, has its entry at each
later pivot c_j in [0, p^{v_j}), and satisfies the Howell condition
that p^{k - v_i} * row_i lies in the span of the rows after it.  The
rows are built from the last pivot backwards, so each candidate row
only needs a membership test against the finished suffix.  For k = 1
every v_i is 0, the condition holds trivially and the forms are the
reduced row echelon forms of F_p-subspaces.

Subgroup orders here are tiny (the obstruction search caps the ambient
group order), so clarity wins over asymptotics everywhere except the
element-tensor helpers used by the witness search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .errors import HypothesisViolation
from .covers import FiniteAbelianGroup
from .polynomials import prime_powers


def _vp(x, p):
    v = 0
    while x and x % p == 0:
        x //= p
        v += 1
    return v


def howell_form(rows, n, modulus):
    """Canonical echelon generators for the row span over Z_modulus.

    modulus must be a prime power.  Returns a tuple of rows, each with
    leading entry an exact power of p, zeros below every pivot, and
    entries above a pivot reduced modulo that pivot's leading entry;
    this normal form is unique for the span, so equal spans give equal
    tuples.
    """
    pp = prime_powers(modulus)
    assert len(pp) == 1, "Howell reduction implemented for prime-power moduli"
    ((p, k),) = pp
    work = []
    for r in rows:
        rr = tuple(x % modulus for x in r)
        if any(rr):
            work.append(list(rr))
    pivot_rows = []
    pivot_info = []  # (col, valuation)
    for col in range(n):
        cand = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not cand:
            work = rest
            continue
        v = min(_vp(r[col], p) for r in cand)
        idx = next(i for i, r in enumerate(cand) if _vp(r[col], p) == v)
        r0 = cand.pop(idx)
        unit = r0[col] // (p ** v)
        # unit is invertible mod p^k; normalize the leading entry to p^v
        uinv = pow(unit, -1, modulus)
        r0 = [(x * uinv) % modulus for x in r0]
        assert r0[col] == p ** v
        for r in cand:
            w = _vp(r[col], p)
            assert w >= v
            c = (r[col] // (p ** v)) % modulus
            for j in range(col, n):
                r[j] = (r[j] - c * r0[j]) % modulus
            assert r[col] == 0
        shadow = [(x * p ** (k - v)) % modulus for x in r0]
        work = [r for r in cand if any(r)] + rest
        if any(shadow):
            work.append(shadow)
        pivot_rows.append(r0)
        pivot_info.append((col, v))
    # back-reduce entries above each pivot modulo the pivot's leading power,
    # in increasing pivot order: reducing at column col only disturbs columns
    # to its right (pivot rows are zero at earlier pivot columns), and later
    # passes restore those.  Decreasing order would let an early-column pass
    # un-reduce entries above later pivots.
    for i in range(len(pivot_rows)):
        col, v = pivot_info[i]
        lead = p ** v
        for e in range(i):
            c = pivot_rows[e][col] // lead
            if c:
                for j in range(col, n):
                    pivot_rows[e][j] = (pivot_rows[e][j] - c * pivot_rows[i][j]) % modulus
            assert 0 <= pivot_rows[e][col] < lead
    return tuple(tuple(r) for r in pivot_rows)


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of (Z_modulus)^n given by canonical echelon generators."""

    modulus: int
    n: int
    gens: tuple

    @property
    def pivot_data(self):
        if not self.gens:
            return ()
        ((p, _k),) = prime_powers(self.modulus)
        out = []
        for row in self.gens:
            col = next(j for j, x in enumerate(row) if x)
            out.append((col, _vp(row[col], p)))
        return tuple(out)

    @property
    def order(self):
        return prod(self.row_orders())

    def row_orders(self):
        if not self.gens:
            return ()
        ((p, k),) = prime_powers(self.modulus)
        return tuple(p ** (k - v) for _, v in self.pivot_data)

    def elements(self):
        """All elements, each exactly once (triangular generator set)."""
        if not self.gens:
            return [(0,) * self.n]
        out = []
        for coeffs in product(*(range(o) for o in self.row_orders())):
            vec = [0] * self.n
            for c, row in zip(coeffs, self.gens):
                if c:
                    for j in range(self.n):
                        vec[j] = (vec[j] + c * row[j]) % self.modulus
            out.append(tuple(vec))
        return out

    def contains(self, vec):
        if not self.gens:
            return not any(x % self.modulus for x in vec) if self.modulus > 1 else True
        ((p, k),) = prime_powers(self.modulus)
        v = [x % self.modulus for x in vec]
        for (col, val), row in zip(self.pivot_data, self.gens):
            lead = p ** val
            if v[col] % lead:
                return False
            c = v[col] // lead
            for j in range(col, self.n):
                v[j] = (v[j] - c * row[j]) % self.modulus
        return not any(v)


def _howell_forms(p, k, n, t):
    """Every Howell form of order p^t in (Z_{p^k})^n, unsorted."""
    q = p ** k

    def extend(suffix, limit, need):
        # suffix is a finished form with every pivot at or after limit;
        # prepend rows with pivots before limit until the order is p^t
        if need == 0:
            yield suffix
            return
        span = Subgroup(q, n, suffix)
        ranges = [range(q)] * n
        for col, val in span.pivot_data:
            ranges[col] = range(p ** val)
        for col in range(limit):
            for v in range(max(0, k - need), k):
                rest = need - (k - v)
                if rest > col * k:
                    continue  # too few columns left before col
                head = (0,) * col + (p ** v,)
                for tail in product(*ranges[col + 1:]):
                    row = head + tail
                    # v = 0: p^k * row is 0, which every span contains
                    if v == 0 or span.contains([x * p ** (k - v) for x in row]):
                        yield from extend((row,) + suffix, col, rest)

    return extend((), n, t)


def enumerate_subgroups(group, target_order):
    """Every subgroup of (Z_{p^k})^N of exactly the given order.

    Returned as Subgroup objects with canonical generators, sorted, no
    duplicates.
    """
    if target_order < 1:
        raise HypothesisViolation(f"target order {target_order} is not positive")
    if isinstance(group, FiniteAbelianGroup):
        factors = group.factors
    else:
        factors = tuple(group)
    if not factors:
        if target_order == 1:
            return [Subgroup(1, 0, ())]
        raise HypothesisViolation("trivial group has only the order-1 subgroup")
    q = factors[0]
    if any(f != q for f in factors):
        raise HypothesisViolation(
            "subgroup enumeration needs a homocyclic group (Z_{p^k})^N"
        )
    pp = prime_powers(q)
    if len(pp) != 1:
        raise HypothesisViolation(f"{q} is not a prime power")
    ((p, k),) = pp
    n = len(factors)
    tpp = prime_powers(target_order) if target_order > 1 else ((p, 0),)
    if len(tpp) != 1 or tpp[0][0] != p:
        raise HypothesisViolation(
            f"target order {target_order} is not a power of {p}"
        )
    t = tpp[0][1]
    if p ** t > q ** n:
        raise HypothesisViolation("target order exceeds the group order")
    subs = [Subgroup(q, n, gens) for gens in _howell_forms(p, k, n, t)]
    subs.sort(key=lambda s: s.gens)
    return subs

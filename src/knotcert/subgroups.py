"""Exhaustive subgroup enumeration in homocyclic p-groups (Z_{p^k})^N.

Two regimes:

* k = 1: subgroups are F_p-subspaces; we enumerate them directly as
  reduced row echelon forms (pivot-column patterns times free entries),
  which hits each subspace exactly once.
* k >= 2: breadth-first closure over added generators, deduplicated by
  the Howell normal form of the generating rows, which is the
  canonical echelon form for row spans over Z_{p^k}.

Subgroup orders here are tiny (the obstruction search caps the ambient
group order), so clarity wins over asymptotics everywhere except the
element-tensor helpers used by the witness search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

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
        if not self.gens:
            return 1
        ((p, k),) = prime_powers(self.modulus)
        total = 1
        for _, v in self.pivot_data:
            total *= p ** (k - v)
        return total

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


def _rref_subspaces(p, n, dim):
    """All reduced-row-echelon generator matrices of F_p^n subspaces."""
    out = []
    for pivots in combinations(range(n), dim):
        free = []
        for i, pc in enumerate(pivots):
            for j in range(pc + 1, n):
                if j not in pivots:
                    free.append((i, j))
        for assignment in product(range(p), repeat=len(free)):
            rows = [[0] * n for _ in range(dim)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), val in zip(free, assignment):
                rows[i][j] = val
            out.append(tuple(tuple(r) for r in rows))
    return out


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
    if t == 0:
        return [Subgroup(q, n, ())]
    if k == 1:
        subs = [Subgroup(p, n, g) for g in _rref_subspaces(p, n, t)]
        subs.sort(key=lambda s: s.gens)
        return subs
    # k >= 2: closure search, deduplicated by Howell form
    ambient = list(product(range(q), repeat=n))
    seen = {(): Subgroup(q, n, ())}
    frontier = [()]
    while frontier:
        new_frontier = []
        for gens in frontier:
            base = seen[gens]
            for g in ambient:
                if not any(g):
                    continue
                hf = howell_form(base.gens + (g,), n, q)
                if hf in seen:
                    continue
                cand = Subgroup(q, n, hf)
                if cand.order <= target_order:
                    seen[hf] = cand
                    new_frontier.append(hf)
        frontier = new_frontier
    subs = [s for s in seen.values() if s.order == target_order]
    subs.sort(key=lambda s: s.gens)
    return subs

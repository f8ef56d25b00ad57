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

Given a diagonal pairing, a form's rows generate its subgroup, so it is
isotropic iff its rows pair to 0 with themselves and each other: a
candidate row failing that against a suffix is dropped at once.

Enumeration counts run to the millions ((Z_9)^5 has 1,288,651
subgroups of order 243), so the forms are built as integer arrays, a
whole batch of suffixes with one pivot pattern extended per array
pass, and stay arrays: enumerate_subgroups sorts them with one
lexsort and makes a Subgroup object only when one is accessed, while
the witness search reads the batch arrays directly.  howell_form and
Subgroup are the scalar reference the tests hold the arrays to.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import product
from math import prod

import numpy as np

from ._frozen import frozen
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


@frozen
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
        """Yield all elements, each exactly once (triangular generator set).

        A generator, so a walk that stops at its first witness builds no
        more elements than it reads; take list() to read them twice.
        """
        if not self.gens:
            yield (0,) * self.n
            return
        for coeffs in product(*(range(o) for o in self.row_orders())):
            vec = [0] * self.n
            for c, row in zip(coeffs, self.gens):
                if c:
                    for j in range(self.n):
                        vec[j] = (vec[j] + c * row[j]) % self.modulus
            yield tuple(vec)

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


# candidate (form, row) pairs tested at once: bounds the [F, G, n]
# membership array of one extension step to 2^16 entries, or to one
# form's G candidate rows when those alone are more
_PAIR_CHUNK = 1 << 16


def _in_span(w, forms, pivots, p, q):
    """Mask [F, G]: does form f's span contain candidate vector w[g]?

    Subgroup.contains's reduction, run over every pair at once: at most
    one array step per row of the forms.
    """
    w = np.broadcast_to(w, (len(forms),) + w.shape).copy()
    ok = np.ones(w.shape[:2], dtype=bool)
    for j, (col, val) in enumerate(pivots):
        c, r = np.divmod(w[:, :, col], p ** val)
        ok &= r == 0
        w -= c[:, :, None] * forms[:, None, j]
        w %= q
    return ok & ~w.any(axis=2)


def _howell_forms(p, k, n, t, form=None):
    """Every Howell form of order p^t in (Z_{p^k})^n, in batches.

    Each batch is an array [F, s, n] of the forms sharing one pivot
    pattern, rows in pivot order.  A batch of finished suffixes is
    extended by every row with a given earlier pivot and valuation in one
    pass: the candidate rows are one product grid of their free entries.
    form = (signs, b) keeps only the forms isotropic for the pairing
    sum_i signs_i u_i w_i mod b, summed in int64: n products of entries
    below q overflow the forms' dtype.
    """
    q = p ** k
    # entries, and every product in the membership test, lie in (-q^2, q^2)
    dt = np.min_scalar_type(-q * q)
    batches = []

    def extend(forms, pivots, need):
        # forms share pivots; prepend rows with earlier pivots until the
        # order is p^t
        if need == 0:
            batches.append(forms)
            return
        sizes = [q] * n
        for col, val in pivots:
            sizes[col] = p ** val
        for col in range(pivots[0][0] if pivots else n):
            # valuations whose remaining order fits in the columns before col
            vals = [v for v in range(max(0, k - need), k)
                    if need - (k - v) <= col * k]
            if not vals:
                continue
            grid = sizes[col + 1:]
            rows = np.zeros((prod(grid), n), dtype=dt)
            rows[:, col + 1:] = np.indices(grid, dtype=dt).reshape(
                len(grid), len(rows)).T
            step = max(1, _PAIR_CHUNK // (len(rows) * n))
            for v in vals:
                rows[:, col] = p ** v
                cand = rows
                if form is not None:  # rows that pair to 0 with themselves
                    signed = rows * np.array(form[0], dtype=np.int64)
                    keep = (signed * rows).sum(axis=1) % form[1] == 0
                    cand, signed = rows[keep], signed[keep]
                shadow = cand * p ** (k - v) % q
                parts = []
                for lo in range(0, len(forms), step):
                    part = forms[lo:lo + step]
                    if v:
                        ok = _in_span(shadow, part, pivots, p, q)
                    else:  # p^k * row is 0, which every span contains
                        ok = np.ones((len(part), len(cand)), dtype=bool)
                    if form is not None:  # ... and with every suffix row
                        pair = np.einsum("fjn,gn->fgj", part, signed)
                        ok &= (pair % form[1] == 0).all(axis=2)
                    f, g = np.nonzero(ok)
                    new = np.empty((len(f), len(pivots) + 1, n), dtype=dt)
                    new[:, 0] = cand[g]
                    new[:, 1:] = part[f]
                    parts.append(new)
                new = np.concatenate(parts)
                if len(new):
                    extend(new, ((col, v),) + pivots, need - (k - v))

    extend(np.zeros((1, 0, n), dtype=dt), (), t)
    return batches


def _lex_order(batches):
    """Permutation sorting the forms of all batches by their gens tuples.

    Each form is flattened row by row and padded with -1, so a shorter
    prefix sorts first.
    """
    if not batches:
        return np.zeros(0, dtype=np.intp)
    width = max(1, max(f.shape[1] * f.shape[2] for f in batches))
    keys = np.full((width, sum(map(len, batches))), -1, dtype=batches[0].dtype)
    lo = 0
    for forms in batches:
        flat = forms.reshape(len(forms), -1)
        keys[:flat.shape[1], lo:lo + len(forms)] = flat.T
        lo += len(forms)
    return np.lexsort(keys[::-1])


class SubgroupList(Sequence):
    """Subgroups of one enumeration, sorted by gens, built on access.

    batches holds (positions, forms) pairs: forms [F, s, n] are Howell
    forms sharing one pivot pattern and positions[f] is the sorted index
    of form f.  Indexing, slicing and iteration make a Subgroup only for
    the entries they return.
    """

    def __init__(self, modulus, n, batches):
        self.modulus, self.n = modulus, n
        self._starts = np.cumsum([0] + [len(f) for f in batches]).tolist()
        self._order = _lex_order(batches)
        positions = np.empty_like(self._order)
        positions[self._order] = np.arange(len(self._order))
        self.batches = tuple(
            (positions[a:b], forms)
            for a, b, forms in zip(self._starts, self._starts[1:], batches)
        )

    def __len__(self):
        return len(self._order)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        u = int(self._order[i])
        b = bisect_right(self._starts, u) - 1
        gens = self.batches[b][1][u - self._starts[b]].tolist()
        return Subgroup(self.modulus, self.n, tuple(map(tuple, gens)))


def enumerate_subgroups(group, target_order, form=None):
    """Every subgroup of (Z_{p^k})^N of exactly the given order.

    Returned as a SubgroupList of Subgroups with canonical generators,
    sorted by gens, no duplicates.  With form = (signs, b), only those
    isotropic for sum_i signs_i u_i w_i mod b (see _howell_forms).
    """
    if target_order < 1:
        raise HypothesisViolation(f"target order {target_order} is not positive")
    if isinstance(group, FiniteAbelianGroup):
        factors = group.factors
    else:
        factors = tuple(group)
    if not factors:
        if target_order == 1:
            return SubgroupList(1, 0, [np.zeros((1, 0, 0), dtype=np.int8)])
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
    # divide out the known p rather than factor the order
    t, rest = 0, target_order
    while rest % p == 0:
        rest //= p
        t += 1
    if rest != 1:
        raise HypothesisViolation(
            f"target order {target_order} is not a power of {p}"
        )
    if p ** t > q ** n:
        raise HypothesisViolation("target order exceeds the group order")
    return SubgroupList(q, n, _howell_forms(p, k, n, t, form))

"""Smith normal form over Z with left-transform tracking.

Pure Python integers throughout, so there is no overflow to worry
about.  Pivots are chosen by smallest nonzero absolute value (with
row-major tie breaking), which keeps intermediate entries small and
makes the reduction deterministic.
"""

from __future__ import annotations

from math import gcd


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class _Tracker:
    """Row operations on A mirrored onto U and U^{-1}.

    Maintains A_cur = U @ A_orig @ (untracked column ops), so Uinv
    carries cokernel coordinates back to the presentation basis.
    """

    def __init__(self, m):
        self.U = _identity(m)
        self.Uinv = _identity(m)

    def swap(self, a, i, k):
        a[i], a[k] = a[k], a[i]
        self.U[i], self.U[k] = self.U[k], self.U[i]
        for row in self.Uinv:
            row[i], row[k] = row[k], row[i]

    def negate(self, a, i):
        a[i] = [-v for v in a[i]]
        self.U[i] = [-v for v in self.U[i]]
        for row in self.Uinv:
            row[i] = -row[i]

    def addmul(self, a, i, k, c):
        # R_i += c * R_k  (hence column k of Uinv loses c * column i)
        if c == 0:
            return
        a[i] = [x + c * y for x, y in zip(a[i], a[k])]
        self.U[i] = [x + c * y for x, y in zip(self.U[i], self.U[k])]
        for row in self.Uinv:
            row[k] -= c * row[i]


def _col_swap(a, j, k):
    for row in a:
        row[j], row[k] = row[k], row[j]


def _col_addmul(a, j, k, c):
    # C_j += c * C_k
    if c == 0:
        return
    for row in a:
        row[j] += c * row[k]


def _rounded_quotient(a, b):
    # b > 0; quotient minimizing the remainder magnitude
    q, r = divmod(a, b)
    if 2 * r > b:
        q += 1
    return q


def _find_pivot(a, t, m, n):
    best = None
    for i in range(t, m):
        row = a[i]
        for j in range(t, n):
            v = row[j]
            if v:
                av = abs(v)
                if best is None or av < best[0]:
                    best = (av, i, j)
                    if av == 1:
                        return best
    return best


def smith_normal_form(rows):
    """Return (diag, U, Uinv) with U @ A @ W = diag(d_1..d_r, 0..).

    Only the left transform is tracked; the column transform is
    applied but discarded.  d_i >= 0 and d_i | d_{i+1}.  U and Uinv
    are unimodular with U @ Uinv = I, so for a presentation matrix A
    the class of z in Z^m / A Z^m has coordinates (U @ z) mod diag.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    assert all(len(r) == n for r in a)
    assert all(isinstance(v, int) for r in a for v in r)
    tr = _Tracker(m)

    rank_limit = min(m, n)
    t = 0
    while t < rank_limit:
        found = _find_pivot(a, t, m, n)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            tr.swap(a, t, pi)
        if pj != t:
            _col_swap(a, t, pj)
        if a[t][t] < 0:
            tr.negate(a, t)
        while True:
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    tr.addmul(a, i, t, -_rounded_quotient(a[i][t], pivot))
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    _col_addmul(a, j, t, -_rounded_quotient(a[t][j], pivot))
                    if a[t][j]:
                        dirty = True
            if not dirty:
                break
            # a smaller remainder appeared somewhere in row/col t;
            # promote the smallest entry and sweep again
            found = _find_pivot(a, t, m, n)
            _, pi, pj = found
            if pi != t:
                tr.swap(a, t, pi)
            if pj != t:
                _col_swap(a, t, pj)
            if a[t][t] < 0:
                tr.negate(a, t)
        t += 1

    rank = t
    diag = [a[i][i] for i in range(rank_limit)]
    assert all(d == 0 for d in diag[rank:])

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if dj % di == 0:
                continue
            changed = True
            g = gcd(di, dj)
            lcm = di // g * dj
            # mix the two diagonal positions and re-split as (g, lcm)
            tr.addmul(a, i, i + 1, 1)  # row_i now has (di, dj)
            x, y = _bezout(di, dj)
            assert x * di + y * dj == g
            _apply_col_pair(a, i, i + 1, x, y, -(dj // g), di // g)
            tr.addmul(a, i + 1, i, -(y * dj // g))
            assert a[i][i] == g and a[i + 1][i + 1] == lcm
            assert a[i][i + 1] == 0 and a[i + 1][i] == 0
    diag = [abs(a[i][i]) for i in range(rank_limit)]
    return diag, tr.U, tr.Uinv


def _bezout(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


def _apply_col_pair(a, i, j, m00, m10, m01, m11):
    # (C_i, C_j) <- (m00 C_i + m10 C_j, m01 C_i + m11 C_j); det must be 1
    assert m00 * m11 - m01 * m10 == 1
    for row in a:
        ci, cj = row[i], row[j]
        row[i] = m00 * ci + m10 * cj
        row[j] = m01 * ci + m11 * cj


def is_unimodular(rows):
    """True when the square integer matrix has determinant +-1."""
    n = len(rows)
    if n == 0:
        return True
    if len(rows[0]) != n:
        return False
    diag, _, _ = smith_normal_form(rows)
    return len(diag) == n and all(d == 1 for d in diag)

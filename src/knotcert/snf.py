"""Smith normal form over Z with both transforms tracked.

Pure Python integers throughout, so there is no overflow to worry
about.  Pivots are chosen by smallest nonzero absolute value (with
row-major tie breaking), which keeps intermediate entries small and
makes the reduction deterministic.
"""

from __future__ import annotations


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class _Tracker:
    """Row operations on A mirrored onto U, column operations onto W.

    Maintains A_cur = U @ A_orig @ W.
    """

    def __init__(self, m, n):
        self.U = _identity(m)
        self.W = _identity(n)

    def swap(self, a, i, k):
        a[i], a[k] = a[k], a[i]
        self.U[i], self.U[k] = self.U[k], self.U[i]

    def negate(self, a, i):
        a[i] = [-v for v in a[i]]
        self.U[i] = [-v for v in self.U[i]]

    def addmul(self, a, i, k, c):
        # R_i += c * R_k
        a[i] = [x + c * y for x, y in zip(a[i], a[k])]
        self.U[i] = [x + c * y for x, y in zip(self.U[i], self.U[k])]

    def col_swap(self, a, j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in self.W:
            row[j], row[k] = row[k], row[j]

    def col_addmul(self, a, j, k, c):
        # C_j += c * C_k
        for row in a:
            row[j] += c * row[k]
        for row in self.W:
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


def _indivisible_row(a, t, m, n):
    # a row below t with an entry right of t that a[t][t] does not divide
    pivot = a[t][t]
    if pivot == 1:
        return None
    for i in range(t + 1, m):
        row = a[i]
        if any(row[j] % pivot for j in range(t + 1, n)):
            return i
    return None


def smith_normal_form(rows):
    """Return (diag, U, W) with U @ A @ W = diag(d_1..d_r, 0..).

    d_i >= 0 and d_i | d_{i+1}; U and W are unimodular.  For a
    presentation matrix A the class of z in Z^m / A Z^m has coordinates
    (U @ z) mod diag, and U^{-1} = A @ W @ diag^{-1} on the columns
    with d_i != 0.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    assert all(len(r) == n for r in a)
    assert all(isinstance(v, int) for r in a for v in r)
    tr = _Tracker(m, n)

    rank_limit = min(m, n)
    t = 0
    while t < rank_limit:
        found = _find_pivot(a, t, m, n)
        if found is None:
            break
        while True:
            _, pi, pj = found
            if pi != t:
                tr.swap(a, t, pi)
            if pj != t:
                tr.col_swap(a, t, pj)
            if a[t][t] < 0:
                tr.negate(a, t)
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    tr.addmul(a, i, t, -_rounded_quotient(a[i][t], pivot))
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    tr.col_addmul(a, j, t, -_rounded_quotient(a[t][j], pivot))
                    if a[t][j]:
                        dirty = True
            if not dirty:
                # divisibility chain: a pivot must divide the whole
                # remaining block; bring an offending row into row t,
                # whose sweep then leaves a smaller remainder
                i = _indivisible_row(a, t, m, n)
                if i is None:
                    break
                tr.addmul(a, t, i, 1)
            # a smaller remainder appeared somewhere in row/col t;
            # promote the smallest entry and sweep again
            found = _find_pivot(a, t, m, n)
        t += 1

    diag = [a[i][i] for i in range(rank_limit)]
    assert all(d == 0 for d in diag[t:])
    return diag, tr.U, tr.W

"""Smith normal form over Z, reducing one matrix that carries both transforms.

Pure Python integers throughout, so there is no overflow to worry
about.  Pivots are chosen by smallest nonzero absolute value (with
row-major tie breaking), which keeps intermediate entries small and
makes the reduction deterministic.
"""

from __future__ import annotations


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

    The reduction works on one list of rows: A's m rows, each followed
    by its row of U, then W's n rows.  A row operation on the first m
    rows moves U with A, and a column operation on the first n columns
    moves W with A, so the top-left m x n block stays U @ A @ W
    throughout.  Pivots are only sought in that block.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    assert all(len(r) == n for r in a)
    assert all(isinstance(v, int) for r in a for v in r)
    for i, row in enumerate(a):
        row += [0] * m
        row[n + i] = 1
    for j in range(n):
        row = [0] * n
        row[j] = 1
        a.append(row)

    rank_limit = min(m, n)
    t = 0
    while t < rank_limit:
        found = _find_pivot(a, t, m, n)
        if found is None:
            break
        while True:
            _, pi, pj = found
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            if a[t][t] < 0:
                a[t] = [-v for v in a[t]]
            pivot_row = a[t]
            pivot = pivot_row[t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    c = _rounded_quotient(a[i][t], pivot)
                    a[i] = [x - c * y for x, y in zip(a[i], pivot_row)]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if pivot_row[j]:
                    c = _rounded_quotient(pivot_row[j], pivot)
                    for row in a:
                        row[j] -= c * row[t]
                    if pivot_row[j]:
                        dirty = True
            if not dirty:
                # divisibility chain: a pivot must divide the whole
                # remaining block; bring an offending row into row t,
                # whose sweep then leaves a smaller remainder
                i = _indivisible_row(a, t, m, n)
                if i is None:
                    break
                a[t] = [x + y for x, y in zip(pivot_row, a[i])]
            # a smaller remainder appeared somewhere in row/col t;
            # promote the smallest entry and sweep again
            found = _find_pivot(a, t, m, n)
        t += 1

    diag = [a[i][i] for i in range(rank_limit)]
    assert all(d == 0 for d in diag[t:])
    return diag, [row[n:] for row in a[:m]], a[m:]

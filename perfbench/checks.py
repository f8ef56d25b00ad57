"""Reference computations that check knotcert's outputs from outside.

Nothing here imports knotcert.  Every expected value is derived again
from closed forms (torus-knot signatures, Gaussian binomials, the
Birkhoff subgroup count), from brute force (subgroup spans), or from a
scalar replay of the witness search, never from a stored copy of the
program's output.  Each check returns a list of problems; an empty list
means the operation's output is correct.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm


# ---------------------------------------------------------------------------
# closed-form signatures

def torus_signature(n, x):
    """sigma_x of the right-handed torus knot T(2, n) at rational x.

    Jumps sit at (2c+1)/(2n) in (0, 1/2); the value drops by 2 across
    each jump and takes the average at the jump itself.
    """
    y = Fraction(x) % 1
    if y == 0:
        return 0
    y = min(y, 1 - y)
    below = 0
    at = 0
    for c in range((n - 1) // 2):
        jump = Fraction(2 * c + 1, 2 * n)
        if jump < y:
            below += 1
        elif jump == y:
            at = 1
    return -(2 * below + at)


def torus_jumps(n):
    return [Fraction(2 * c + 1, 2 * n) for c in range((n - 1) // 2)]


def member_signature(member, x):
    """Signature of m * (#_i s_i T(2, n_i)); s_i = -1 is the mirror image."""
    mult, components = member
    return mult * sum(sign * torus_signature(n, x) for sign, n in components)


# ---------------------------------------------------------------------------
# subgroup counts

def gaussian_binomial(n, k, p):
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _conjugate(part, length):
    return [sum(1 for x in part if x >= i) for i in range(1, length + 1)]


def _subgroups_of_type(mu, nu, p):
    """Birkhoff's count of subgroups of type nu in an abelian p-group of type mu."""
    width = max(mu) if mu else 0
    mc = _conjugate(mu, width)
    nc = _conjugate(nu, width) + [0]
    total = 1
    for i in range(width):
        a, b, c = mc[i], nc[i], nc[i + 1]
        total *= p ** (c * (a - b)) * gaussian_binomial(a - c, b - c, p)
    return total


def _partitions_in_box(total, parts, largest):
    """Partitions of total into at most `parts` parts, each <= largest."""
    if total == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions_in_box(total - first, parts - 1, first):
            yield (first,) + rest


def subgroup_count(p, k, n, m):
    """Number of subgroups of order p^m in (Z_{p^k})^n (Birkhoff, Delsarte)."""
    mu = (k,) * n
    return sum(_subgroups_of_type(mu, nu, p)
               for nu in _partitions_in_box(m, n, k))


@lru_cache(maxsize=None)
def span(gens, q):
    """All Z_q-combinations of the generator rows, by brute force."""
    n = len(gens[0]) if gens else 0
    out = set()
    for coeffs in product(range(q), repeat=len(gens)):
        out.add(tuple(
            sum(c * row[j] for c, row in zip(coeffs, gens)) % q
            for j in range(n)
        ))
    return frozenset(out)


@lru_cache(maxsize=None)
def rref_subspaces(p, n, t):
    """Every t-dimensional subspace of F_p^n as its reduced echelon rows, sorted."""
    out = []
    for pivots in combinations(range(n), t):
        slots = [(i, j) for i, pc in enumerate(pivots)
                 for j in range(pc + 1, n) if j not in pivots]
        for values in product(range(p), repeat=len(slots)):
            rows = [[0] * n for _ in range(t)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), v in zip(slots, values):
                rows[i][j] = v
            out.append(tuple(tuple(r) for r in rows))
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# certificates

def signed_combinations(count, budget, cap):
    """Coefficient vectors with 1 <= sum|c| <= budget and each side <= cap."""
    out = set()
    for c in product(range(-budget, budget + 1), repeat=count):
        if not 1 <= sum(abs(x) for x in c) <= budget:
            continue
        if cap is not None and (sum(x for x in c if x > 0) > cap
                                or sum(-x for x in c if x < 0) > cap):
            continue
        out.add(c)
    return out


def _summands(coeffs, members):
    """Signed summands: positive side first, then the negative side."""
    pos, neg = [], []
    for c, member in zip(coeffs, members):
        (pos if c > 0 else neg).extend([member] * abs(c))
    return [(1, m) for m in pos] + [(-1, m) for m in neg]


def _value_table(summands, v1, q):
    """Signed CG value of each summand at character coefficient c (zero profile)."""
    table = []
    for sign, member in summands:
        row = [Fraction(0)]
        for c in range(1, q):
            row.append(sign * 2 * member_signature(member, Fraction(c * v1, q)))
        table.append(row)
    return table


def _witness_text(gens, chi, value):
    rows = ",".join("[" + ",".join(map(str, r)) + "]" for r in gens)
    return ('{"chi":[' + ",".join(map(str, chi)) + '],"subgroup":[' + rows
            + '],"value":"' + str(value) + '"}')


def replay_digest(p, total, table):
    """sha256 and size of the witness family, rebuilt by a scalar search.

    For each subspace of order p^(total/2), in sorted echelon order, the
    witness is the first member in coefficient-grid order whose signed
    value sum is nonzero.  Returns (digest, count), or (None, index) when
    some subspace has no witness.
    """
    subs = rref_subspaces(p, total, total // 2)
    grid = list(product(range(p), repeat=total // 2))
    den = lcm(*(v.denominator for row in table for v in row))
    scaled = [[int(v * den) for v in row] for row in table]
    cols = range(total)
    sha = hashlib.sha256()
    sha.update(b"[")
    for idx, gens in enumerate(subs):
        for coeffs in grid:
            vec = [sum(c * row[j] for c, row in zip(coeffs, gens)) % p
                   for j in cols]
            value = sum(scaled[a][vec[a]] for a in cols)
            if value:
                break
        else:
            return None, idx
        if idx:
            sha.update(b",")
        sha.update(_witness_text(gens, vec, Fraction(value, den)).encode())
    sha.update(b"]")
    return sha.hexdigest(), len(subs)


def check_certificate(job, cert, verify_result):
    """Problems with one certify round trip; job is the benchmark's input."""
    problems = []
    if verify_result != {"ok": True, "problems": []}:
        problems.append(f"verify_certificate returned {verify_result}")
    a, b = job["pattern"]
    q = abs(4 * a * b - 1)
    pat = cert["pattern"]
    if pat["factors"] != [q]:
        problems.append(f"cover factors {pat['factors']}, expected [{q}]")
        return problems
    p, k = job["p"], job["k"]
    if (cert["prime"], cert["exponent"]) != (p, k) or p ** k != q:
        problems.append(f"p, k = {cert['prime']}, {cert['exponent']}")
        return problems
    v1 = pat["v1_class"][0]
    # the meridian's self-linking is -(2b)/(4ab-1) mod 1 on the Hopf-link
    # surgery presentation [[2a, 1], [1, 2b]]
    lam = Fraction(pat["linking_matrix"][0][0])
    if (lam * v1 * v1 - Fraction(-2 * b, 4 * a * b - 1)) % 1:
        problems.append(f"linking form {lam} at v1 = {v1} is not -2b/(4ab-1)")
    members = job["members"]
    if cert["selection"]["indices"] != list(range(len(members))):
        problems.append(f"selection {cert['selection']['indices']}")
        return problems
    combos = cert.get("combos", [])
    expected = signed_combinations(len(members), job["budget"], job["cap"])
    got = [tuple(c["coefficients"]) for c in combos]
    if len(got) != len(expected) or set(got) != expected:
        problems.append(f"{len(got)} combos, expected {len(expected)}")
    replayed = False
    for combo in combos:
        coeffs = tuple(combo["coefficients"])
        total = sum(abs(c) for c in coeffs)
        if combo["reason"] != ("parity" if (k * total) % 2 else "witnessed"):
            problems.append(f"combo {coeffs}: reason {combo['reason']}")
            continue
        if combo["reason"] == "parity":
            if combo["subgroup_count"] or combo.get("witnesses"):
                problems.append(f"combo {coeffs}: parity with subgroups")
            continue
        count = subgroup_count(p, k, total, k * total // 2)
        if combo["subgroup_count"] != count:
            problems.append(f"combo {coeffs}: subgroup_count "
                            f"{combo['subgroup_count']}, expected {count}")
            continue
        summands = _summands(coeffs, members)
        table = _value_table(summands, v1, q)
        if "witnesses" in combo:
            problems.extend(_check_inline(coeffs, combo["witnesses"], table,
                                          q, p ** (k * total // 2), count))
        elif combo.get("witness_count") != count:
            problems.append(f"combo {coeffs}: witness_count "
                            f"{combo.get('witness_count')}, expected {count}")
        elif not replayed and k == 1:
            # the scalar replay enumerates subspaces of F_p^total; no
            # workload commits a k >= 2 family by digest
            replayed = True
            digest, n = replay_digest(p, total, table)
            if digest != combo["witness_digest"]:
                problems.append(f"combo {coeffs}: digest does not replay "
                                f"({n} subgroups)")
    return problems


def _check_inline(coeffs, witnesses, table, q, order, count):
    problems = []
    spans = set()
    for w in witnesses:
        chi = tuple(w["chi"])
        gens = tuple(tuple(r) for r in w["subgroup"])
        value = sum(table[a][c % q] for a, c in enumerate(chi))
        if Fraction(w["value"]) != value or value == 0:
            problems.append(f"combo {coeffs}: witness {chi} has value "
                            f"{w['value']}, closed form gives {value}")
        members = span(gens, q)
        if len(members) != order or chi not in members:
            problems.append(f"combo {coeffs}: witness {chi} not in a "
                            f"subgroup of order {order}")
        spans.add(members)
    if len(spans) != count or len(witnesses) != count:
        problems.append(f"combo {coeffs}: {len(spans)} distinct subgroups "
                        f"witnessed, expected {count}")
    return problems


# ---------------------------------------------------------------------------
# dense Seifert matrices

def check_dense(job, out):
    """Problems with the invariants of one conjugated torus(2, n) matrix."""
    n = job["n"]
    problems = []
    if out["alexander"] != [(-1) ** i for i in range(n)]:
        problems.append(f"Alexander polynomial {out['alexander']}")
    jumps = torus_jumps(n)
    if [Fraction(j) for j in out["jumps"]] != jumps:
        problems.append(f"jumps {out['jumps']}")
    if out["interval_values"] != [-2 * i for i in range(len(jumps) + 1)]:
        problems.append(f"interval values {out['interval_values']}")
    if out["jump_values"] != [-(2 * i + 1) for i in range(len(jumps))]:
        problems.append(f"jump values {out['jump_values']}")
    for x, got in zip(job["points"], out["levine_tristram"]):
        want = torus_signature(n, Fraction(x))
        if got != want:
            problems.append(f"sigma at {x} is {got}, closed form {want}")
    if len(out["levine_tristram"]) != len(job["points"]):
        problems.append("missing levine_tristram values")
    if out["homology"] != [n]:
        problems.append(f"H1 {out['homology']}, expected Z_{n}")
    return problems

"""Independent oracles the test suite checks the library against.

Every function here recomputes an invariant from first principles with
a different algorithm (floating eigenvalues, brute-force closure,
sympy), sharing no code with the package internals.  Oracle values are
allowed to be slow; they are the ground truth the fast exact code must
reproduce.
"""

from fractions import Fraction
from itertools import product

import mpmath as mp
import numpy as np
import sympy
from sympy.matrices.normalforms import invariant_factors as _sympy_inv
from sympy.polys.matrices import DomainMatrix


# ---------------------------------------------------------------------------
# signature oracle: plain floating eigenvalue counts with escalation

def float_signature(rows, x, _dps=40):
    """Signature of (1-w)V + (1-conj w)V^T by floating eigenvalues.

    numpy doubles first; when some eigenvalue is too close to 0 to call,
    escalate to mpmath at increasing precision.  Eigenvalues whose
    magnitude stays below 10^(-dps/2) at high precision are counted as
    genuine zeros (the matrix is algebraic, so true nonzero eigenvalues
    stop shrinking).
    """
    n = len(rows)
    if n == 0 or Fraction(x) % 1 == 0:
        return 0
    x = Fraction(x) % 1
    v = np.array(rows, dtype=np.float64)
    w = np.exp(2j * np.pi * float(x))
    a = (1 - w) * v + (1 - np.conj(w)) * v.T
    eig = np.linalg.eigvalsh(a)
    scale = max(1.0, float(np.max(np.abs(eig))))
    if np.min(np.abs(eig)) > 1e-8 * scale:
        return int(np.sum(eig > 0) - np.sum(eig < 0))
    return _mp_signature(rows, x, _dps)


def _mp_signature(rows, x, dps):
    assert dps <= 700, "oracle escalation exhausted"
    n = len(rows)
    with mp.workdps(dps):
        w = mp.e ** (2j * mp.pi * mp.mpf(x.numerator) / x.denominator)
        a = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                a[i, j] = (1 - w) * rows[i][j] + (1 - mp.conj(w)) * rows[j][i]
        eig = mp.eighe(a, eigvals_only=True)
        zero_tol = mp.mpf(10) ** (-dps // 2)
        scale = max(mp.mpf(1), max(abs(e) for e in eig))
        sig = 0
        for e in eig:
            if abs(e) < zero_tol:
                continue
            if abs(e) < 1e-10 * scale:
                # ambiguous band: not provably zero, not clearly signed
                return _mp_signature(rows, x, 2 * dps)
            sig += 1 if e > 0 else -1
        return sig


# ---------------------------------------------------------------------------
# subgroup oracle: closure-based enumeration of the full subgroup lattice

def _closure(gens, factors):
    zero = (0,) * len(factors)
    elems = {zero}
    frontier = list(gens)
    elems.update(frontier)
    while frontier:
        g = frontier.pop()
        new = []
        for h in list(elems):
            s = tuple((a + b) % f for a, b, f in zip(g, h, factors))
            if s not in elems:
                elems.add(s)
                new.append(s)
        frontier.extend(new)
    return frozenset(elems)


def _extend(sub, g, factors):
    """<sub, g> for an abelian group: the union of cosets sub + j*g."""
    out = set(sub)
    step = g
    zero = (0,) * len(factors)
    while step != zero:
        out.update(
            tuple((a + b) % f for a, b, f in zip(h, step, factors))
            for h in sub
        )
        step = tuple((a + b) % f for a, b, f in zip(step, g, factors))
    return frozenset(out)


def brute_force_subgroups(factors, order=None):
    """Every subgroup of Z_{f1} x ... x Z_{fr} as a frozenset of tuples.

    Breadth-first closure: grow each known subgroup by one new element
    at a time.  Complete because any subgroup is reached by adding its
    generators one by one.  Only sane for ambient order <= a few hundred.
    """
    factors = tuple(factors)
    ambient = list(product(*[range(f) for f in factors]))
    zero_sub = frozenset({(0,) * len(factors)})
    seen = {zero_sub}
    frontier = [zero_sub]
    while frontier:
        s = frontier.pop()
        for g in ambient:
            if g not in s:
                t = _extend(s, g, factors)
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    if order is None:
        return seen
    return {s for s in seen if len(s) == order}


# ---------------------------------------------------------------------------
# sympy cross-checks

def sympy_invariant_factors(rows):
    """Nontrivial invariant factors of an integer matrix via sympy."""
    m = sympy.Matrix([list(r) for r in rows])
    inv = _sympy_inv(m, domain=sympy.ZZ)
    return tuple(int(abs(d)) for d in inv if d != 0 and abs(d) != 1)


def sympy_alexander_coeffs(rows):
    """Normalized Alexander polynomial coefficients via symbolic det.

    det(V - t V^T), divided by the largest power of t, sign-fixed so the
    constant term is positive.  Returns the coefficient tuple in
    ascending degree; () encodes the constant 1 of the unknot.
    """
    n = len(rows)
    t = sympy.symbols("t")
    if n == 0:
        return (1,)
    m = sympy.Matrix(
        n, n, lambda i, j: rows[i][j] - t * rows[j][i]
    )
    det = sympy.expand(m.det(method="berkowitz"))
    poly = sympy.Poly(det, t)
    coeffs = poly.all_coeffs()[::-1]  # ascending
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    assert coeffs, "Alexander polynomial of a knot is nonzero"
    if coeffs[0] < 0:
        coeffs = [-c for c in coeffs]
    return tuple(int(c) for c in coeffs)


# ---------------------------------------------------------------------------
# witness dict oracle: a certificate's witness built field by field

def witness_json(gens, coeffs, value):
    """The certificate dict of one witness, from its parts.

    value is a Fraction or an interval with Fraction ends lo and hi;
    the package writes witnesses as text and never builds this dict.
    """
    if hasattr(value, "lo"):
        value = {"lo": str(value.lo), "hi": str(value.hi)}
    else:
        value = str(Fraction(value))
    return {
        "subgroup": [list(row) for row in gens],
        "chi": list(coeffs),
        "value": value,
    }


# ---------------------------------------------------------------------------
# isotropy oracle: the linking form in Fraction arithmetic, pair by pair

def self_annihilating_mask(inst, subs):
    """Which subgroups pair to 0 with themselves under the linking form.

    Every pair of generator rows u, w is paired as
    sum_i sign_i * mu * u_i * w_i mod 1 over Fractions, where mu is the
    self-linking of the p-primary generator of the pattern cover.
    """
    q = inst.p ** inst.k
    n_cover = inst.pattern.group.order
    lam = inst.pattern.linking_matrix[0][0]
    mu = (Fraction(n_cover // q) ** 2 * lam) % 1
    signs = [1] * inst.m + [-1] * inst.n_neg
    out = []
    for s in subs:
        ok = True
        for u in s.gens:
            for w in s.gens:
                pair = sum(
                    sg * mu * ui * wi for sg, ui, wi in zip(signs, u, w)
                ) % 1
                if pair != 0:
                    ok = False
                    break
            if not ok:
                break
        out.append(ok)
    return out


# ---------------------------------------------------------------------------
# nullity oracle: rank over sympy's own cyclotomic field

def sympy_cyclotomic_nullity(rows, j, d):
    """dim ker of V - conj(w) V^T over Q(w), w = exp(2 pi i j/d), by sympy."""
    zeta = sympy.exp(2 * sympy.pi * sympy.I / d)
    field = sympy.QQ.algebraic_field(zeta)
    conj = field.from_sympy(zeta) ** ((d - j) % d)
    n = len(rows)
    m = [
        [field(rows[r][c]) - field(rows[c][r]) * conj for c in range(n)]
        for r in range(n)
    ]
    return n - DomainMatrix(m, (n, n), field).rank()

"""First homology of the double branched cover, linking forms, characters.

H1 of the 2-fold cover branched over a knot with Seifert matrix V is
presented by the symmetric matrix V + V^T; its order |det(V + V^T)| is
odd.  The linking form on that group is

    lambda(x, y) = -x^T (V + V^T)^{-1} y   (mod 1),

computed exactly from the Smith normal form of V + V^T.  (The sign
makes the trefoil satisfy lambda(g, g) = 2/3 on a generator g, the
standard convention for the form presented by -(V+V^T)^{-1}.)

Characters into Q/Z are stored by their values on the fixed
invariant-factor generators; the embedding of a cyclic group Z_n into
Q/Z is always 1 -> 1/n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from ._frozen import frozen
from .errors import HypothesisViolation
from .knots import SeifertMatrix
from .polynomials import prime_powers
from .snf import smith_normal_form


@frozen
class FiniteAbelianGroup:
    """Z_{d1} x ... x Z_{dr} with d1 | d2 | ... | dr, all > 1."""

    factors: tuple

    def __post_init__(self):
        fs = tuple(int(d) for d in self.factors)
        object.__setattr__(self, "factors", fs)
        assert all(d > 1 for d in fs)
        assert all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))

    @property
    def order(self):
        n = 1
        for d in self.factors:
            n *= d
        return n

    @property
    def rank(self):
        return len(self.factors)

    @property
    def is_trivial(self):
        return not self.factors

    def zero(self):
        return (0,) * len(self.factors)

    def reduce(self, coords):
        if isinstance(coords, int):
            coords = (coords,)
        coords = tuple(int(c) for c in coords)
        if len(coords) != len(self.factors):
            raise HypothesisViolation(
                f"element needs {len(self.factors)} coordinates, got {len(coords)}"
            )
        return tuple(c % d for c, d in zip(coords, self.factors))

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.factors))

    def elements(self):
        return product(*(range(d) for d in self.factors))

    def generates(self, coords):
        """Does the cyclic subgroup of coords fill the whole group?"""
        coords = self.reduce(coords)
        if not self.factors:
            return True
        # the element's order must equal the group exponent, and the
        # group must itself be cyclic for a single generator to work
        if len(self.factors) > 1:
            return False
        return gcd(coords[0], self.factors[0]) == 1

    def describe(self):
        if not self.factors:
            return "trivial"
        return " x ".join(f"Z_{d}" for d in self.factors)


@frozen
class Character:
    """Homomorphism G -> Q/Z by values on invariant-factor generators."""

    values: tuple  # Fractions in [0, 1)

    def __post_init__(self):
        vals = tuple(Fraction(v) % 1 for v in self.values)
        object.__setattr__(self, "values", vals)
        # the hash frozen would compute, once: characters key the
        # obstruction caches and memos, and hashing Fractions is not free
        object.__setattr__(self, "_hash", hash((vals,)))

    def __hash__(self):
        return self._hash

    def evaluate(self, coords):
        assert len(coords) == len(self.values)
        return sum((c * v for c, v in zip(coords, self.values)), Fraction(0)) % 1

    @property
    def order(self):
        n = 1
        for v in self.values:
            d = v.denominator
            n = n * d // gcd(n, d)
        return n

    @property
    def is_zero(self):
        return all(v == 0 for v in self.values)

    def __neg__(self):
        return Character(tuple((-v) % 1 for v in self.values))

    def sort_key(self):
        return tuple((v.numerator, v.denominator) for v in self.values)


@frozen
class CoverPresentation:
    """Homology of the double branched cover with explicit coordinates."""

    group: FiniteAbelianGroup
    sym: tuple                 # V + V^T
    u_rows: tuple              # U's rows for the factors: coords(z) = (U z) mod factors
    generator_lifts: tuple     # integer vectors mapping onto the generators
    linking_matrix: tuple      # r x r Fractions mod 1 on the generators

    def coords(self, z):
        z = tuple(int(v) for v in z)
        assert len(z) == len(self.sym)
        return tuple(sum(r * v for r, v in zip(row, z)) % d
                     for row, d in zip(self.u_rows, self.group.factors))

    def linking(self, x, y):
        if self.group.is_trivial:
            raise HypothesisViolation("linking form needs a nontrivial group")
        x = self.group.reduce(x)
        y = self.group.reduce(y)
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        total += xi * yj * self.linking_matrix[i][j]
        return total % 1

    def character_from_element(self, z):
        """Duality G -> G^: the character lambda(z, -)."""
        z = self.group.reduce(z)
        return Character(tuple(self.linking(z, g) for g in _unit_coords(self.group)))


def _unit_coords(group):
    r = len(group.factors)
    return [tuple(1 if i == k else 0 for i in range(r)) for k in range(r)]


def _presentation(sym):
    """CoverPresentation of the group presented by a symmetric matrix.

    With U A W = D from the Smith form, U^{-1} = A W D^{-1}: generator
    i lifts to column p_i of A W over d_{p_i}, and since
    A^{-1} = W D^{-1} U the linking form on generators is
    lambda_ij = -(g_i . W[:, p_j]) / d_{p_j} mod 1.
    """
    n = len(sym)
    if n == 0:
        return CoverPresentation(FiniteAbelianGroup(()), (), (), (), ())
    diag, u_rows, w_rows = smith_normal_form(sym)
    assert all(d > 0 for d in diag), "V + V^T is nonsingular for genuine knots"
    det = 1
    for d in diag:
        det *= d
    assert det % 2 == 1, "double branched cover homology has odd order"
    positions = tuple(i for i, d in enumerate(diag) if d > 1)
    u_rows = tuple(tuple(u_rows[p]) for p in positions)
    group = FiniteAbelianGroup(tuple(diag[i] for i in positions))
    w_cols = [[row[p] for row in w_rows] for p in positions]
    lifts = []
    for p, w in zip(positions, w_cols):
        aw = [sum(x * y for x, y in zip(row, w)) for row in sym]
        assert all(v % diag[p] == 0 for v in aw)
        lifts.append(tuple(v // diag[p] for v in aw))
    linking = tuple(
        tuple(
            Fraction(-sum(x * y for x, y in zip(g, w)), diag[p]) % 1
            for p, w in zip(positions, w_cols)
        )
        for g in lifts
    )
    return CoverPresentation(group, sym, u_rows, tuple(lifts), linking)


@lru_cache(maxsize=64)
def cover_presentation(v):
    """Full double-branched-cover package for a Seifert matrix (cached).

    SeifertMatrix equality and hashing are those of its rows, so the
    cache is keyed on v.rows.
    """
    return _presentation(v.symmetrized())


def homology_from_seifert(v):
    """Invariant factors of H1 of the double branched cover."""
    assert isinstance(v, SeifertMatrix)
    return cover_presentation(v).group


def linking_form(v, x, y):
    """lambda(x, y) = -x^T (V+V^T)^{-1} y mod 1 on cover homology classes."""
    return cover_presentation(v).linking(x, y)


def characters_of_order(group, p, max_power=None):
    """All characters of the p-primary part with order dividing p^max_power.

    Returned sorted, zero character included; the list is closed under
    negation (chi and -chi always appear together).
    """
    if prime_powers(p) != ((p, 1),):
        raise HypothesisViolation(f"{p} is not prime")
    if group.order % p != 0:
        raise HypothesisViolation(
            f"{p} does not divide the group order {group.order}"
        )
    grids = []
    for d in group.factors:
        k = dict(prime_powers(d)).get(p, 0)
        if max_power is not None:
            k = min(k, max_power)
        q = p ** k
        grids.append([Fraction(c, q) for c in range(q)])
    chars = [Character(tuple(vals)) for vals in product(*grids)]
    chars.sort(key=Character.sort_key)
    return chars


@frozen
class PatternCover:
    """Cover data of a satellite pattern: H1(M2(P(U))) and the axis curves."""

    group: FiniteAbelianGroup
    v1_class: tuple
    v2_class: tuple
    winding_number: int
    linking_matrix: tuple

    def __post_init__(self):
        object.__setattr__(self, "v1_class", self.group.reduce(self.v1_class))
        object.__setattr__(self, "v2_class", self.group.reduce(self.v2_class))
        if self.winding_number % 2 != 0:
            raise HypothesisViolation(
                "pattern covers here require an even winding number"
            )


def whitehead_cover(a, b):
    """Cover data for the twisted-Whitehead-style pattern P(a, b).

    The double cover of the pattern's ambient solid torus is surgery on
    a Hopf link with coefficients 2a and 2b, so H1 is the cokernel of
    [[2a, 1], [1, 2b]]: cyclic of order |4ab - 1|, generated by the
    meridian m1, and both axis curves are parallel to m1.  The pattern
    has winding number 0.
    """
    if a * b == 0:
        raise HypothesisViolation(
            "P(a,0) and P(0,b) are excluded: the pattern is trivial or its "
            "cover homology is trivial, so the machinery has nothing to act on"
        )
    pres = _presentation(((2 * a, 1), (1, 2 * b)))
    assert pres.group.factors == (abs(4 * a * b - 1),)
    m1 = pres.coords((1, 0))  # the class of m1 = e1
    assert pres.group.generates(m1), "m1 generates the cover homology"
    return PatternCover(pres.group, m1, m1, 0, pres.linking_matrix)

"""Knot expressions, Seifert matrices, and Alexander polynomials.

A knot is described either by an explicit Seifert matrix or by an
expression built from torus(2, n), mirror images, connected sums and
integer multiples.  The expression grammar (used by the CLI) is

    expr   := term { '#' term }          connected sum, left assoc
    term   := [ INT '*' ] factor         integer multiple
    factor := 'unknot' | 'U'
            | 'torus' '(' INT ',' INT ')'
            | 'mirror' '(' expr ')'
            | '[' '[' INT,... ']' , ... ']'   explicit Seifert matrix
            | '(' expr ')'

so e.g.  mirror(3*torus(2,5) # torus(2,3)).
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache

from ._frozen import frozen
from .errors import ExpressionError
from .polynomials import IntPoly, det_int, det_poly


@frozen
class SeifertMatrix:
    """Square integer matrix V with det(V - V^T) = +1.

    The difference V - V^T is skew, so its determinant is a square and
    unimodularity is equivalent to det(V - V^T) = +1 exactly; it is
    checked on construction, except for the torus matrices and the
    matrices mirror and block_diagonal derive from checked ones.
    """

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ExpressionError("Seifert matrix must be square")
        if n % 2 != 0:
            raise ExpressionError("Seifert matrix must have even size")
        diff = [
            [rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)
        ]
        if det_int(diff) != 1:
            raise ExpressionError(
                "not a Seifert matrix: det(V - V^T) != 1"
            )

    @classmethod
    def _derived(cls, rows, blocks=None):
        """Matrix of int-tuple rows whose V - V^T is known unimodular.

        blocks, when given, are its diagonal blocks, already known.
        """
        v = object.__new__(cls)
        object.__setattr__(v, "rows", rows)
        if blocks is not None:
            # fills the cached_property, so the support is never scanned
            v.__dict__["_blocks"] = blocks
        return v

    @property
    def size(self):
        return len(self.rows)

    @property
    def genus(self):
        return len(self.rows) // 2

    def mirror(self):
        """Seifert matrix -V^T of the mirror image.

        -V^T - (-V^T)^T = V - V^T, so it needs no check of its own.  Its
        support is the transpose of V's, so its diagonal blocks are the
        mirrors of V's, in the same order: they are passed on when V's
        are already known, and left to be found on first use otherwise.
        """
        blocks = self.__dict__.get("_blocks")
        if blocks is not None:
            blocks = tuple(_mirror_rows(b) for b in blocks)
        return SeifertMatrix._derived(_mirror_rows(self.rows), blocks)

    def symmetrized(self):
        """V + V^T as plain nested tuples (branched-cover presentation)."""
        n = self.size
        return tuple(
            tuple(self.rows[i][j] + self.rows[j][i] for j in range(n))
            for i in range(n)
        )

    @classmethod
    def block_diagonal(cls, parts):
        """Orthogonal sum of the given matrices, built in one pass.

        Its V - V^T is block diagonal with determinant the product of
        the parts' determinants, 1, so it needs no check of its own.  No
        entry links two parts, so its diagonal blocks are the parts'
        blocks in order, each found on its part (once per distinct part)
        instead of by scanning the assembled matrix.
        """
        n = sum(part.size for part in parts)
        rows = []
        offset = 0
        for part in parts:
            left, right = (0,) * offset, (0,) * (n - offset - part.size)
            rows.extend(left + row + right for row in part.rows)
            offset += part.size
        blocks = tuple(b for part in parts for b in part.diagonal_blocks())
        return cls._derived(tuple(rows), blocks)

    def diagonal_blocks(self):
        """Partition of indices into connected components of the support.

        V is congruent to the orthogonal sum of the returned blocks, so
        signatures add and Alexander polynomials multiply over them.
        """
        return self._blocks

    @cached_property
    def _blocks(self):
        n = self.size
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n):
            for j in range(i + 1, n):
                if self.rows[i][j] or self.rows[j][i]:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[ri] = rj
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        blocks = []
        for idx in sorted(groups.values()):
            sub = tuple(
                tuple(self.rows[i][j] for j in idx) for i in idx
            )
            blocks.append(sub)
        return tuple(blocks)


def _mirror_rows(rows):
    """-V^T of a square matrix given as int-tuple rows."""
    return tuple(tuple(-x for x in col) for col in zip(*rows))


EMPTY_SEIFERT = SeifertMatrix(())


# ---------------------------------------------------------------------------
# expression tree

class KnotExpr:
    """Base class; concrete nodes below are frozen value classes (_frozen)."""

    def __str__(self):
        return expr_str(self)


@frozen
class Unknot(KnotExpr):
    pass


@frozen
class Torus(KnotExpr):
    strands: int
    n: int

    def __post_init__(self):
        if self.strands != 2:
            raise ExpressionError("only torus(2, n) knots are supported")
        if self.n < 3 or self.n % 2 == 0:
            raise ExpressionError("torus(2, n) needs odd n >= 3")


@frozen
class RawKnot(KnotExpr):
    matrix: SeifertMatrix


@frozen
class Mirror(KnotExpr):
    inner: KnotExpr


@frozen
class ConnectedSum(KnotExpr):
    left: KnotExpr
    right: KnotExpr


@frozen
class Multiple(KnotExpr):
    count: int
    inner: KnotExpr


def unknot():
    return Unknot()


def torus(strands, n):
    return Torus(strands, n)


def mirror(e):
    return Mirror(e)


def connected_sum(*exprs):
    assert exprs
    out = exprs[0]
    for e in exprs[1:]:
        out = ConnectedSum(out, e)
    return out


def multiple(count, e):
    return Multiple(count, e)


def raw(rows):
    return RawKnot(SeifertMatrix(tuple(tuple(r) for r in rows)))


def _torus_matrix(n):
    # (n-1) x (n-1), -1 diagonal, +1 superdiagonal: the standard genus
    # (n-1)/2 Seifert matrix of the right-handed (2, n) torus knot.
    size = n - 1
    rows = tuple(
        tuple(
            -1 if i == j else (1 if j == i + 1 else 0) for j in range(size)
        )
        for i in range(size)
    )
    # V - V^T has 1 above and -1 below the diagonal, of even size: det 1
    return SeifertMatrix._derived(rows)


@lru_cache(maxsize=64)
def evaluate(e):
    """Seifert matrix of an expression (right-handed torus convention)."""
    if isinstance(e, Unknot):
        return EMPTY_SEIFERT
    if isinstance(e, Torus):
        return _torus_matrix(e.n)
    if isinstance(e, RawKnot):
        return e.matrix
    if isinstance(e, Mirror):
        return evaluate(e.inner).mirror()
    if isinstance(e, ConnectedSum):
        return SeifertMatrix.block_diagonal(
            (evaluate(e.left), evaluate(e.right))
        )
    if isinstance(e, Multiple):
        if e.count == 0:
            return EMPTY_SEIFERT
        base = evaluate(e.inner)
        if e.count < 0:
            base = base.mirror()
        return SeifertMatrix.block_diagonal((base,) * abs(e.count))
    raise ExpressionError(f"unknown expression node {e!r}")


# ---------------------------------------------------------------------------
# Alexander polynomial

@lru_cache(maxsize=64)
def _alexander_of_block(block):
    n = len(block)
    # det(V - t V^T) per irreducible diagonal block
    mat = [
        [
            IntPoly((block[i][j], -block[j][i]))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return det_poly(mat)


def _normalize_alexander(p):
    assert not p.is_zero()
    e = 0
    while p.coeffs[e] == 0:
        e += 1
    p = p.shift_down(e)
    if p.coeffs[0] < 0:
        p = -p
    # symmetry of det(V - t V^T) forces a palindrome once centred
    assert p.is_palindromic(), p
    return p


def alexander_of_matrix(v):
    """Normalized det(V - t V^T): positive constant term, t | it not."""
    if v.size == 0:
        return IntPoly((1,))
    acc = IntPoly((1,))
    for block in v.diagonal_blocks():
        acc = acc * _alexander_of_block(block)
    return _normalize_alexander(acc)


def alexander_polynomial(e):
    """Alexander polynomial of a knot expression."""
    return alexander_of_matrix(evaluate(e))


# ---------------------------------------------------------------------------
# parser

_TOKEN = re.compile(r"\s*(-?\d+|[A-Za-z]+|[()\[\],#*])")


def _tokenize(text):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ExpressionError(
                    f"unexpected character {text[pos:].strip()[0]!r} in knot expression"
                )
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, source):
        self.toks = tokens
        self.i = 0
        self.source = source

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ExpressionError(f"unexpected end of expression: {self.source!r}")
        if expect is not None and tok != expect:
            raise ExpressionError(f"expected {expect!r}, found {tok!r}")
        self.i += 1
        return tok

    def int_token(self):
        tok = self.take()
        try:
            return int(tok)
        except ValueError:
            raise ExpressionError(f"expected an integer, found {tok!r}") from None

    def expr(self):
        node = self.term()
        while self.peek() == "#":
            self.take()
            node = ConnectedSum(node, self.term())
        return node

    def term(self):
        tok = self.peek()
        if tok is not None and re.fullmatch(r"-?\d+", tok):
            count = self.int_token()
            self.take("*")
            return Multiple(count, self.factor())
        return self.factor()

    def factor(self):
        tok = self.peek()
        if tok in ("unknot", "U"):
            self.take()
            return Unknot()
        if tok == "torus":
            self.take()
            self.take("(")
            strands = self.int_token()
            self.take(",")
            n = self.int_token()
            self.take(")")
            return Torus(strands, n)
        if tok == "mirror":
            self.take()
            self.take("(")
            node = self.expr()
            self.take(")")
            return Mirror(node)
        if tok == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if tok == "[":
            return RawKnot(SeifertMatrix(self.matrix()))
        raise ExpressionError(f"cannot parse knot expression at {tok!r}")

    def matrix(self):
        self.take("[")
        rows = [self.row()]
        while self.peek() == ",":
            self.take()
            rows.append(self.row())
        self.take("]")
        if len(set(len(r) for r in rows)) > 1:
            raise ExpressionError("matrix rows have unequal lengths")
        return tuple(rows)

    def row(self):
        self.take("[")
        vals = [self.int_token()]
        while self.peek() == ",":
            self.take()
            vals.append(self.int_token())
        self.take("]")
        return tuple(vals)


def parse_knot(text):
    """Parse the expression grammar; raises ExpressionError on bad input."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty knot expression")
    p = _Parser(tokens, text)
    try:
        node = p.expr()
    except RecursionError:
        raise ExpressionError("expression nests too deeply") from None
    if p.peek() is not None:
        raise ExpressionError(f"trailing input {p.peek()!r} in knot expression")
    return node


def expr_str(e):
    """Canonical string form; parse_knot(expr_str(e)) reproduces e."""
    if isinstance(e, Unknot):
        return "unknot"
    if isinstance(e, Torus):
        return f"torus({e.strands},{e.n})"
    if isinstance(e, RawKnot):
        return "[" + ",".join(
            "[" + ",".join(str(v) for v in row) + "]" for row in e.matrix.rows
        ) + "]"
    if isinstance(e, Mirror):
        return f"mirror({expr_str(e.inner)})"
    if isinstance(e, ConnectedSum):
        left = expr_str(e.left)
        right = expr_str(e.right)
        if isinstance(e.right, ConnectedSum):
            right = f"({right})"
        return f"{left} # {right}"
    if isinstance(e, Multiple):
        inner = expr_str(e.inner)
        if isinstance(e.inner, (ConnectedSum, Multiple)):
            inner = f"({inner})"
        return f"{e.count}*{inner}"
    raise ExpressionError(f"unknown expression node {e!r}")

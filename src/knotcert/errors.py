"""Error types shared across the package.

The CLI maps these onto exit codes: input/grammar problems exit 1,
violated theorem hypotheses exit 2, blown resource budgets exit 3.
"""


class KnotcertError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ExpressionError(KnotcertError):
    """Malformed knot expression, Seifert matrix, or circle point."""


class ProfileError(KnotcertError):
    """Malformed or inconsistent Casson-Gordon profile data."""


class HypothesisViolation(KnotcertError):
    """A hypothesis of the satellite independence theorem fails.

    Examples: pattern cover is trivial or not generated by v1, odd
    winding number, a family that does not satisfy the signature
    ordering chain.
    """


class EmptySelectionError(HypothesisViolation):
    """Subsequence selection produced no usable index."""


class CertificationInconclusive(HypothesisViolation):
    """Some candidate subgroup could not be witnessed; no certificate."""


class BudgetExceeded(KnotcertError):
    """An enumeration would exceed the configured resource budget."""


class UnsupportedKnotError(KnotcertError):
    """Knot falls outside the exactly-supported regime.

    Currently raised when the Alexander polynomial has unit-circle
    roots that are not roots of unity, so the jump locus of the
    signature step function would contain irrational points.
    """

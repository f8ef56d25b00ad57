"""Exact knot concordance computations: signatures, covers, certificates.

Levine-Tristram signatures with certified eigenvalue signs, double
branched cover homology and linking forms, Casson-Gordon obstruction
sums for satellite connected sums, and machine-checkable linear
independence certificates for satellite families.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    CertificationInconclusive,
    EmptySelectionError,
    ExpressionError,
    HypothesisViolation,
    KnotcertError,
    ProfileError,
    UnsupportedKnotError,
)
from .knots import (
    KnotExpr,
    SeifertMatrix,
    alexander_polynomial,
    connected_sum,
    evaluate,
    expr_str,
    mirror,
    multiple,
    parse_knot,
    raw,
    torus,
    unknot,
)
from .signatures import (
    CirclePoint,
    OrderingCheck,
    SignatureFunction,
    check_ordering_hypothesis,
    levine_tristram,
    satellite_signature_function,
    signature_function,
    signature_of_matrix,
)
from .covers import (
    Character,
    CoverPresentation,
    FiniteAbelianGroup,
    PatternCover,
    characters_of_order,
    cover_presentation,
    homology_from_seifert,
    linking_form,
    whitehead_cover,
)
from .subgroups import Subgroup, enumerate_subgroups, howell_form
from .obstruction import (
    CGProfile,
    ObstructionInstance,
    RatInterval,
    SelectionReport,
    SliceObstructionResult,
    check_slice_obstruction,
    obstruction_sum,
    satellite_cg_value,
    select_subsequence,
)
from .certify import (
    CONVENTIONS,
    IndependenceCertificate,
    certify_independence,
    verify_certificate,
)

__all__ = [
    "BudgetExceeded", "CertificationInconclusive", "EmptySelectionError",
    "ExpressionError", "HypothesisViolation", "KnotcertError",
    "ProfileError", "UnsupportedKnotError",
    "KnotExpr", "SeifertMatrix", "alexander_polynomial", "connected_sum",
    "evaluate", "expr_str", "mirror", "multiple", "parse_knot", "raw",
    "torus", "unknot",
    "CirclePoint", "OrderingCheck", "SignatureFunction",
    "check_ordering_hypothesis", "levine_tristram",
    "satellite_signature_function", "signature_function",
    "signature_of_matrix",
    "Character", "CoverPresentation", "FiniteAbelianGroup", "PatternCover",
    "characters_of_order", "cover_presentation", "homology_from_seifert",
    "linking_form", "whitehead_cover",
    "Subgroup", "enumerate_subgroups", "howell_form",
    "CGProfile", "ObstructionInstance", "RatInterval", "SelectionReport",
    "SliceObstructionResult", "check_slice_obstruction", "obstruction_sum",
    "satellite_cg_value", "select_subsequence",
    "CONVENTIONS", "IndependenceCertificate", "certify_independence",
    "verify_certificate",
    "__version__",
]

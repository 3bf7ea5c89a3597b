"""Explicit inverses of singular matrices completed by rank-k updates.

For an n-by-n matrix A of rank n - k, an update e @ D @ f* whose columns
complete the column spaces of A and A* (with D invertible k-by-k) makes
the sum invertible, and the inverse carries the structured form

    inv(A + e D f*) = G + x inv(D) y*

with (G, x, y) independent of D.  This package computes the factors by
an SVD rank split, from the inverse of the bordered matrix
[[A, e], [f*, 0]], or by an oblique-projection construction, verifies
the identity suite that characterizes them, evaluates the companion
determinant factorization, and ships a CLI over a JSON problem format.
"""

from .core import (
    IdentityTolerance,
    RankModifiedProblem,
    StructuredInverse,
    apply_inverse,
    assemble,
    default_rank_tol,
    reassemble_inverse,
    validate,
)
from .determinant import (
    det_inverse_via_lemma,
    det_via_lemma,
    logdet_inverse_via_lemma,
    logdet_via_lemma,
)
from .direct import (
    AnsatzParams,
    structured_inverse_direct,
    structured_inverse_general,
)
from .errors import (
    DeterminantOutOfRange,
    DimensionMismatch,
    DSingular,
    InnerMatrixSingular,
    InvalidSpec,
    NonFiniteInput,
    NumericalError,
    ParseError,
    PivotSingular,
    RankfillError,
    RankOfANotNMinusK,
    SpanDeficientE,
    SpanDeficientF,
    UsageError,
    ValidationError,
    WriteError,
)
from .identities import (
    check_identities,
    check_penrose,
    riedel_inverse,
)
from .instances import (
    GeneratorSpec,
    generate,
    haar_unitary,
    random_invertible,
)
from .io import read_problem_file, write_problem_file
from .svd import (
    CompactSvd,
    compact_svd,
    structured_inverse_from_factors,
    structured_inverse_svd,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzParams",
    "CompactSvd",
    "DeterminantOutOfRange",
    "DimensionMismatch",
    "DSingular",
    "GeneratorSpec",
    "IdentityTolerance",
    "InnerMatrixSingular",
    "InvalidSpec",
    "NonFiniteInput",
    "NumericalError",
    "ParseError",
    "PivotSingular",
    "RankfillError",
    "RankModifiedProblem",
    "RankOfANotNMinusK",
    "SpanDeficientE",
    "SpanDeficientF",
    "StructuredInverse",
    "UsageError",
    "ValidationError",
    "WriteError",
    "apply_inverse",
    "assemble",
    "check_identities",
    "check_penrose",
    "compact_svd",
    "default_rank_tol",
    "det_inverse_via_lemma",
    "det_via_lemma",
    "generate",
    "haar_unitary",
    "logdet_inverse_via_lemma",
    "logdet_via_lemma",
    "random_invertible",
    "read_problem_file",
    "reassemble_inverse",
    "riedel_inverse",
    "structured_inverse_direct",
    "structured_inverse_from_factors",
    "structured_inverse_general",
    "structured_inverse_svd",
    "validate",
    "write_problem_file",
]

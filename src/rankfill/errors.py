"""Exception hierarchy.

Every error carries a stable ``code`` string (used verbatim in CLI error
reports) and an ``exit_code`` matching the CLI contract: 2 for parse or
request errors, 3 for violated problem hypotheses, 4 for numerical
failures detected during construction.  Only errors the package raises
live here.
"""


class RankfillError(Exception):
    code = "Error"
    exit_code = 1


class ParseError(RankfillError):
    """A problem file could not be parsed against the RMP schema."""

    code = "ParseError"
    exit_code = 2


class WriteError(RankfillError):
    """An output file could not be opened or written."""

    code = "WriteError"
    exit_code = 2


class UsageError(RankfillError):
    """The command line does not parse: an unknown or missing argument,
    or an option value its type refuses."""

    code = "UsageError"
    exit_code = 2


class InvalidSpec(RankfillError):
    """Generator parameters violate their constraints."""

    code = "InvalidSpec"
    exit_code = 2


class ValidationError(RankfillError):
    """A hypothesis of the structured inversion does not hold for the input."""

    code = "ValidationError"
    exit_code = 3


class DimensionMismatch(ValidationError):
    code = "DimensionMismatch"


class NonFiniteInput(ValidationError):
    code = "NonFiniteInput"


class RankOfANotNMinusK(ValidationError):
    """A's numerical rank is not n - k.

    ``detected_rank`` reports the rank found at the decision tolerance.
    """

    code = "RankOfANotNMinusK"

    def __init__(self, message, detected_rank=None):
        super().__init__(message)
        self.detected_rank = detected_rank


class DSingular(ValidationError):
    code = "DSingular"


class SpanDeficientE(ValidationError):
    """Columns of e do not complete the column space of A."""

    code = "SpanDeficientE"


class SpanDeficientF(ValidationError):
    """Columns of f do not complete the column space of A*."""

    code = "SpanDeficientF"


class NumericalError(RankfillError):
    exit_code = 4


class PivotSingular(NumericalError):
    """A k-by-k pivot block (U_k* e, f* V_k, u* e, f* v or M) is numerically
    singular or rounding noise even though validation passed, or one of
    its operands has a non-finite entry."""

    code = "PivotSingular"


class InnerMatrixSingular(NumericalError):
    """The n-by-n matrix inverted by the SVD-free construction is singular."""

    code = "InnerMatrixSingular"


class DeterminantOutOfRange(NumericalError):
    """A plain determinant overflows the double range; its logarithm, from
    the ``logdet`` variants, is still finite."""

    code = "DeterminantOutOfRange"


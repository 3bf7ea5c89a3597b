"""Determinant of a rank-completed sum, without assembling the update.

Factoring the sum through its rank split gives

    det(A + e D f*) = det(A + e f*) * det(D)

even though A itself is singular, so the core D alone decides whether the
completed matrix is singular (given A + e f* invertible).  The inverse
satisfies the mirrored relation det(G + x y*) * det(1/D).  The log
variants return (sign_or_phase, log|det|) from LU with partial pivoting
and stay finite when the plain value over- or underflows; the plain
values are derived from them.  A plain value above the double range
raises DeterminantOutOfRange; one below it comes out as a subnormal or
0.0, as IEEE underflow gives, and an exactly singular sum gives 0.0.
"""

import math

import numpy as np

from . import errors
from .core import core_matrix

__all__ = [
    "det_via_lemma",
    "det_inverse_via_lemma",
    "logdet_via_lemma",
    "logdet_inverse_via_lemma",
]


def _signed_log(sign, logabs, field):
    """(sign_or_phase, log|det|) as Python numbers: a complex phase in the
    complex field, a float sign in the real one."""
    return (complex(sign) if field == "complex" else float(sign), float(logabs))


def _plain(logdet, what):
    """sign * exp(log|det|), or DeterminantOutOfRange when it overflows."""
    sign, logabs = logdet
    try:
        return sign * math.exp(logabs)
    except OverflowError:
        raise errors.DeterminantOutOfRange(
            f"{what} overflows a double: log|det| = {logabs:.6g}; "
            "use the logdet variant"
        ) from None


def det_via_lemma(problem):
    """det(A + e f*) * det(D); equals det of the assembled sum."""
    return _plain(logdet_via_lemma(problem), "det(A + e D f*)")


def det_inverse_via_lemma(inv, D):
    """det(G + x y*) / det(D); equals det of the dense inverse."""
    return _plain(logdet_inverse_via_lemma(inv, D), "det of the inverse")


def logdet_via_lemma(problem):
    """(sign_or_phase, log|det|) of the completed sum, overflow safe."""
    s1, l1 = np.linalg.slogdet(problem.A + problem.e @ problem.f.conj().T)
    s2, l2 = np.linalg.slogdet(problem.D)
    return _signed_log(s1 * s2, l1 + l2, problem.field)


def logdet_inverse_via_lemma(inv, D):
    """(sign_or_phase, log|det|) of the dense inverse, overflow safe."""
    D = core_matrix("D", D, inv.n, inv.k)
    s1, l1 = np.linalg.slogdet(inv.G + inv.x @ inv.y.conj().T)
    s2, l2 = np.linalg.slogdet(D)
    # conj(s2) is 1/s2 for a unit-magnitude sign or phase
    return _signed_log(s1 * np.conj(s2), l1 - l2, inv.field)

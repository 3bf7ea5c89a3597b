"""Verification-only routes to the structured inverse, for tests alone.

No command, benchmark or tool calls these: each is an alternative route
to G (or to the dense inverse) that the package's constructions are
compared against.  Tests import this module as they import ``conftest``.

* :func:`dense_inverse_oracle`: LU of the assembled sum;
* :func:`g_from_pseudoinverse`: G through the Moore-Penrose inverse of A;
* :func:`g_from_known_xy`: G from already-known factors x, y;
* :func:`riedel_decomposition`: the projection split behind
  :func:`rankfill.riedel_inverse`, and :func:`nullspace_difference_check`,
  the identity that makes Riedel's formula match the structured one.
"""

import dataclasses

import numpy as np

from rankfill import errors
from rankfill._linalg import fnorm, pivot
from rankfill.core import IdentityTolerance, assemble, core_matrix, rank_split
from rankfill.identities import _orth_scaled, pseudoinverse


class OracleSingular(errors.NumericalError):
    """The dense reference inversion failed; for a validated problem this
    signals a validation bug, not a user error."""

    code = "OracleSingular"


def dense_inverse_oracle(problem):
    """LU-based dense inverse of the assembled sum (the reference path)."""
    try:
        return np.linalg.inv(assemble(problem))
    except np.linalg.LinAlgError:
        raise OracleSingular(
            "assembled matrix is singular; validation should have excluded this"
        ) from None


def g_from_pseudoinverse(svd, e, f):
    """G expressed through the pseudoinverse of A.

    Evaluates ``(I - V_k inv(f* V_k) f*) @ pinv(A) @ (I - e inv(U_k* e) U_k*)``,
    which agrees with the G of :func:`rankfill.svd.structured_inverse_from_factors`.
    """
    e = np.asarray(e)
    f = np.asarray(f)
    pe, _ = pivot(svd.U_k, e, svd.n, errors.PivotSingular, "U_k* e")
    pf, _ = pivot(f, svd.V_k, svd.n, errors.PivotSingular, "f* V_k")
    pe_inv = np.linalg.inv(pe)
    pf_inv = np.linalg.inv(pf)
    a_pinv = pseudoinverse(svd)
    left = a_pinv - (svd.V_k @ pf_inv) @ (f.conj().T @ a_pinv)
    return left - (left @ e) @ (pe_inv @ svd.U_k.conj().T)


def g_from_known_xy(problem, x, y, M):
    """Recover G from already-known factors x, y.

    ``G = inv(A + e M f*) - x inv(M) y*`` holds for any invertible M
    because the structured form of the inverse is valid with M in the
    core position.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    M = core_matrix("M", M, problem.n, problem.k)

    filled = problem.A + problem.e @ M @ problem.f.conj().T
    try:
        filled_inv = np.linalg.inv(filled)
    except np.linalg.LinAlgError:
        raise errors.InnerMatrixSingular("A + e M f* is singular") from None
    return filled_inv - x @ np.linalg.solve(M, y.conj().T)


@dataclasses.dataclass(frozen=True, eq=False)
class RiedelDecomposition:
    """Split of e and f along range(A) / range(A*) and its core factors.

    V1 + W1 = e with V1 in range(A) and W1 orthogonal to it; V2 + W2 = f
    likewise for A*.  C1 = W1 inv(W1* W1) and C2 = W2 inv(W2* W2), which
    coincide with the structured-inverse factors y and x.
    """

    V1: np.ndarray
    W1: np.ndarray
    V2: np.ndarray
    W2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray


def _riedel_with_pivot(svd, e, f):
    """The Riedel decomposition and its judged pivot ``U_k* e``."""
    e = np.asarray(e)
    f = np.asarray(f)
    pe, _ = pivot(svd.U_k, e, svd.n, errors.PivotSingular, "U_k* e")
    pf, _ = pivot(svd.V_k, f, svd.n, errors.PivotSingular, "V_k* f")
    w1 = svd.U_k @ pe
    w2 = svd.V_k @ pf
    dec = RiedelDecomposition(
        V1=svd.U_r @ (svd.U_r.conj().T @ e),
        W1=w1,
        V2=svd.V_r @ (svd.V_r.conj().T @ f),
        W2=w2,
        C1=_orth_scaled(w1, "W1"),
        C2=_orth_scaled(w2, "W2"),
    )
    return dec, pe


def riedel_decomposition(svd, e, f):
    """Project e, f onto the range/null bases of A and form C1, C2."""
    return _riedel_with_pivot(svd, e, f)[0]


def nullspace_difference_check(problem, tol=None):
    """Residual of the identity making Riedel's formula match ours.

    The two inverse expressions differ by ``e inv(U_k* e) U_k*`` versus
    ``V1 C1*``; their gap lies in the nullspace of pinv(A), so
    ``pinv(A) e inv(U_k* e) U_k*`` equals ``pinv(A) V1 C1*``.  Returns
    ``(residual, passed)``.
    """
    tol = tol if tol is not None else IdentityTolerance()
    svd = rank_split(problem)
    dec, pe = _riedel_with_pivot(svd, problem.e, problem.f)
    a_pinv = pseudoinverse(svd)

    lhs = (a_pinv @ problem.e) @ np.linalg.solve(pe, svd.U_k.conj().T)
    rhs = (a_pinv @ dec.V1) @ dec.C1.conj().T
    residual = fnorm(lhs - rhs)
    scale = fnorm(lhs) + fnorm(rhs)
    return residual, tol.accepts(residual, scale)

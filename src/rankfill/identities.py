"""Consistency identities tying (A, e, D, f) to its structured inverse.

The defining relations of a correct (G, x, y) are

    A x = 0      y* A = 0     G e = 0      f* G = 0
    f* x = I_k   y* e = I_k
    A G + e y* = I_n          G A + x f* = I_n

plus the first two Penrose conditions A G A = A and G A G = G.  G is a
reflexive generalized inverse of A but not the Moore-Penrose inverse in
general: conditions (iii)/(iv) require e y* and x f* to be Hermitian.

Riedel's update formula for A plus a rank-k term split along range(A)
provides an independent reconstruction of the same dense inverse and is
checked here as an equivalence, assuming both the full matrix and its
k-by-k core are invertible.

The other verification-only routes to G live here as well, apart from
the constructions that serve a request: through the Moore-Penrose
inverse of A, and from already-known factors x, y.
"""

import dataclasses
import math

import numpy as np

from . import errors
from ._linalg import block_cond, fnorm, pivot
from .core import IdentityTolerance, core_matrix, rank_split

__all__ = [
    "IdentityReport",
    "RiedelDecomposition",
    "check_identities",
    "check_penrose",
    "riedel_decomposition",
    "riedel_inverse",
    "nullspace_difference_check",
    "pseudoinverse",
    "g_from_pseudoinverse",
    "g_from_known_xy",
]


@dataclasses.dataclass(frozen=True, eq=False)
class IdentityReport:
    """Named Frobenius residuals with pass flags at a fixed tolerance."""

    residuals: dict
    scales: dict
    passed: dict
    tol: IdentityTolerance

    @property
    def all_passed(self):
        return all(self.passed.values())

    def to_dict(self):
        return {
            "residuals": dict(self.residuals),
            "scales": dict(self.scales),
            "passed": dict(self.passed),
            "tolerance": {"abs": self.tol.abs, "rel": self.tol.rel},
            "all_passed": self.all_passed,
        }


def check_identities(problem, inv, tol=None):
    """Evaluate all eight defining identities; never raises on failures.

    Scales follow the tolerance convention: per identity, the sum over
    left-hand terms of the products of operand norms, plus the norm of
    the constant target when there is one.
    """
    tol = tol if tol is not None else IdentityTolerance()
    if (inv.n, inv.k) != (problem.n, problem.k):
        raise errors.DimensionMismatch(
            f"inverse is {inv.n}x{inv.k}, problem is {problem.n}x{problem.k}"
        )
    A, e, f = problem.A, problem.e, problem.f
    G, x, y = inv.G, inv.x, inv.y
    n, k = problem.n, problem.k
    i_n = np.eye(n, dtype=A.dtype)
    i_k = np.eye(k, dtype=A.dtype)
    na, ne, nf = fnorm(A), fnorm(e), fnorm(f)
    ng, nx, ny = fnorm(G), fnorm(x), fnorm(y)

    pairs = {
        "Ax": (fnorm(A @ x), na * nx),
        "yA": (fnorm(y.conj().T @ A), ny * na),
        "Ge": (fnorm(G @ e), ng * ne),
        "fG": (fnorm(f.conj().T @ G), nf * ng),
        "fx_minus_I": (fnorm(f.conj().T @ x - i_k), nf * nx + math.sqrt(k)),
        "ye_minus_I": (fnorm(y.conj().T @ e - i_k), ny * ne + math.sqrt(k)),
        "AG_plus_eyStar_minus_I": (
            fnorm(A @ G + e @ y.conj().T - i_n),
            na * ng + ne * ny + math.sqrt(n),
        ),
        "GA_plus_xfStar_minus_I": (
            fnorm(G @ A + x @ f.conj().T - i_n),
            ng * na + nx * nf + math.sqrt(n),
        ),
    }
    residuals = {name: res for name, (res, _) in pairs.items()}
    scales = {name: scale for name, (_, scale) in pairs.items()}
    passed = {name: tol.accepts(res, scale) for name, (res, scale) in pairs.items()}
    return IdentityReport(residuals=residuals, scales=scales, passed=passed, tol=tol)


def check_penrose(A, G, tol=None):
    """Residuals of the four Penrose conditions for the pair (A, G).

    Returns an ordered mapping of name to ``(residual, passed)``; the
    scales are norm(A), norm(G), norm(AG), norm(GA) respectively.
    """
    tol = tol if tol is not None else IdentityTolerance()
    A = np.asarray(A)
    G = np.asarray(G)
    if A.ndim != 2 or A.shape != G.shape or A.shape[0] != A.shape[1]:
        raise errors.DimensionMismatch(
            f"A and G must be square and same size, got {A.shape} and {G.shape}"
        )
    ag = A @ G
    ga = G @ A
    checks = {
        "AGA_minus_A": (fnorm(ag @ A - A), fnorm(A)),
        "GAG_minus_G": (fnorm(ga @ G - G), fnorm(G)),
        "AG_hermitian": (fnorm(ag.conj().T - ag), fnorm(ag)),
        "GA_hermitian": (fnorm(ga.conj().T - ga), fnorm(ga)),
    }
    return {
        name: (res, tol.accepts(res, scale)) for name, (res, scale) in checks.items()
    }


def pseudoinverse(svd):
    """Moore-Penrose inverse ``V_r @ diag(1/sigma_r) @ U_r*``."""
    return (svd.V_r / svd.sigma_r) @ svd.U_r.conj().T


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


def _orth_scaled(w, what):
    # C = W inv(W* W) via the thin QR of W: numerically this avoids
    # squaring the condition number of W.
    q, r = np.linalg.qr(w)
    block_cond(r, w.shape[0], errors.PivotSingular, f"R in the QR of {what}")
    return q @ np.linalg.inv(r).conj().T


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


def riedel_inverse(problem):
    """Dense inverse via Riedel's projection-split formula.

    Evaluates ``(I - C2 V2*) pinv(A) (I - V1 C1*) + C2 inv(D) C1*``;
    equals the structured inverse reassembled with the problem's D.
    """
    svd = rank_split(problem)
    dec = riedel_decomposition(svd, problem.e, problem.f)
    a_pinv = pseudoinverse(svd)
    D = core_matrix("D", problem.D, problem.n, problem.k)

    left = a_pinv - dec.C2 @ (dec.V2.conj().T @ a_pinv)
    middle = left - (left @ dec.V1) @ dec.C1.conj().T
    return middle + dec.C2 @ np.linalg.solve(D, dec.C1.conj().T)


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

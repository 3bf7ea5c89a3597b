"""Consistency identities tying (A, e, D, f) to its structured inverse.

The defining relations of a correct (G, x, y) are

    A x = 0      y* A = 0     G e = 0      f* G = 0
    f* x = I_k   y* e = I_k
    A G + e y* = I_n          G A + x f* = I_n

The eight relations are the blocks of ``B Z = I`` and ``Z B = I`` for
``B = [[A, e], [f*, 0]]`` and ``Z = [[G, x], [y*, 0]]``, so they alone
decide whether a triple is right, and ``rankfill check`` verifies them.
Penrose (i) and (ii) follow, with R1, R2 the two n-by-n residuals:
``A G A - A = R1 A - e (y* A)``, ``G A G - G = R2 G - x (f* G)``.  So
``check`` passes each where the identities PENROSE_IMPLIED_BY names do,
forming no Penrose product.  G is a reflexive generalized inverse of A,
not the Moore-Penrose one unless e y* and x f* are Hermitian.
Riedel's update formula for A plus a rank-k term split along range(A)
rebuilds the same dense inverse from the full SVD of A, assuming both
the full matrix and its k-by-k core are invertible; tests compare to it.

The routes to G that only tests compare against (through the
Moore-Penrose inverse of A, from already-known factors x, y, the Riedel
decomposition on its own) live in ``tests/oracles.py``, apart from the
package.
"""

import dataclasses
import math

import numpy as np

from . import errors
from ._linalg import block_cond, check_shapes, fnorm, minus_identity, pivot
from .core import IdentityTolerance, core_matrix, rank_split

__all__ = [
    "IdentityReport",
    "check_identities",
    "check_penrose",
    "riedel_inverse",
    "pseudoinverse",
]

PENROSE_IMPLIED_BY = {
    "AGA_minus_A": ("AG_plus_eyStar_minus_I", "yA"),
    "GAG_minus_G": ("GA_plus_xfStar_minus_I", "fG"),
}


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
    A, e, f = problem.A, problem.e, problem.f
    G, x, y = inv.G, inv.x, inv.y
    n, k = problem.n, problem.k
    check_shapes({"G": G, "x": x, "y": y}, {"G": (n, n), "x": (n, k), "y": (n, k)})
    na, ne, nf = fnorm(A), fnorm(e), fnorm(f)
    ng, nx, ny = fnorm(G), fnorm(x), fnorm(y)

    def sum_minus_identity(product, term):
        # Each n-by-n residual is one array: the fresh product, term added in.
        product += term
        return fnorm(minus_identity(product))

    pairs = {
        "Ax": (fnorm(A @ x), na * nx),
        "yA": (fnorm(y.conj().T @ A), ny * na),
        "Ge": (fnorm(G @ e), ng * ne),
        "fG": (fnorm(f.conj().T @ G), nf * ng),
        "fx_minus_I": (fnorm(minus_identity(f.conj().T @ x)), nf * nx + math.sqrt(k)),
        "ye_minus_I": (fnorm(minus_identity(y.conj().T @ e)), ny * ne + math.sqrt(k)),
        "AG_plus_eyStar_minus_I": (
            sum_minus_identity(A @ G, e @ y.conj().T),
            na * ng + ne * ny + math.sqrt(n),
        ),
        "GA_plus_xfStar_minus_I": (
            sum_minus_identity(G @ A, x @ f.conj().T),
            ng * na + nx * nf + math.sqrt(n),
        ),
    }
    residuals = {name: res for name, (res, _) in pairs.items()}
    scales = {name: scale for name, (_, scale) in pairs.items()}
    passed = {name: tol.accepts(res, scale) for name, (res, scale) in pairs.items()}
    return IdentityReport(residuals=residuals, scales=scales, passed=passed, tol=tol)


def check_penrose(A, G, tol=None):
    """Residuals of the four Penrose conditions for the pair (A, G).

    Returns an ordered mapping of name to ``(residual, passed)``.  The
    scales are the plain norms ||A||, ||G||, ||AG||, ||GA||, not the
    products of norms of :class:`IdentityTolerance`, so an accurate G of
    large norm can miss (i) and (ii): for ``gen --n 200 --k 2 --seed 29
    --spread 1e4 --coupling 0.9`` (||G|| = 4.9e8, ||A|| = 3.3) the direct
    G passes all eight identities at 1e-9, yet AGA - A is 2.3e-8 against
    4.3e-9 and GAG - G is 2.8 against 0.49.
    """
    tol = tol if tol is not None else IdentityTolerance()
    A = np.asarray(A)
    G = np.asarray(G)
    n = A.shape[0] if A.ndim else "n"
    check_shapes({"A": A, "G": G}, {"A": (n, n), "G": (n, n)})
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


def _orth_scaled(w, what):
    # C = W inv(W* W) via the thin QR of W: numerically this avoids
    # squaring the condition number of W.
    q, r = np.linalg.qr(w)
    block_cond(r, w.shape[0], errors.PivotSingular, f"R in the QR of {what}")
    return q @ np.linalg.inv(r).conj().T


def riedel_inverse(problem):
    """Dense inverse via Riedel's projection-split formula.

    e splits as V1 + W1, with V1 in range(A) and W1 orthogonal to it, and
    f as V2 + W2 along range(A*); C1 = W1 inv(W1* W1) and C2 likewise,
    which coincide with the structured-inverse factors y and x.  Evaluates
    ``(I - C2 V2*) pinv(A) (I - V1 C1*) + C2 inv(D) C1*``; equals the
    structured inverse reassembled with the problem's D.
    """
    svd = rank_split(problem)
    e, f = problem.e, problem.f
    pe, _ = pivot(svd.U_k, e, svd.n, errors.PivotSingular, "U_k* e")
    pf, _ = pivot(svd.V_k, f, svd.n, errors.PivotSingular, "V_k* f")
    w1 = svd.U_k @ pe
    w2 = svd.V_k @ pf
    v1 = svd.U_r @ (svd.U_r.conj().T @ e)
    v2 = svd.V_r @ (svd.V_r.conj().T @ f)
    c1 = _orth_scaled(w1, "W1")
    c2 = _orth_scaled(w2, "W2")
    a_pinv = pseudoinverse(svd)
    D = core_matrix("D", problem.D, problem.n, problem.k)

    left = a_pinv - c2 @ (v2.conj().T @ a_pinv)
    middle = left - (left @ v1) @ c1.conj().T
    return middle + c2 @ np.linalg.solve(D, c1.conj().T)

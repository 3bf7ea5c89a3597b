"""SVD route to the structured inverse.

The rank split of A is an explicit compact singular value decomposition
``A = U_r @ diag(sigma_r) @ V_r*`` together with orthonormal bases U_k of
the complement of range(A) and V_k of the nullspace of A.  With them the
inverse factors are

    G = (V_r - V_k @ inv(f* V_k) @ f* V_r) @ diag(1/sigma_r)
        @ (U_r* - U_r* e @ inv(U_k* e) @ U_k*)
    x = V_k @ inv(f* V_k)
    y = U_k @ inv(e* U_k)

which quotient out the basis freedom in U_k, V_k: replacing U_k by U_k Q
and V_k by V_k P for unitary Q, P leaves G, x, y unchanged.
"""

import dataclasses
import math

import numpy as np

from . import errors
from ._linalg import block_cond, default_rank_tol, numerical_rank, readonly
from .core import GAP_SEPARATION, StructuredInverse

__all__ = [
    "CompactSvd",
    "compact_svd",
    "structured_inverse_svd",
    "structured_inverse_from_factors",
]


@dataclasses.dataclass(frozen=True, eq=False)
class CompactSvd:
    """Rank-split SVD factors of a singular square matrix.

    ``U_r @ diag(sigma_r) @ V_r*`` reconstructs A; U_k and V_k are
    orthonormal bases of the left/right null complements.  ``gap_ratio``
    is sigma_r / sigma_{r+1}; splits with a ratio below the separation
    threshold are flagged ``ill_split`` but still returned.
    """

    U_r: np.ndarray
    sigma_r: np.ndarray
    V_r: np.ndarray
    U_k: np.ndarray
    V_k: np.ndarray
    n: int
    k: int
    gap_ratio: float
    ill_split: bool

    @property
    def r(self):
        return self.n - self.k


def compact_svd(A, tol_rank=None, expected_corank=None):
    """Rank-split compact SVD of a square singular matrix.

    The numerical rank r counts singular values above
    ``tol_rank * sigma_max``; the remaining k = n - r columns of U and V
    become the null-complement bases.  When ``expected_corank`` is given,
    a detected corank different from it is an error; otherwise the split
    must merely satisfy n > k >= 1.

    Raises
    ------
    RankOfANotNMinusK
        If the detected rank contradicts ``expected_corank``, or if A is
        numerically invertible or numerically zero.
    """
    A = np.asarray(A)
    n = A.shape[0]
    if A.ndim != 2 or A.shape != (n, n):
        raise errors.DimensionMismatch(f"A must be square, got {A.shape}")
    if tol_rank is None:
        tol_rank = default_rank_tol(n)

    U, s, Vh = np.linalg.svd(A)
    rank = numerical_rank(s, tol_rank)
    if expected_corank is not None and rank != n - expected_corank:
        raise errors.RankOfANotNMinusK(
            f"rank(A) must be {n - expected_corank}, detected {rank}",
            detected_rank=rank,
        )
    if not 1 <= rank <= n - 1:
        raise errors.RankOfANotNMinusK(
            f"corank must satisfy n > k >= 1, detected rank {rank} of {n}",
            detected_rank=rank,
        )

    sigma_next = float(s[rank])
    gap_ratio = math.inf if sigma_next == 0.0 else float(s[rank - 1]) / sigma_next
    return CompactSvd(
        U_r=readonly(U[:, :rank]),
        sigma_r=readonly(s[:rank].copy()),
        V_r=readonly(Vh[:rank, :].conj().T),
        U_k=readonly(U[:, rank:]),
        V_k=readonly(Vh[rank:, :].conj().T),
        n=n,
        k=n - rank,
        gap_ratio=gap_ratio,
        ill_split=gap_ratio < GAP_SEPARATION,
    )


def structured_inverse_from_factors(svd, e, f):
    """Build (G, x, y) from a precomputed rank split.

    The k-by-k pivot blocks U_k* e and f* V_k are inverted by LU with
    partial pivoting; their singularity means the spanning hypotheses
    fail for (e, f) despite any earlier validation.
    """
    e = np.asarray(e)
    f = np.asarray(f)
    n, k = svd.n, svd.k
    if e.shape != (n, k) or f.shape != (n, k):
        raise errors.DimensionMismatch(
            f"e and f must be {n}x{k}, got {e.shape} and {f.shape}"
        )

    pe = svd.U_k.conj().T @ e  # k x k
    pf = f.conj().T @ svd.V_k  # k x k
    block_cond(pe, n, errors.PivotSingular, "U_k* e")
    block_cond(pf, n, errors.PivotSingular, "f* V_k")
    pe_inv = np.linalg.inv(pe)
    pf_inv = np.linalg.inv(pf)

    x = svd.V_k @ pf_inv
    y = svd.U_k @ pe_inv.conj().T  # y* = inv(U_k* e) @ U_k*

    left = svd.V_r - x @ (f.conj().T @ svd.V_r)  # n x r
    right = svd.U_r.conj().T - (svd.U_r.conj().T @ e) @ (pe_inv @ svd.U_k.conj().T)
    G = (left / svd.sigma_r) @ right

    field = "complex" if np.iscomplexobj(G) else "real"
    diagnostics = {
        "path": "svd",
        "gap_ratio": svd.gap_ratio,
        "ill_split": svd.ill_split,
    }
    return StructuredInverse(
        G=readonly(G), x=readonly(x), y=readonly(y), n=n, k=k, field=field,
        diagnostics=diagnostics,
    )


def structured_inverse_svd(problem):
    """(G, x, y) of a validated problem via the rank-split SVD of A."""
    svd = compact_svd(problem.A, problem.tol_rank, expected_corank=problem.k)
    return structured_inverse_from_factors(svd, problem.e, problem.f)

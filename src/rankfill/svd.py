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

The split itself (:class:`CompactSvd`, :func:`compact_svd`) is built by
:mod:`rankfill.core` and re-exported here.  The SVD route uses the split
a problem keeps (see :class:`rankfill.core.RankModifiedProblem`), or
computes one.
"""

import numpy as np

from . import errors
from ._linalg import check_shapes, numeric_array, pivot, readonly
from .core import CompactSvd, StructuredInverse, compact_svd, rank_split

__all__ = [
    "CompactSvd",
    "compact_svd",
    "structured_inverse_svd",
    "structured_inverse_from_factors",
]


def structured_inverse_from_factors(svd, e, f):
    """Build (G, x, y) from a precomputed rank split.

    The k-by-k pivot blocks U_k* e and f* V_k are inverted by LU with
    partial pivoting; their singularity means the spanning hypotheses
    fail for (e, f) despite any earlier validation.
    """
    e, f = numeric_array("e", e), numeric_array("f", f)
    n, k = svd.n, svd.k
    check_shapes({"e": e, "f": f}, {"e": (n, k), "f": (n, k)})

    pe, _ = pivot(svd.U_k, e, n, errors.PivotSingular, "U_k* e")
    pf, _ = pivot(f, svd.V_k, n, errors.PivotSingular, "f* V_k")
    pe_inv = np.linalg.inv(pe)
    pf_inv = np.linalg.inv(pf)

    x = svd.V_k @ pf_inv
    y = svd.U_k @ pe_inv.conj().T  # y* = inv(U_k* e) @ U_k*

    left = svd.V_r - x @ (f.conj().T @ svd.V_r)  # n x r
    left /= svd.sigma_r
    right = svd.U_r.conj().T - (svd.U_r.conj().T @ e) @ (pe_inv @ svd.U_k.conj().T)
    G = left @ right

    diagnostics = {
        "path": "svd",
        "gap_ratio": svd.gap_ratio,
        "ill_split": svd.ill_split,
    }
    return StructuredInverse(
        G=readonly(G), x=readonly(x), y=readonly(y), diagnostics=diagnostics,
    )


def structured_inverse_svd(problem):
    """(G, x, y) of a validated problem via the rank-split SVD of A.

    Uses the split the problem keeps (see
    :class:`rankfill.core.RankModifiedProblem`); a problem without one
    pays for one full SVD here.
    """
    return structured_inverse_from_factors(rank_split(problem), problem.e, problem.f)

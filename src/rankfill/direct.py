"""SVD-free routes to the structured inverse.

The direct route reads (G, x, y) off the inverse of the bordered matrix

    B = [[A, e], [f*, 0]],    inv(B) = [[G, x], [y*, 0]],

one LU of order n + k (Blattner, "Bordered matrices", J. SIAM 10(3),
1962).  B has no D in it, which is the D-independence of (G, x, y) in
one line; the blocks of ``B inv(B) = I`` and ``inv(B) B = I`` are the
eight defining identities.

The general route is the paper's construction.  Obliquely projecting A
away from the update directions and re-completing the rank with
``e @ M @ f*`` yields an invertible n-by-n matrix whose inverse recovers
G in closed form:

    G = inv((I - e inv(u* e) u*) @ A @ (I - v inv(f* v) f*) + e M f*)
        - v @ inv(f* v) @ inv(M) @ inv(u* e) @ u*
    x = (I - G A) @ v @ inv(f* v)
    y* = inv(u* e) @ u* @ (I - A G)

for any n-by-k u, v and invertible k-by-k M with u* e and f* v
invertible; the output does not depend on the choice.  Both projectors
are the identity minus a rank-k term, so everything but the one n-by-n
solve costs O(n^2 k): no n-by-n matrix product is formed.
"""

import dataclasses

import numpy as np

from . import errors
from ._linalg import EPS, block_cond, check_shapes, fnorm, numeric_array, pivot, readonly
from .core import StructuredInverse, bordered_inverse

__all__ = [
    "AnsatzParams",
    "structured_inverse_general",
    "structured_inverse_direct",
]


@dataclasses.dataclass(frozen=True, eq=False)
class AnsatzParams:
    """Free parameters (u, v, M) of the general SVD-free construction.

    u, v are n-by-k and M is k-by-k invertible.  M is the lever for
    conditioning rescue when the default inner matrix is unbalanced.
    """

    u: np.ndarray
    v: np.ndarray
    M: np.ndarray


def structured_inverse_general(problem, params):
    """(G, x, y) from the oblique-projection construction with free (u, v, M).

    Raises
    ------
    ValueError
        If u, v or M does not hold numbers (validate's input rule).
    PivotSingular
        If u* e or f* v is singular or rounding noise, or M is singular.
    InnerMatrixSingular
        If the inner n-by-n matrix cannot be inverted; for a validated
        problem this indicates the inversion hypotheses fail after all.
    """
    A, e, f = problem.A, problem.e, problem.f
    n, k = problem.n, problem.k
    u, v, M = (numeric_array(name, getattr(params, name)) for name in "uvM")
    check_shapes({"u": u, "v": v, "M": M}, {"u": (n, k), "v": (n, k), "M": (k, k)})

    ue, _ = pivot(u, e, n, errors.PivotSingular, "u* e")
    fv, _ = pivot(f, v, n, errors.PivotSingular, "f* v")
    block_cond(M, n, errors.PivotSingular, "M")
    ue_inv = np.linalg.inv(ue)
    fv_inv = np.linalg.inv(fv)
    m_inv = np.linalg.inv(M)

    # p_left = I - e inv(u*e) u* and p_right = I - v inv(f*v) f*, so
    #   p_left A p_right = A - e ua - t f*,  ua = inv(u*e) u* A,
    #   t = (A v - e ua v) inv(f*v),
    # and the inner matrix is A plus one rank-2k update.
    fh = f.conj().T
    uA = u.conj().T @ A
    ua = ue_inv @ uA
    Av = A @ v
    t = (Av - e @ (ua @ v)) @ fv_inv
    inner = np.concatenate((e, t), axis=1) @ np.concatenate((ua - M @ fh, fh))
    np.subtract(A, inner, out=inner)
    p_left = np.eye(n, dtype=A.dtype) - e @ (ue_inv @ u.conj().T)

    # inner @ v = e M (f*v) exactly, so the closed form
    # inv(inner) - v (f*v)^-1 M^-1 (u*e)^-1 u* collapses to one solve
    # against the left projector; no large-term cancellation for wild u, v.
    try:
        G = np.linalg.solve(inner, p_left)
    except np.linalg.LinAlgError:
        raise errors.InnerMatrixSingular("inner n-by-n matrix is singular") from None

    # inv(inner) = G + v N u* with the ansatz core N; reconstituted here
    # only for the conditioning diagnostic.
    ansatz_n = fv_inv @ m_inv @ ue_inv
    inner_inv = G + v @ (ansatz_n @ u.conj().T)
    # A non-finite G makes cond1 non-finite too.
    cond1 = float(np.linalg.norm(inner, 1) * np.linalg.norm(inner_inv, 1))
    _refuse_singular(cond1, "inner n-by-n matrix")

    # x = (I - G A) v inv(f*v) and y = (I - A G)* u inv(u*e)*, each from
    # one n-by-n times n-by-k product.
    x = (v - G @ Av) @ fv_inv
    y = (u - (uA @ G).conj().T) @ ue_inv.conj().T

    diagnostics = {
        "path": "general",
        "inner_cond1": cond1,
        "ansatz_n_norm": fnorm(ansatz_n),
    }
    return StructuredInverse(
        G=readonly(G), x=readonly(x), y=readonly(y), diagnostics=diagnostics,
    )


def structured_inverse_direct(problem):
    """(G, x, y) read off the inverse of the bordered matrix.

    One LU of ``B = [[A, e], [f*, 0]]``, of order n + k, gives
    ``inv(B) = [[G, x], [y*, 0]]``: the one the problem keeps as
    ``problem.bordered`` (see :class:`rankfill.core.RankModifiedProblem`),
    or else a fresh one.  Nothing is squared, so the
    path refuses a validated problem only where B is numerically singular,
    and there no construction of the inverse is accurate.

    Raises
    ------
    InnerMatrixSingular
        If B is singular, or its 1-norm condition number exceeds 1/eps.
    """
    inv = problem.bordered or bordered_inverse(problem.A, problem.e, problem.f)
    if inv is None:
        raise errors.InnerMatrixSingular("bordered matrix [[A, e], [f*, 0]] is singular")
    _refuse_singular(inv.diagnostics["bordered_cond1"], "bordered matrix [[A, e], [f*, 0]]")
    return inv


def _refuse_singular(cond1, what):
    """InnerMatrixSingular unless the 1-norm condition number ``cond1`` of
    ``what`` is at most 1/eps; a NaN is refused too."""
    if not cond1 <= 1.0 / EPS:
        raise errors.InnerMatrixSingular(f"{what} is numerically singular (cond ~ {cond1:.3e})")

"""Small shared linear-algebra helpers (private)."""

import numpy as np

EPS = float(np.finfo(np.float64).eps)


def fnorm(m):
    return float(np.linalg.norm(m))


def default_rank_tol(n):
    """Relative rank-decision threshold: n times double-precision epsilon."""
    return n * EPS


def numerical_rank(s, tol_rank):
    """Count of the descending singular values ``s`` above ``tol_rank * s[0]``."""
    return int(np.count_nonzero(s > tol_rank * s[0])) if s.size else 0


def block_cond(m, n, exc, what, scale=None):
    """2-norm condition number of the small square block ``m``.

    The one invertibility rule for k-by-k blocks: ``m`` is invertible when
    sigma_min > default_rank_tol(n) * sigma_max, where n is the order of the
    full problem, not of ``m``, and, given a ``scale`` (only :func:`pivot`
    passes one), sigma_min > default_rank_tol(n) * scale.  Else raises ``exc``.
    """
    s = np.linalg.svd(m, compute_uv=False)
    smax, smin = float(s[0]), float(s[-1])
    if not smin > default_rank_tol(n) * smax:
        raise exc(
            f"{what} is numerically singular: sigma_min/sigma_max = "
            f"{smin / smax if smax else 0.0:.3e}"
        )
    if scale is not None and not smin > default_rank_tol(n) * scale:
        raise exc(
            f"{what} is rounding noise: sigma_min = {smin:.3e} against "
            f"operands of 2-norm product {scale:.3e}"
        )
    return smax / smin


def pivot(left, right, n, exc, what):
    """Spanning pivot ``left* @ right`` of two n-by-k operands (U_k* e, f* V_k,
    u* e, f* v) and its condition number, by :func:`block_cond` at the scale
    ``||left||_2 * ||right||_2``: a pivot of rounding noise raises ``exc``."""
    block = left.conj().T @ right
    scale = np.linalg.norm(left, 2) * np.linalg.norm(right, 2)
    return block, block_cond(block, n, exc, what, scale=scale)


def readonly(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a

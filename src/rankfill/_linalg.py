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
    full problem, not of ``m``.  A block projected from an n-by-k operand
    passes that operand's 2-norm as ``scale`` and must also have
    sigma_min > default_rank_tol(n) * scale, so that rounding noise is not
    taken for an invertible block.  Otherwise raises ``exc``.
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
            f"{what} is rounding noise: sigma_min = {smin:.3e} against an "
            f"operand of 2-norm {scale:.3e}"
        )
    return smax / smin


def readonly(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a

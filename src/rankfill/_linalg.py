"""Small shared linear-algebra helpers and input rules (private)."""

import numbers

import numpy as np

from . import errors

EPS = float(np.finfo(np.float64).eps)


def is_number(value, kind=numbers.Real):
    """Whether ``value`` is a number of ``kind``; a bool or a str is not."""
    return isinstance(value, kind) and not isinstance(value, bool)


def numeric_array(name, value):
    """``value`` as an array of numbers, the one input rule, in O(1) for numeric
    arrays: bools, bytes, strings and other non-numbers raise ValueError naming
    ``name``; an object array of numbers is cast (to complex128 if one is complex)."""
    m = np.asarray(value)
    if m.dtype.kind == "O" and all(is_number(v, numbers.Number) for v in m.flat):
        return m.astype(np.complex128 if any(map(np.iscomplexobj, m.flat)) else np.float64)
    if m.dtype.kind in "bSUO":
        raise ValueError(f"{name} must hold numbers, got dtype {m.dtype}")
    return m


def check_shapes(arrays, shapes):
    """Raise DimensionMismatch naming the first of ``arrays`` (name to array),
    in the order of ``shapes``, whose shape is not ``shapes[name]`` (a letter: any size)."""
    for name, want in shapes.items():
        got = np.shape(arrays[name])
        if got != want:
            raise errors.DimensionMismatch(
                f"{name} must be {'x'.join(map(str, want))}, got {got}"
            )


def fnorm(m):
    """Frobenius norm of ``m``, free of over- and underflow.

    NumPy sums unscaled squares.  Inside [1e-140, 1e140] no square can
    overflow, and one that underflows is below eps relative to the norm,
    so the plain value stands; outside it, the norm is recomputed scaled
    by the largest magnitude.
    """
    with np.errstate(all="ignore"):
        norm = float(np.linalg.norm(m))
        if 1e-140 <= norm <= 1e140:
            return norm
        # Magnitudes, since a complex division by a subnormal scale overflows.
        a = np.abs(m)
        scale = float(np.max(a, initial=0.0))
        if not 0.0 < scale < np.inf:  # zero, empty, or a non-finite entry
            return norm
        return scale * float(np.linalg.norm(a / scale))


def field_of(*arrays):
    """"complex" when any of ``arrays`` has a complex dtype, else "real"."""
    return "complex" if any(map(np.iscomplexobj, arrays)) else "real"


def minus_identity(m):
    """``m - I`` in place, for a square ``m`` that the caller owns (a fresh
    product): 1 comes off the diagonal and no identity is built.  The bits
    are those of ``m - np.eye(n)``.  Returns ``m``."""
    m[np.diag_indices_from(m)] -= 1
    return m


def default_rank_tol(n):
    """Relative rank-decision threshold: n times double-precision epsilon."""
    return n * EPS


def rank_tol(tol_rank, n):
    """``tol_rank`` as a float, default_rank_tol(n) for None; ValueError
    unless it is a finite nonnegative real number."""
    if tol_rank is None:
        return default_rank_tol(n)
    if not (is_number(tol_rank) and 0 <= tol_rank < np.inf):
        raise ValueError("tol_rank must be nonnegative and finite")
    return float(tol_rank)


def numerical_rank(s, tol_rank):
    """Count of the descending singular values ``s`` above ``tol_rank * s[0]``."""
    return int(np.count_nonzero(s > tol_rank * s[0])) if s.size else 0


def block_cond(m, n, exc, what, scale=None):
    """2-norm condition number of the small square block ``m``.

    The one invertibility rule for k-by-k blocks: ``m`` is invertible when
    sigma_min > default_rank_tol(n) * sigma_max, where n is the order of the
    full problem, not of ``m``, and, given a ``scale`` (only :func:`pivot`
    passes one), sigma_min > default_rank_tol(n) * scale.  Else, and for a
    block with a non-finite entry, raises ``exc``.
    """
    if not np.isfinite(m).all():  # LAPACK reads inf as NaN singular values
        raise exc(f"{what} has non-finite entries")
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as err:
        raise exc(f"{what}: {err}") from None
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
    ``||left||_2 * ||right||_2``: a pivot of rounding noise raises ``exc``,
    and so does a non-finite operand, before any norm is taken."""
    if not (np.isfinite(left).all() and np.isfinite(right).all()):
        raise exc(f"{what} has non-finite operands")
    block = left.conj().T @ right
    scale = np.linalg.norm(left, 2) * np.linalg.norm(right, 2)
    return block, block_cond(block, n, exc, what, scale=scale)


def readonly(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a

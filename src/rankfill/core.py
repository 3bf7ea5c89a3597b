"""Problem and inverse containers for rank-completed matrix sums.

A square matrix ``A`` with rank ``n - k`` becomes invertible when a rank-k
update ``e @ D @ f*`` supplies exactly the missing rank.  The inverse then
has the structured form ``G + x @ inv(D) @ y*`` where G, x, y depend only
on (A, e, f), never on D.  This module holds the validated problem and
inverse value types, validation, the rank split of A, plus assembly and
application helpers; the (G, x, y) constructions live in
:mod:`rankfill.svd` and :mod:`rankfill.direct`.

Validation is certificate-first.  One LU of the bordered matrix
``[[A, e], [f*, 0]]`` gives bounds on the singular values of A and on
the spanning pivots; when they clear every threshold by ``CERT_MARGIN``
the hypotheses hold and no SVD is run.  Otherwise the full SVD of A
decides, as the only source of rejections, and its rank split is kept.
On both routes the (G, x, y) read off that LU are kept for the direct
path.

All values are immutable after construction (arrays are marked read-only)
and all operations are pure functions, so everything here is safe to share
across threads.
"""

import dataclasses
import math

import numpy as np

from . import errors
from ._linalg import (
    block_cond,
    default_rank_tol,
    fnorm,
    numerical_rank,
    pivot,
    readonly,
)

__all__ = [
    "CompactSvd",
    "RankModifiedProblem",
    "StructuredInverse",
    "IdentityTolerance",
    "bordered_inverse",
    "compact_svd",
    "default_rank_tol",
    "rank_split",
    "validate",
    "assemble",
    "apply_inverse",
    "reassemble_inverse",
]

# Below this gap ratio between the smallest kept and largest discarded
# singular value the rank split is flagged as ill separated.
GAP_SEPARATION = 1e3

# validate's certificate accepts only when every bound clears its
# threshold by this factor; anything closer is decided by the full SVD.
CERT_MARGIN = 2.0


@dataclasses.dataclass(frozen=True, eq=False)
class CompactSvd:
    """Rank-split SVD factors of ``source``, a singular square matrix A.

    ``U_r @ diag(sigma_r) @ V_r*`` reconstructs A; U_k and V_k are
    orthonormal bases of the left/right null complements and ``sigma_k``
    holds the discarded singular values.  ``gap_ratio`` is
    sigma_r / sigma_{r+1}; splits with a ratio below the separation
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
    sigma_k: np.ndarray
    source: np.ndarray = dataclasses.field(repr=False)

    @property
    def r(self):
        return self.n - self.k


def compact_svd(A, tol_rank=None, expected_corank=None):
    """Rank-split compact SVD of a square singular matrix.

    The numerical rank r counts singular values above
    ``tol_rank * sigma_max``; the remaining k = n - r columns of U and V
    become the null-complement bases.  When ``expected_corank`` is given,
    a detected corank different from it is an error; otherwise the split
    must merely satisfy n > k >= 1.  The factors are read-only views of
    U and V, so the split holds two n-by-n arrays and no more.

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
            f"rank(A) must be n - k = {n - expected_corank}, detected {rank} "
            f"at tol_rank={tol_rank:g}",
            detected_rank=rank,
        )
    if not 1 <= rank <= n - 1:
        raise errors.RankOfANotNMinusK(
            f"corank must satisfy n > k >= 1, detected rank {rank} of {n}",
            detected_rank=rank,
        )

    V = np.conjugate(Vh.T, order="C")  # one n-by-n copy; Vh is dropped
    del Vh
    for m in (U, s, V):
        m.setflags(write=False)
    sigma_next = float(s[rank])
    gap_ratio = math.inf if sigma_next == 0.0 else float(s[rank - 1]) / sigma_next
    return CompactSvd(
        U_r=U[:, :rank],
        sigma_r=s[:rank],
        V_r=V[:, :rank],
        U_k=U[:, rank:],
        V_k=V[:, rank:],
        n=n,
        k=n - rank,
        gap_ratio=gap_ratio,
        ill_split=gap_ratio < GAP_SEPARATION,
        sigma_k=s[rank:],
        source=A,
    )


@dataclasses.dataclass(frozen=True, eq=False)
class RankModifiedProblem:
    """Validated quadruple (A, e, D, f) with dimensions (n, k).

    The implied invertible matrix is ``A + e @ D @ f*``; use
    :func:`assemble` to materialize it.  Instances are produced by
    :func:`validate` and are immutable; ``diagnostics`` carries rank and
    conditioning information gathered during validation.

    ``split`` is a rank split of A handed on so that the SVD route does
    not compute it again: validation's own on its SVD fallback, or one a
    caller attached.  It is None on the certified route, and once it has
    been dropped to save memory.  :func:`rank_split` hands it on only
    while ``split.source is A``: a copy with another A gets a fresh one.

    ``bordered`` is the direct path's (G, x, y), read off the LU of the
    bordered matrix that validation inverted (see :func:`bordered_inverse`),
    or None when that LU failed or it has been dropped.  The direct path
    hands it on only while its ``source`` is this problem's own (A, e, f);
    D is not in that test, so a copy with another D keeps it.
    """

    A: np.ndarray
    e: np.ndarray
    D: np.ndarray
    f: np.ndarray
    n: int
    k: int
    tol_rank: float
    field: str
    diagnostics: dict = dataclasses.field(default_factory=dict, repr=False)
    split: CompactSvd | None = dataclasses.field(default=None, compare=False, repr=False)
    bordered: "StructuredInverse | None" = dataclasses.field(
        default=None, compare=False, repr=False
    )

    @property
    def r(self):
        return self.n - self.k


@dataclasses.dataclass(frozen=True, eq=False)
class StructuredInverse:
    """The triple (G, x, y) with ``inverse = G + x @ inv(D) @ y*``.

    Valid for every invertible D paired with the same (A, e, f); the
    factors themselves carry no dependence on D.  ``source`` is that
    (A, e, f) when the triple was read off the bordered matrix, else None.
    """

    G: np.ndarray
    x: np.ndarray
    y: np.ndarray
    n: int
    k: int
    field: str
    diagnostics: dict = dataclasses.field(default_factory=dict, repr=False)
    source: tuple | None = dataclasses.field(default=None, repr=False)


@dataclasses.dataclass(frozen=True)
class IdentityTolerance:
    """Residual acceptance rule: pass when ``r <= abs + rel * scale``.

    ``scale`` is supplied by the check that produced the residual; for
    product identities it is the sum over terms of the products of the
    operands' Frobenius norms (plus the norm of any constant target), so
    pass/fail is dimensionless and size independent.
    """

    abs: float = 1e-12
    rel: float = 1e-12

    def __post_init__(self):
        if not (0 <= self.abs < math.inf and 0 <= self.rel < math.inf):
            raise ValueError("tolerances must be nonnegative and finite")

    def accepts(self, residual, scale):
        return bool(residual <= self.abs + self.rel * scale)


def _as_field_matrix(name, value, dtype):
    m = np.asarray(value)
    if m.ndim != 2:
        raise errors.DimensionMismatch(f"{name} must be a 2-d array, got ndim={m.ndim}")
    m = m.astype(dtype, copy=True)
    if not np.all(np.isfinite(m)):
        raise errors.NonFiniteInput(f"{name} contains non-finite entries")
    return readonly(m)


def validate(A, e, D, f, tol_rank=None):
    """Check the inversion hypotheses and return the validated problem.

    Verifies:

    * shapes are n-by-n, n-by-k, k-by-k, n-by-k with n > k >= 1,
    * A has numerical rank exactly n - k at the relative threshold
      ``tol_rank`` (default ``n * eps``),
    * D is invertible,
    * the columns of e complete the column space of A (U_k* e invertible),
    * the columns of f complete the column space of A* (f* V_k invertible).

    The k-by-k blocks D, U_k* e and f* V_k are judged at ``n * eps``
    whatever ``tol_rank`` is: it decides only the rank of A.  U_k* e and
    f* V_k of pure rounding noise (e inside range(A)) are rejected too.

    The rank and the spanning pivots are first certified from one LU of
    the bordered matrix ``[[A, e], [f*, 0]]`` (see :func:`_certificate`);
    the problem then carries bounds in its diagnostics and no split.  When
    any bound misses its threshold by less than ``CERT_MARGIN``, the full
    SVD of A decides instead, and its rank split is kept on the problem as
    ``split`` for the SVD route and the verification routes to reuse.
    The certificate only ever accepts: every rejection comes from the SVD.
    On both routes the problem keeps that LU's (G, x, y) as ``bordered``,
    for the direct path to reuse.

    Raises
    ------
    DimensionMismatch, RankOfANotNMinusK, DSingular, SpanDeficientE,
    SpanDeficientF
        Violated hypotheses are hard errors, not warnings.
    """
    field = "complex" if any(np.iscomplexobj(np.asarray(m)) for m in (A, e, D, f)) else "real"
    dtype = np.complex128 if field == "complex" else np.float64

    A = _as_field_matrix("A", A, dtype)
    e = _as_field_matrix("e", e, dtype)
    D = _as_field_matrix("D", D, dtype)
    f = _as_field_matrix("f", f, dtype)

    n = A.shape[0]
    if A.shape != (n, n):
        raise errors.DimensionMismatch(f"A must be square, got {A.shape}")
    k = e.shape[1]
    if e.shape != (n, k):
        raise errors.DimensionMismatch(f"e must be {n}x{k}, got {e.shape}")
    if f.shape != (n, k):
        raise errors.DimensionMismatch(f"f must be {n}x{k}, got {f.shape}")
    if D.shape != (k, k):
        raise errors.DimensionMismatch(f"D must be {k}x{k}, got {D.shape}")
    if not n > k >= 1:
        raise errors.RankOfANotNMinusK(
            f"n > k >= 1 required, got n={n}, k={k}", detected_rank=None
        )

    if tol_rank is None:
        tol_rank = default_rank_tol(n)
    if not 0 <= tol_rank < math.inf:
        raise ValueError("tol_rank must be nonnegative and finite")

    bordered = bordered_inverse(A, e, f, field)
    bounds = _certificate(A, e, f, tol_rank, bordered)
    if bounds is not None:
        cond_d = block_cond(D, n, errors.DSingular, "D")
        return RankModifiedProblem(
            A=A, e=e, D=D, f=f, n=n, k=k, tol_rank=float(tol_rank), field=field,
            diagnostics={**bounds, "cond_d": cond_d}, bordered=bordered,
        )

    split = compact_svd(A, tol_rank, expected_corank=k)
    cond_d = block_cond(D, n, errors.DSingular, "D")
    _, cond_uk_e = pivot(split.U_k, e, n, errors.SpanDeficientE, "U_k* e")
    _, cond_f_vk = pivot(f, split.V_k, n, errors.SpanDeficientF, "f* V_k")

    diagnostics = {
        "rank": split.r,
        "certified": False,
        "sigma_max": float(split.sigma_r[0]),
        "sigma_r": float(split.sigma_r[-1]),
        "sigma_rplus1": float(split.sigma_k[0]),
        "gap_ratio": split.gap_ratio,
        "ill_split": split.ill_split,
        "cond_uk_e": cond_uk_e,
        "cond_f_vk": cond_f_vk,
        "cond_d": cond_d,
    }
    return RankModifiedProblem(
        A=A, e=e, D=D, f=f, n=n, k=k, tol_rank=float(tol_rank), field=field,
        diagnostics=diagnostics, split=split, bordered=bordered,
    )


def bordered_inverse(A, e, f, field):
    """(G, x, y) read off ``inv(B) = [[G, x], [y*, 0]]``, one LU of the
    bordered matrix ``B = [[A, e], [f*, 0]]`` of order n + k (Blattner,
    "Bordered matrices", J. SIAM 10(3), 1962); None when B is exactly
    singular or its inverse is not finite.

    B has no D in it, so the triple serves every core paired with
    (A, e, f), which it records as ``source``.  Its diagnostics are the
    direct path's: ``path`` and ``bordered_cond1 = ||B||_1 ||inv(B)||_1``.
    """
    n, k = e.shape
    B = np.zeros((n + k, n + k), dtype=np.result_type(A, e, f))
    B[:n, :n] = A
    B[:n, n:] = e
    B[n:, :n] = f.conj().T
    with np.errstate(all="ignore"):
        try:
            Z = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(Z)):
            return None
        cond1 = float(np.linalg.norm(B, 1) * np.linalg.norm(Z, 1))
    del B
    return StructuredInverse(
        G=readonly(Z[:n, :n]), x=readonly(Z[:n, n:]), y=readonly(Z[n:, :n].conj().T),
        n=n, k=k, field=field,
        diagnostics={"path": "direct", "bordered_cond1": cond1},
        source=(A, e, f),
    )


def _sigma_max_lower(A, steps=3):
    """Lower bound ``||A v|| / ||v||`` on sigma_max(A) after ``steps`` power
    steps on A* A, started from the conjugate of A's largest row."""
    v = A[np.argmax(np.linalg.norm(A, axis=1))].conj()
    for _ in range(steps):
        v = A.conj().T @ (A @ v)
        norm_v = np.linalg.norm(v)
        if not norm_v > 0:
            return 0.0
        v /= norm_v
    return float(np.linalg.norm(A @ v))


def _certificate(A, e, f, tol_rank, bordered):
    """Bounds proving what the SVD would decide for (A, e, f), or None.

    From ``bordered``, the (G, x, y) of ``inv([[A, e], [f*, 0]])`` by
    :func:`bordered_inverse`:

    * ``inv(A + e f*) = G + x y*`` and A is a rank-k change of ``A + e f*``,
      so ``sigma_{n-k}(A) >= 1 / (||G||_F + ||x||_2 ||y||_2)``;
    * Q, an orthonormal basis of x refined once to ``x - G (A x)``, spans k
      dimensions, so ``sigma_{n-k+1}(A) <= ||A Q||_2`` (Courant-Fischer);
    * ``||y||_2 = 1 / sigma_min(U_k* e)`` and ``||x||_2 = 1 / sigma_min(f* V_k)``.

    Accepts only when the rank at ``tol_rank``, both spanning pivots by
    :func:`_linalg.pivot`'s rule and a gap of at least ``GAP_SEPARATION``
    each hold by the factor ``CERT_MARGIN``; a failed LU (``bordered`` is
    None) or any closer call returns None.  Returns the diagnostics of the
    certified route, ``cond_d`` aside.
    """
    n, k = e.shape
    n_eps = default_rank_tol(n)
    norm_a = fnorm(A)
    if bordered is None or not norm_a > 0:
        return None
    G, x, yh = bordered.G, bordered.x, bordered.y.conj().T
    with np.errstate(all="ignore"):
        norm_x = float(np.linalg.norm(x, 2))
        norm_y = float(np.linalg.norm(yh, 2))
        sigma_r_lower = 1.0 / (fnorm(G) + norm_x * norm_y)
        q, _ = np.linalg.qr(x - G @ (A @ x))
        sigma_rplus1_upper = float(np.linalg.norm(A @ q, 2))
        # ||A||_F^2 <= (n-k) sigma_max^2 + k sigma_{n-k+1}^2
        sigma_max_lower = max(
            math.sqrt(max(norm_a**2 - k * sigma_rplus1_upper**2, 0.0) / (n - k)),
            _sigma_max_lower(A),
        )
        # The SVD's own sigma_{n-k+1} carries rounding of up to about
        # n * eps * ||A||, so the gap is bounded against at least that.
        gap_ratio_lower = sigma_r_lower / max(sigma_rplus1_upper, n_eps * norm_a)
        cond_uk_e_upper = float(np.linalg.norm(e, 2)) * norm_y
        cond_f_vk_upper = float(np.linalg.norm(f, 2)) * norm_x
    # The pivots are judged at n * eps whatever tol_rank is, as pivot() does.
    certified = (
        sigma_r_lower > CERT_MARGIN * tol_rank * norm_a
        and CERT_MARGIN * sigma_rplus1_upper <= tol_rank * sigma_max_lower
        and gap_ratio_lower >= CERT_MARGIN * GAP_SEPARATION
        and CERT_MARGIN * n_eps * cond_uk_e_upper < 1.0
        and CERT_MARGIN * n_eps * cond_f_vk_upper < 1.0
    )
    if not certified:
        return None
    return {
        "rank": n - k,
        "certified": True,
        "sigma_max_upper": norm_a,
        "sigma_r_lower": sigma_r_lower,
        "sigma_rplus1_upper": sigma_rplus1_upper,
        "gap_ratio_lower": gap_ratio_lower,
        "ill_split": False,
        "cond_uk_e_upper": cond_uk_e_upper,
        "cond_f_vk_upper": cond_f_vk_upper,
    }


def rank_split(problem):
    """The rank split of ``problem.A``: the one the problem carries, or a
    fresh one (one full SVD) when it carries none or one of another A."""
    if problem.split is not None and problem.split.source is problem.A:
        return problem.split
    return compact_svd(problem.A, problem.tol_rank, expected_corank=problem.k)


def assemble(problem):
    """Dense ``A + e @ D @ f*`` of a validated problem."""
    return problem.A + problem.e @ problem.D @ problem.f.conj().T


def core_matrix(name, D, n, k):
    """``D`` as an array, checked to be an invertible k-by-k core."""
    D = np.asarray(D)
    if D.shape != (k, k):
        raise errors.DimensionMismatch(f"{name} must be {k}x{k}, got {D.shape}")
    block_cond(D, n, errors.DSingular, name)
    return D


def apply_inverse(inv, D, b):
    """Apply the structured inverse to ``b`` without forming it densely.

    Computes ``G @ b + x @ (inv(D) @ (y* @ b))`` in O(n^2 m + n k m + k^3)
    for an n-by-m right-hand side.  ``b`` may be a vector or a matrix.
    """
    b = np.asarray(b)
    if b.shape[0] != inv.n:
        raise errors.DimensionMismatch(
            f"right-hand side must have {inv.n} rows, got {b.shape[0]}"
        )
    core = np.linalg.solve(core_matrix("D", D, inv.n, inv.k), inv.y.conj().T @ b)
    return inv.G @ b + inv.x @ core


def reassemble_inverse(inv, D_new):
    """Dense inverse of ``A + e @ D_new @ f*`` for a fresh invertible core.

    Reuses (G, x, y) so a D swap costs O(n^2 k) instead of a fresh O(n^3)
    factorization.
    """
    return inv.G + inv.x @ np.linalg.solve(
        core_matrix("D", D_new, inv.n, inv.k), inv.y.conj().T
    )

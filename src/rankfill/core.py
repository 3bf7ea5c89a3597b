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
path.  A caller that needs the split anyway asks for ``split=True``:
the SVD then decides alone, with the same verdicts, and no LU is made.
Which problems keep them is stated once, on :class:`RankModifiedProblem`.

Values are frozen and their arrays read-only, but ``diagnostics`` are
plain dicts that a route may hand back as kept: copy one before editing
it.  All operations are pure functions, safe to share across threads.
"""

import dataclasses
import math
import numbers

import numpy as np

from . import errors
from ._linalg import (
    block_cond,
    check_shapes,
    default_rank_tol,
    field_of,
    fnorm,
    is_number,
    numeric_array,
    numerical_rank,
    pivot,
    rank_tol,
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

# reassemble_inverse fills its result in blocks of rows of this many
# bytes.  At n=1000, k=4 (real, 32 rows a block) it beat 16, 64 and 128
# rows a block.
REASSEMBLY_BLOCK_BYTES = 1 << 18


@dataclasses.dataclass(frozen=True, eq=False)
class CompactSvd:
    """Rank-split SVD factors of a singular square matrix A.

    ``U_r @ diag(sigma_r) @ V_r*`` reconstructs A; U_k and V_k are
    orthonormal bases of the left/right null complements and ``sigma_k``
    holds the discarded singular values.  ``gap_ratio`` is
    sigma_r / sigma_{r+1}; splits with a ratio below the separation
    threshold are flagged ``ill_split`` but still returned.  n and r are
    read off U_r and k = n - r; a split whose arrays are not n-by-r, r,
    n-by-r, n-by-k, n-by-k and k, built directly or by
    ``dataclasses.replace``, raises DimensionMismatch.
    """

    U_r: np.ndarray
    sigma_r: np.ndarray
    V_r: np.ndarray
    U_k: np.ndarray
    V_k: np.ndarray
    sigma_k: np.ndarray

    def __post_init__(self):
        u = np.shape(self.U_r)
        n, r, k = (*u, u[0] - u[1]) if len(u) == 2 else ("n", "r", "k")
        check_shapes(vars(self), {"U_r": (n, r), "sigma_r": (r,), "V_r": (n, r),
                                  "U_k": (n, k), "V_k": (n, k), "sigma_k": (k,)})

    @property
    def n(self):
        return self.U_r.shape[0]

    @property
    def k(self):
        return self.U_k.shape[1]

    @property
    def r(self):
        return self.n - self.k

    @property
    def gap_ratio(self):
        sigma_next = float(self.sigma_k[0])
        return math.inf if sigma_next == 0.0 else float(self.sigma_r[-1]) / sigma_next

    @property
    def ill_split(self):
        return self.gap_ratio < GAP_SEPARATION


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
    DimensionMismatch
        If A is not a square 2-d array.
    NonFiniteInput
        If A has a NaN or infinite entry.
    ValueError
        If A does not hold numbers (validate's input rule), ``tol_rank`` is
        not a finite nonnegative real number (validate's rule), or
        ``expected_corank`` is not an integer in [1, n).
    RankOfANotNMinusK
        If the detected rank contradicts ``expected_corank``, or if A is
        numerically invertible or numerically zero.
    """
    A = numeric_array("A", A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise errors.DimensionMismatch(f"A must be square, got {A.shape}")
    if not np.isfinite(A).all():
        raise errors.NonFiniteInput("A contains non-finite entries")
    n = A.shape[0]
    tol_rank = rank_tol(tol_rank, n)
    if expected_corank is not None and not (
            is_number(expected_corank, numbers.Integral) and 1 <= expected_corank < n):
        raise ValueError(f"expected_corank must be an integer in [1, {n}), "
                         f"got {expected_corank!r}")

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
    return CompactSvd(
        U_r=U[:, :rank],
        sigma_r=s[:rank],
        V_r=V[:, :rank],
        U_k=U[:, rank:],
        V_k=V[:, rank:],
        sigma_k=s[rank:],
    )


@dataclasses.dataclass(frozen=True, eq=False)
class RankModifiedProblem:
    """Validated quadruple (A, e, D, f) with dimensions (n, k).

    The implied invertible matrix is ``A + e @ D @ f*``; use
    :func:`assemble` to materialize it.  Instances are produced by
    :func:`validate`; ``diagnostics`` carries rank and conditioning
    information gathered during validation.  n is read off A, k off e,
    and field is complex when any array is.  Built directly or by
    ``dataclasses.replace``, a problem whose A is not square, or e and f
    not n-by-k or D not k-by-k, raises DimensionMismatch, and one whose
    ``tol_rank`` is neither None (n * eps) nor a finite nonnegative real
    number raises ValueError.

    ``split`` and ``bordered`` are the factorizations validation made,
    kept so that a route does not compute them again: the rank split of A
    when the SVD decided (None on the certified route), and the direct
    path's (G, x, y) read off the LU of the bordered matrix (see
    :func:`bordered_inverse`; None when that LU failed or was skipped).
    Only the problem :func:`validate` returns keeps them.  They are not
    ``__init__`` arguments, so any copy (``dataclasses.replace``, whatever
    it changes) keeps neither; its routes compute what they need afresh
    and return it, never storing it on the problem.
    """

    A: np.ndarray
    e: np.ndarray
    D: np.ndarray
    f: np.ndarray
    tol_rank: float
    diagnostics: dict = dataclasses.field(default_factory=dict, repr=False)
    split: CompactSvd | None = dataclasses.field(
        default=None, init=False, compare=False, repr=False
    )
    bordered: "StructuredInverse | None" = dataclasses.field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        a, e = np.shape(self.A), np.shape(self.e)
        n = a[0] if a else "n"
        if a != (n, n):
            raise errors.DimensionMismatch(f"A must be square, got {a}")
        k = e[1] if len(e) == 2 else "k"
        check_shapes(vars(self), {"e": (n, k), "f": (n, k), "D": (k, k)})
        object.__setattr__(self, "tol_rank", rank_tol(self.tol_rank, n))

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def k(self):
        return self.e.shape[1]

    @property
    def r(self):
        return self.n - self.k

    @property
    def field(self):
        return field_of(self.A, self.e, self.D, self.f)


@dataclasses.dataclass(frozen=True, eq=False)
class StructuredInverse:
    """The triple (G, x, y) with ``inverse = G + x @ inv(D) @ y*``.

    Valid for every invertible D paired with the same (A, e, f); the
    factors themselves carry no dependence on D.  G is n-by-n, and x and
    y are n-by-k: n, k and field are read off the arrays, and a triple
    of other shapes, built directly or by ``dataclasses.replace``, raises
    DimensionMismatch.
    """

    G: np.ndarray
    x: np.ndarray
    y: np.ndarray
    diagnostics: dict = dataclasses.field(default_factory=dict, repr=False)

    def __post_init__(self):
        x = np.shape(self.x)
        n, k = x if len(x) == 2 else ("n", "k")
        check_shapes(vars(self), {"G": (n, n), "x": (n, k), "y": (n, k)})

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def k(self):
        return self.x.shape[1]

    @property
    def field(self):
        return field_of(self.G, self.x, self.y)


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
        if not all(is_number(t) and 0 <= t < math.inf for t in (self.abs, self.rel)):
            raise ValueError("tolerances must be nonnegative and finite")

    def accepts(self, residual, scale):
        return bool(residual <= self.abs + self.rel * scale)


def _as_field_matrix(name, m, dtype):
    m = np.array(m, dtype=dtype)
    if not np.all(np.isfinite(m)):
        raise errors.NonFiniteInput(f"{name} contains non-finite entries")
    return readonly(m)


def validate(A, e, D, f, tol_rank=None, *, split=False):
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
    for the direct path to reuse.  With ``split=True`` the SVD decides
    at once, with no LU and no certificate, and the problem keeps the
    split and no ``bordered``: the same verdicts and exceptions, with the
    SVD's values for bounds in the diagnostics.  Shapes are judged by
    :class:`RankModifiedProblem` itself, after the casts and before any
    factorization.

    Raises
    ------
    DimensionMismatch, NonFiniteInput, RankOfANotNMinusK, DSingular,
    SpanDeficientE, SpanDeficientF
        Violated hypotheses are hard errors, not warnings.
    ValueError
        If ``tol_rank`` is not a finite nonnegative real number (a bool or
        str is not), by the rule of :func:`compact_svd`, or if an array
        holds bools, bytes, strings or objects other than numbers (those
        are cast by value), by :func:`_linalg.numeric_array`.
    """
    A, e, D, f = (numeric_array(name, m) for name, m in zip("AeDf", (A, e, D, f)))
    dtype = np.complex128 if field_of(A, e, D, f) == "complex" else np.float64
    A, e, D, f = (_as_field_matrix(name, m, dtype) for name, m in zip("AeDf", (A, e, D, f)))

    problem = RankModifiedProblem(A=A, e=e, D=D, f=f, tol_rank=tol_rank)
    n, k, tol_rank = problem.n, problem.k, problem.tol_rank
    if not n > k >= 1:
        raise errors.RankOfANotNMinusK(
            f"n > k >= 1 required, got n={n}, k={k}", detected_rank=None
        )

    bordered = diagnostics = svd = None
    if not split:
        bordered = bordered_inverse(A, e, f)
        diagnostics = _certificate(A, e, f, tol_rank, bordered)
    if diagnostics is None:
        svd = compact_svd(A, tol_rank, expected_corank=k)
    cond_d = block_cond(D, n, errors.DSingular, "D")
    if svd is not None:
        _, cond_uk_e = pivot(svd.U_k, e, n, errors.SpanDeficientE, "U_k* e")
        _, cond_f_vk = pivot(f, svd.V_k, n, errors.SpanDeficientF, "f* V_k")
        diagnostics = {
            "rank": svd.r,
            "certified": False,
            "sigma_max": float(svd.sigma_r[0]),
            "sigma_r": float(svd.sigma_r[-1]),
            "sigma_rplus1": float(svd.sigma_k[0]),
            "gap_ratio": svd.gap_ratio,
            "ill_split": svd.ill_split,
            "cond_uk_e": cond_uk_e,
            "cond_f_vk": cond_f_vk,
        }

    problem.diagnostics.update(diagnostics, cond_d=cond_d)
    # Not __init__ arguments, so no copy of this problem carries them.
    object.__setattr__(problem, "split", svd)
    object.__setattr__(problem, "bordered", bordered)
    return problem


def bordered_inverse(A, e, f):
    """(G, x, y) read off ``inv(B) = [[G, x], [y*, 0]]``, one LU of the
    bordered matrix ``B = [[A, e], [f*, 0]]`` of order n + k (Blattner,
    "Bordered matrices", J. SIAM 10(3), 1962); None when B is exactly
    singular or its inverse is not finite.

    B has no D in it, so the triple serves every core paired with
    (A, e, f).  Its diagnostics are the direct path's: ``path`` and
    ``bordered_cond1 = ||B||_1 ||inv(B)||_1``.
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
        # ||B||_1 with B made |B| in place, then dropped: the bits of
        # np.linalg.norm(B, 1) with one n-by-n temporary fewer.
        norm_b = np.abs(B, out=B).sum(axis=0).real.max()
        del B
        cond1 = float(norm_b * np.linalg.norm(Z, 1))
    # np.conjugate, not .conj(): for a real Z, .conj() is Z itself, and a
    # k=1 y* would be a view of Z's last row, keeping all of Z alive.
    return StructuredInverse(
        G=readonly(Z[:n, :n]), x=readonly(Z[:n, n:]),
        y=readonly(np.conjugate(Z[n:, :n]).T),
        diagnostics={"path": "direct", "bordered_cond1": cond1},
    )


def _sigma_max_lower(A):
    """Lower bound ``||A v|| / ||v||`` on sigma_max(A) after three power
    steps on A* A, started from the conjugate of A's largest row."""
    v = A[np.argmax(np.linalg.norm(A, axis=1))].conj()
    for _ in range(3):
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
    None) or any closer call returns None.
    Returns the diagnostics of the certified route, ``cond_d`` aside.
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
        sigma_max_lower = _sigma_max_lower(A)
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
    """The rank split of ``problem.A``: the one the problem keeps (see
    :class:`RankModifiedProblem`), else a fresh one (one full SVD)."""
    if problem.split is not None:
        return problem.split
    return compact_svd(problem.A, problem.tol_rank, expected_corank=problem.k)


def assemble(problem):
    """Dense ``A + e @ D @ f*`` of a validated problem, built in one
    n-by-n array: A is added into the fresh product."""
    filled = problem.e @ problem.D @ problem.f.conj().T
    filled += problem.A
    return filled


def core_matrix(name, D, n, k):
    """``D`` by validate's input rule, checked to be an invertible k-by-k core."""
    D = numeric_array(name, D)
    check_shapes({name: D}, {name: (k, k)})
    block_cond(D, n, errors.DSingular, name)
    return D


def apply_inverse(inv, D, b):
    """Apply the structured inverse to ``b`` without forming it densely.

    Computes ``G @ b + x @ (inv(D) @ (y* @ b))`` in O(n^2 m + n k m + k^3)
    for an n-by-m right-hand side.  ``b`` may be a vector or a matrix.
    """
    b = numeric_array("b", b)
    if b.ndim not in (1, 2) or b.shape[0] != inv.n:
        raise errors.DimensionMismatch(
            f"right-hand side must be 1-d or 2-d with {inv.n} rows, got shape {b.shape}"
        )
    core = np.linalg.solve(core_matrix("D", D, inv.n, inv.k), inv.y.conj().T @ b)
    return inv.G @ b + inv.x @ core


def reassemble_inverse(inv, D_new):
    """Dense inverse of ``A + e @ D_new @ f*`` for a fresh invertible core.

    Reuses (G, x, y) so a D swap costs O(n^2 k) instead of a fresh O(n^3)
    factorization.  With ``W = inv(D_new) y*``, the result is filled in
    blocks of rows of ``REASSEMBLY_BLOCK_BYTES``: each block gets
    ``x[rows] @ W``, then ``G[rows]`` is added while the block is still in
    cache.  So G is read once and the result written once; ``G + x @ W``
    would write an n-by-n product and read it back.  A result that fits
    one block has the bits of ``G + x @ W``; across blocks, BLAS may round
    an entry of the product differently, within ``(k+1) eps (|G| + |x||W|)``.
    """
    W = np.linalg.solve(core_matrix("D", D_new, inv.n, inv.k), inv.y.conj().T)
    G, x = inv.G, inv.x
    out = np.empty(G.shape, dtype=np.result_type(G, x, W))
    step = max(1, REASSEMBLY_BLOCK_BYTES // max(1, out.itemsize * out.shape[1]))
    for start in range(0, out.shape[0], step):
        rows = slice(start, start + step)
        np.matmul(x[rows], W, out=out[rows])
        out[rows] += G[rows]
    return out

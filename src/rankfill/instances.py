"""Seeded generation of valid problems, plus the dense reference inverse.

Instances are built from the factored form the theory guarantees: Haar
unitaries U, V are split into range and complement blocks, A gets a
log-spaced spectrum on the range block, and e, f are given an invertible
component in the complement plus a ``coupling`` fraction leaking into the
range.  The coupling knob controls how hard the k-by-k pivots are, which
the underlying theory leaves unexplored.

Randomness comes from NumPy's counter-based Philox bit generator with an
explicit 64-bit seed; the same spec yields bit-identical problems.
"""

import dataclasses
import math

import numpy as np

from . import errors
from .core import assemble, validate
from .direct import AnsatzParams

__all__ = [
    "GeneratorSpec",
    "generate",
    "dense_inverse_oracle",
    "haar_unitary",
    "random_invertible",
]


@dataclasses.dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one reproducible problem instance.

    sigma_spread is the ratio of largest to smallest kept singular value
    of A; coupling in [0, 1) is the weight of the e, f components inside
    range(A) / range(A*); d_cond prescribes the condition number of D.
    """

    n: int
    k: int
    seed: int
    field: str = "real"
    sigma_spread: float = 10.0
    coupling: float = 0.5
    d_cond: float = 10.0

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer))
                and isinstance(self.k, (int, np.integer))):
            raise errors.InvalidSpec("n and k must be integers")
        if not self.n > self.k >= 1:
            raise errors.InvalidSpec(f"n > k >= 1 required, got n={self.n}, k={self.k}")
        if not self.seed >= 0:
            raise errors.InvalidSpec(f"seed must be nonnegative, got {self.seed}")
        if self.field not in ("real", "complex"):
            raise errors.InvalidSpec(f"field must be 'real' or 'complex', got {self.field!r}")
        if not 1 <= self.sigma_spread < math.inf:
            raise errors.InvalidSpec("sigma_spread must be finite and >= 1")
        if not 0 <= self.coupling < 1:
            raise errors.InvalidSpec("coupling must lie in [0, 1)")
        if not 1 <= self.d_cond < math.inf:
            raise errors.InvalidSpec("d_cond must be finite and >= 1")


def gaussian(rng, shape, field):
    """Standard Gaussian draw; complex entries have unit variance."""
    g = rng.standard_normal(shape)
    if field == "complex":
        g = (g + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return g


def haar_unitary(rng, n, field="real"):
    """Haar-distributed unitary (orthogonal for the real field).

    QR of a Gaussian matrix with the R diagonal's phases folded into Q,
    which makes the distribution exactly Haar.
    """
    q, r = np.linalg.qr(gaussian(rng, (n, n), field))
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def _redraw(rng, shape, field, pivot_of, min_rel_sv=1e-6):
    """Gaussian draw of ``shape``, redrawn until the block ``pivot_of(draw)``
    has sigma_min > min_rel_sv * sigma_max."""
    while True:
        m = gaussian(rng, shape, field)
        s = np.linalg.svd(pivot_of(m), compute_uv=False)
        if s[-1] > min_rel_sv * s[0]:
            return m


def random_invertible(rng, k, field="real", min_rel_sv=1e-6):
    """Gaussian k-by-k matrix redrawn until safely invertible."""
    return _redraw(rng, (k, k), field, lambda m: m, min_rel_sv)


def _log_spaced(top_to_bottom_ratio, count):
    if count == 1:
        return np.ones(1)
    return np.logspace(0.0, -np.log10(top_to_bottom_ratio), count)


def random_core(rng, k, field, cond):
    """k-by-k core with 2-norm condition ``cond``: Haar @ log-spaced @ Haar*."""
    spectrum = _log_spaced(cond, k)
    return (haar_unitary(rng, k, field) * spectrum) @ haar_unitary(rng, k, field).conj().T


def generate(spec):
    """Build and validate one problem instance from its spec.

    The problem is returned without a rank split (``split`` is None) and
    without the bordered (G, x, y) (``bordered`` is None): validation
    certifies it from one LU and runs no SVD, except on the SVD fallback,
    and both are dropped here.  Draw order is fixed (U, V, spectrum,
    e parts, f parts, D parts) so instances are bit-reproducible for a
    given spec.
    """
    if not isinstance(spec, GeneratorSpec):
        raise errors.InvalidSpec("spec must be a GeneratorSpec")
    rng = np.random.Generator(np.random.Philox(spec.seed))
    n, k, field = spec.n, spec.k, spec.field
    r = n - k

    u_full = haar_unitary(rng, n, field)
    v_full = haar_unitary(rng, n, field)
    u_r, u_k = u_full[:, :r], u_full[:, r:]
    v_r, v_k = v_full[:, :r], v_full[:, r:]

    sigma = _log_spaced(spec.sigma_spread, r)
    A = (u_r * sigma) @ v_r.conj().T

    e = spec.coupling * (u_r @ gaussian(rng, (r, k), field)) \
        + u_k @ random_invertible(rng, k, field)
    f = spec.coupling * (v_r @ gaussian(rng, (r, k), field)) \
        + v_k @ random_invertible(rng, k, field)

    D = random_core(rng, k, field, spec.d_cond)
    # Callers keep many generated problems alive (benchmark set-ups,
    # ``rankfill bench``); a split holds U and V, and the bordered triple
    # holds G, n-by-n arrays per problem, so both are dropped and
    # recomputed only where needed.
    return dataclasses.replace(validate(A, e, D, f), split=None, bordered=None)


def general_params(problem):
    """Fixed-seed (u, v, M) for the general path: Gaussian u, v redrawn
    until u* e and f* v have condition below 1e6, and M of condition 5."""
    rng = np.random.Generator(np.random.Philox(7))
    n, k, field = problem.n, problem.k, problem.field
    u = _redraw(rng, (n, k), field, lambda c: c.conj().T @ problem.e)
    v = _redraw(rng, (n, k), field, lambda c: c.conj().T @ problem.f)
    return AnsatzParams(u=u, v=v, M=random_core(rng, k, field, 5.0))


def dense_inverse_oracle(problem):
    """LU-based dense inverse of the assembled sum (the reference path)."""
    try:
        return np.linalg.inv(assemble(problem))
    except np.linalg.LinAlgError:
        raise errors.OracleSingular(
            "assembled matrix is singular; validation should have excluded this"
        ) from None

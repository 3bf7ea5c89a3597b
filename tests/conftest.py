import numpy as np
import pytest

import rankfill as rf
from rankfill import validate
from rankfill.instances import gaussian


def rel_err(got, want):
    want = np.asarray(want)
    denom = np.linalg.norm(want)
    return np.linalg.norm(np.asarray(got) - want) / (denom if denom else 1.0)


def well_conditioned_params(problem, seed):
    """Random (u, v, M) kept safely conditioned against e, f."""
    rng = np.random.Generator(np.random.Philox(seed))
    n, k = problem.n, problem.k

    def draw(target):
        while True:
            cand = gaussian(rng, (n, k), problem.field)
            s = np.linalg.svd(cand.conj().T @ target, compute_uv=False)
            if s[-1] > 0 and s[0] / s[-1] < 1e3:
                return cand

    u = draw(problem.e)
    v = draw(problem.f)
    M = rf.random_invertible(rng, k, problem.field, min_rel_sv=0.05)
    return rf.AnsatzParams(u=u, v=v, M=M)


@pytest.fixture
def diag_problem():
    # A = diag(1, 0), update along the second axis; everything diagonal.
    return validate(np.diag([1.0, 0.0]), [[0.0], [1.0]], [[2.0]], [[0.0], [1.0]])


@pytest.fixture
def ones_problem():
    # A = all-ones rank-1 matrix, update along the first axis.
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    return validate(A, [[1.0], [0.0]], [[2.0]], [[1.0], [0.0]])

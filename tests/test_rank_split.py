"""At most one rank split per request, and none where no route needs it.

``validate`` certifies the hypotheses from one LU of the bordered matrix
and computes no SVD; the SVD route and the verification routes compute
the split through ``rank_split``, and a problem that keeps validate's own
split (from its SVD fallback) hands it on.  A copy of a validated problem
keeps none.  The counts below are of n-by-n ``numpy.linalg.svd`` calls
with ``compute_uv=True``; the k-by-k and n-by-k singular-value checks
are not counted.
"""

import dataclasses

import numpy as np
import pytest

import rankfill as rf
from rankfill.cli import main

import oracles

N = 40


@pytest.fixture
def full_svds(monkeypatch):
    """List that grows by one shape per full n-by-n SVD, from now on."""
    calls = []
    real_svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shape = np.shape(a)
        compute_uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
        if compute_uv and shape == (N, N):
            calls.append(shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.fixture(params=["real", "complex"])
def raw_arrays(request):
    p = rf.generate(rf.GeneratorSpec(n=N, k=3, seed=8, field=request.param))
    return tuple(np.array(m) for m in (p.A, p.e, p.D, p.f))


def test_validate_then_svd_path_makes_one(raw_arrays, full_svds):
    rf.structured_inverse_svd(rf.validate(*raw_arrays))
    assert len(full_svds) == 1


def with_split(A, e, D, f):
    """Validated problem that keeps validate's own split: a kept singular
    value of 0.1 just above tol_rank * sigma_max = 0.09 misses the
    certificate's margin, so the SVD decides and is kept (one full SVD)."""
    problem = rf.validate(A, e, D, f, tol_rank=0.09)
    assert problem.split is not None
    return problem


def test_direct_and_general_paths_make_none_after_validate(raw_arrays, full_svds):
    problem = rf.validate(*raw_arrays)
    rf.structured_inverse_direct(problem)
    rf.structured_inverse_general(problem, rf.instances.general_params(problem))
    assert problem.diagnostics["certified"]
    assert len(full_svds) == 0


def test_verification_routes_reuse_the_split(raw_arrays, full_svds):
    problem = with_split(*raw_arrays)
    rf.riedel_inverse(problem)
    oracles.nullspace_difference_check(problem)
    assert len(full_svds) == 1


def test_dropped_split_is_recomputed(raw_arrays, full_svds):
    problem = dataclasses.replace(with_split(*raw_arrays))
    assert problem.split is None
    rf.structured_inverse_svd(problem)
    assert len(full_svds) == 2


@pytest.fixture
def fallback_problem():
    p = rf.generate(rf.GeneratorSpec(n=N, k=3, seed=8))
    return with_split(p.A, p.e, p.D, p.f)


def test_copy_with_another_a_recomputes_the_split(fallback_problem):
    # Carrying seed 8's split over to seed 9's A gave an inverse off by a
    # relative 18 against LU, with no error raised.
    p = rf.generate(rf.GeneratorSpec(n=N, k=3, seed=9))
    problem = dataclasses.replace(fallback_problem, A=p.A, e=p.e, D=p.D, f=p.f)
    got = rf.reassemble_inverse(rf.structured_inverse_svd(problem), problem.D)
    want = np.linalg.inv(rf.assemble(problem))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_copy_with_the_same_a_recomputes_the_split(fallback_problem, full_svds):
    p = rf.generate(rf.GeneratorSpec(n=N, k=3, seed=9))
    problem = dataclasses.replace(fallback_problem, e=p.e, D=p.D)
    assert problem.split is None
    rf.structured_inverse_svd(problem)
    assert len(full_svds) == 1


def test_generate_drops_the_split():
    # Callers keep many generated problems alive (benchmark set-ups,
    # `rankfill bench`), and a split holds two n-by-n arrays, U and V:
    # kept, it raised the benchmark's peak memory by a third.
    assert rf.generate(rf.GeneratorSpec(n=N, k=3, seed=8)).split is None


@pytest.mark.parametrize("field", ["real", "complex"])
def test_kept_split_gives_bit_identical_factors(field):
    p = rf.generate(rf.GeneratorSpec(n=N, k=3, seed=9, field=field, coupling=0.8))
    problem = with_split(p.A, p.e, p.D, p.f)
    kept = rf.structured_inverse_svd(problem)
    fresh = rf.structured_inverse_from_factors(
        rf.compact_svd(problem.A, problem.tol_rank, expected_corank=problem.k),
        problem.e, problem.f,
    )
    for name in ("G", "x", "y"):
        assert np.array_equal(getattr(kept, name), getattr(fresh, name)), name


def test_split_request_keeps_the_svd_and_no_triple(raw_arrays, full_svds):
    # validate(..., split=True) is the SVD route's own validation: its one
    # SVD decides and is kept, no bordered LU is made, and the factors are
    # those of the default route, bit for bit.
    problem = rf.validate(*raw_arrays, split=True)
    assert problem.split is not None and problem.bordered is None
    assert problem.diagnostics["certified"] is False
    kept = rf.structured_inverse_svd(problem)
    assert len(full_svds) == 1
    default = rf.structured_inverse_svd(rf.validate(*raw_arrays))
    for name in ("G", "x", "y"):
        assert np.array_equal(getattr(kept, name), getattr(default, name)), name


def test_split_is_read_only_and_matches_diagnostics(raw_arrays):
    problem = with_split(*raw_arrays)
    assert not problem.diagnostics["certified"]
    split = problem.split
    for name in ("U_r", "sigma_r", "V_r", "U_k", "V_k", "sigma_k"):
        assert not getattr(split, name).flags.writeable, name
    assert (split.n, split.k) == (problem.n, problem.k)
    assert problem.diagnostics["sigma_rplus1"] == split.sigma_k[0]
    assert problem.diagnostics["gap_ratio"] == split.gap_ratio
    assert rf.svd.compact_svd is rf.core.compact_svd  # the one split builder


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "p.json"
    rf.write_problem_file(path, rf.generate(rf.GeneratorSpec(n=N, k=3, seed=8)))
    return path


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["invert", "{src}", "--path", "svd", "--out", "{out}"], 1),
        # Nothing cross-checks the SVD-free paths against the SVD path:
        # `check` of the written file verifies the eight identities, which
        # decide whether a triple is right, and needs no split for that.
        (["invert", "{src}", "--path", "direct", "--out", "{out}"], 0),
        (["invert", "{src}", "--path", "general", "--out", "{out}"], 0),
        (["check", "{src}"], 0),
        (["check", "{inverted}"], 0),
        (["det", "{src}"], 0),
    ],
    ids=["invert-svd", "invert-direct", "invert-general", "check", "check-stored", "det"],
)
def test_each_cli_request_makes_one(problem_file, tmp_path, capsys, full_svds, argv, expected):
    inverted = tmp_path / "inverted.json"
    assert main(["invert", str(problem_file), "--out", str(inverted)]) == 0
    before = len(full_svds)
    names = {"src": problem_file, "out": tmp_path / "out.json", "inverted": inverted}
    assert main([arg.format(**names) for arg in argv]) == 0
    capsys.readouterr()
    assert len(full_svds) - before == expected


def test_det_on_stored_factors_makes_none(problem_file, tmp_path, capsys, full_svds):
    inverted = tmp_path / "inverted.json"
    assert main(["invert", str(problem_file), "--path", "direct", "--out", str(inverted)]) == 0
    before = len(full_svds)
    assert main(["det", str(inverted)]) == 0
    capsys.readouterr()
    assert len(full_svds) - before == 0

"""One LU of the bordered matrix per direct request.

``validate`` inverts ``B = [[A, e], [f*, 0]]`` for its certificate and
keeps the (G, x, y) read off ``inv(B)`` on the problem as ``bordered``;
``structured_inverse_direct`` hands it on while its source is the
problem's own (A, e, f).  B has no D in it, so a copy with another D
keeps it.  The counts below are of ``numpy.linalg.inv`` calls on
(n+k)-square inputs.
"""

import dataclasses

import numpy as np
import pytest

import rankfill as rf
from rankfill.cli import main

N, K = 40, 3


@pytest.fixture
def bordered_lus(monkeypatch):
    """List that grows by one shape per (n+k)-square inverse, from now on."""
    calls = []
    real_inv = np.linalg.inv

    def counting(a):
        if np.shape(a) == (N + K, N + K):
            calls.append(np.shape(a))
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return calls


@pytest.fixture(params=["real", "complex"])
def raw_arrays(request):
    p = rf.generate(rf.GeneratorSpec(n=N, k=K, seed=8, field=request.param))
    return tuple(np.array(m) for m in (p.A, p.e, p.D, p.f))


def assert_same_triple(got, want):
    for name in ("G", "x", "y"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.diagnostics == want.diagnostics


def test_validate_then_direct_path_makes_one(raw_arrays, bordered_lus):
    problem = rf.validate(*raw_arrays)
    inv = rf.structured_inverse_direct(problem)
    assert inv is problem.bordered
    assert len(bordered_lus) == 1


def test_copy_with_another_d_makes_none(raw_arrays, bordered_lus):
    problem = rf.validate(*raw_arrays)
    D2 = rf.instances.random_core(np.random.default_rng(1), K, problem.field, 3.0)
    swapped = dataclasses.replace(problem, D=D2)
    inv = rf.structured_inverse_direct(swapped)
    assert inv is problem.bordered
    assert len(bordered_lus) == 1
    got = rf.reassemble_inverse(inv, D2)
    want = np.linalg.inv(rf.assemble(swapped))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("name", ["A", "e", "f"])
def test_copy_with_another_a_e_or_f_makes_a_fresh_one(raw_arrays, bordered_lus, name):
    # Equal values in a new array: the identity test, not a value
    # comparison, decides, and the fresh triple is bit-identical.
    problem = rf.validate(*raw_arrays)
    copy = dataclasses.replace(problem, **{name: np.array(getattr(problem, name))})
    inv = rf.structured_inverse_direct(copy)
    assert inv is not problem.bordered
    assert len(bordered_lus) == 2
    assert_same_triple(inv, problem.bordered)


def test_copy_with_other_values_gets_their_triple():
    p8 = rf.generate(rf.GeneratorSpec(n=N, k=K, seed=8))
    p9 = rf.generate(rf.GeneratorSpec(n=N, k=K, seed=9))
    problem = rf.validate(p8.A, p8.e, p8.D, p8.f)
    copy = dataclasses.replace(problem, A=p9.A, e=p9.e, D=p9.D, f=p9.f)
    got = rf.reassemble_inverse(rf.structured_inverse_direct(copy), copy.D)
    want = np.linalg.inv(rf.assemble(copy))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_generate_drops_it():
    # Like the split: callers keep many generated problems alive, and the
    # triple holds an n-by-n G.
    assert rf.generate(rf.GeneratorSpec(n=N, k=K, seed=8)).bordered is None


@pytest.mark.parametrize("field", ["real", "complex"])
def test_carried_and_fresh_triples_are_bit_identical(field):
    p = rf.generate(rf.GeneratorSpec(n=N, k=K, seed=9, field=field, coupling=0.8))
    carried = rf.structured_inverse_direct(rf.validate(p.A, p.e, p.D, p.f))
    fresh = rf.structured_inverse_direct(p)  # generate dropped its triple
    assert carried.diagnostics["bordered_cond1"] > 1.0
    assert_same_triple(carried, fresh)
    for name in ("G", "x", "y"):
        assert not getattr(carried, name).flags.writeable, name


def test_svd_fallback_carries_one_too(raw_arrays, bordered_lus):
    # A kept singular value of 0.1 just above tol_rank * sigma_max = 0.09
    # misses the certificate's margin, so the SVD decides.
    problem = rf.validate(*raw_arrays, tol_rank=0.09)
    assert not problem.diagnostics["certified"]
    assert problem.split is not None and problem.bordered is not None
    assert rf.structured_inverse_direct(problem) is problem.bordered
    assert len(bordered_lus) == 1


def test_carried_triple_is_refused_like_a_fresh_one(raw_arrays):
    problem = rf.validate(*raw_arrays)
    ill = dataclasses.replace(
        problem.bordered, diagnostics={"path": "direct", "bordered_cond1": 1e17}
    )
    with pytest.raises(rf.InnerMatrixSingular, match="cond ~ 1.000e"):
        rf.structured_inverse_direct(dataclasses.replace(problem, bordered=ill))


def test_invert_direct_makes_one(tmp_path, capsys, bordered_lus):
    src = tmp_path / "p.json"
    rf.write_problem_file(src, rf.generate(rf.GeneratorSpec(n=N, k=K, seed=8)))
    before = len(bordered_lus)
    assert main(["invert", str(src), "--path", "direct", "--out", str(tmp_path / "o.json")]) == 0
    capsys.readouterr()
    assert len(bordered_lus) - before == 1

"""One LU of the bordered matrix per direct request.

``validate`` inverts ``B = [[A, e], [f*, 0]]`` for its certificate and
keeps the (G, x, y) read off ``inv(B)`` on the problem as ``bordered``;
``structured_inverse_direct`` hands it on.  Only validate's own problem
keeps one: a ``dataclasses.replace`` copy carries none, whatever it
changes, and its direct path factors B afresh.  A D swap reuses the
triple through ``reassemble_inverse`` or ``apply_inverse`` instead.  The
counts below are of ``numpy.linalg.inv`` calls on (n+k)-square inputs.
"""

import dataclasses
import json

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


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_no_kept_block_is_a_view_of_inv_b(monkeypatch, field, k):
    # A view keeps the whole (n+k)-square inv(B) alive with the problem;
    # for real k=1, y* as a transposed row of it would be one.
    inverses = []
    real_inv = np.linalg.inv

    def keeping(a):
        z = real_inv(a)
        if np.shape(a) == (N + k, N + k):
            inverses.append(z)
        return z

    p = rf.generate(rf.GeneratorSpec(n=N, k=k, seed=8, field=field))
    monkeypatch.setattr(np.linalg, "inv", keeping)
    kept = rf.validate(p.A, p.e, p.D, p.f).bordered
    assert len(inverses) == 1
    for name in ("G", "x", "y"):
        assert not np.shares_memory(getattr(kept, name), inverses[0]), name


def test_validate_then_direct_path_makes_one(raw_arrays, bordered_lus):
    problem = rf.validate(*raw_arrays)
    inv = rf.structured_inverse_direct(problem)
    assert inv is problem.bordered
    assert len(bordered_lus) == 1


def test_copy_with_another_d_makes_a_fresh_one(raw_arrays, bordered_lus):
    problem = rf.validate(*raw_arrays)
    D2 = rf.instances.random_core(np.random.default_rng(1), K, problem.field, 3.0)
    swapped = dataclasses.replace(problem, D=D2)
    inv = rf.structured_inverse_direct(swapped)
    assert swapped.bordered is None
    assert len(bordered_lus) == 2
    assert_same_triple(inv, problem.bordered)
    got = rf.reassemble_inverse(inv, D2)
    want = np.linalg.inv(rf.assemble(swapped))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("name", ["A", "e", "f"])
def test_copy_with_another_a_e_or_f_makes_a_fresh_one(raw_arrays, bordered_lus, name):
    # Equal values in a new array: the copy still carries no triple, and
    # the fresh one is bit-identical.
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


def test_carried_triple_is_refused_like_a_fresh_one(raw_arrays, monkeypatch):
    real_bordered_inverse = rf.core.bordered_inverse

    def ill(*args):
        return dataclasses.replace(
            real_bordered_inverse(*args),
            diagnostics={"path": "direct", "bordered_cond1": 1e17},
        )

    monkeypatch.setattr(rf.core, "bordered_inverse", ill)
    problem = rf.validate(*raw_arrays)
    assert problem.bordered.diagnostics["bordered_cond1"] == 1e17
    with pytest.raises(rf.InnerMatrixSingular, match="cond ~ 1.000e"):
        rf.structured_inverse_direct(problem)


def test_invert_direct_makes_one(tmp_path, capsys, bordered_lus):
    src = tmp_path / "p.json"
    rf.write_problem_file(src, rf.generate(rf.GeneratorSpec(n=N, k=K, seed=8)))
    before = len(bordered_lus)
    assert main(["invert", str(src), "--path", "direct", "--out", str(tmp_path / "o.json")]) == 0
    capsys.readouterr()
    assert len(bordered_lus) - before == 1


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("command", ["check", "det"])
def test_check_and_det_of_a_problem_file_make_one(tmp_path, capsys, bordered_lus, field, command):
    # The triple they verify or use is validation's, computed from B.
    src = tmp_path / "p.json"
    rf.write_problem_file(src, rf.generate(rf.GeneratorSpec(n=N, k=K, seed=8, field=field)))
    before = len(bordered_lus)
    assert main([command, str(src)]) == 0
    assert json.loads(capsys.readouterr().out)["inverse_source"] == "computed"
    assert len(bordered_lus) - before == 1


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        # The SVD decides this one, with no certificate.
        (["invert", "{src}", "--path", "svd", "--out", "{out}"], 0),
        # These keep the certificate's LU.
        (["check", "{inverted}"], 1),
        (["invert", "{src}", "--path", "general", "--out", "{out}"], 1),
        (["det", "{inverted}"], 1),
    ],
    ids=["invert-svd", "check-stored", "invert-general", "det-stored"],
)
def test_each_cli_request_makes(tmp_path, capsys, bordered_lus, argv, expected):
    src, inverted = tmp_path / "p.json", tmp_path / "inverted.json"
    rf.write_problem_file(src, rf.generate(rf.GeneratorSpec(n=N, k=K, seed=8)))
    assert main(["invert", str(src), "--out", str(inverted)]) == 0
    before = len(bordered_lus)
    names = {"src": src, "out": tmp_path / "out.json", "inverted": inverted}
    assert main([arg.format(**names) for arg in argv]) == 0
    capsys.readouterr()
    assert len(bordered_lus) - before == expected

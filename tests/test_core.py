import dataclasses
import fractions
import gc
import pickle
import weakref

import numpy as np
import pytest

import rankfill as rf
from conftest import rel_err
import oracles


class TestValidate:
    def test_diagonal_fixture(self, diag_problem):
        p = diag_problem
        assert (p.n, p.k, p.r) == (2, 1, 1)
        assert p.field == "real"
        assert p.diagnostics["rank"] == 1

    def test_rank_detected_on_dense_rank_one(self, ones_problem):
        # singular values of the all-ones 2x2 matrix are {2, 0}
        assert ones_problem.diagnostics["rank"] == 1
        assert rf.compact_svd(ones_problem.A).sigma_r[0] == pytest.approx(2.0)
        assert ones_problem.diagnostics["sigma_max_upper"] >= 2.0

    def test_e_inside_column_space_rejected(self):
        with pytest.raises(rf.SpanDeficientE):
            rf.validate(np.diag([1.0, 0.0]), [[1.0], [0.0]], [[1.0]], [[0.0], [1.0]])

    def test_f_inside_row_space_rejected(self):
        with pytest.raises(rf.SpanDeficientF):
            rf.validate(np.diag([1.0, 0.0]), [[0.0], [1.0]], [[1.0]], [[1.0], [0.0]])

    def test_singular_d_rejected(self):
        with pytest.raises(rf.DSingular):
            rf.validate(np.diag([1.0, 0.0]), [[0.0], [1.0]], [[0.0]], [[0.0], [1.0]])

    def test_wrong_rank_rejected_and_reported(self):
        with pytest.raises(rf.RankOfANotNMinusK) as exc:
            rf.validate(np.eye(2), [[0.0], [1.0]], [[1.0]], [[0.0], [1.0]])
        assert exc.value.detected_rank == 2

    def test_k_equal_n_rejected(self):
        with pytest.raises(rf.RankOfANotNMinusK):
            rf.validate(np.diag([1.0, 0.0]), np.eye(2), np.eye(2), np.eye(2))

    @pytest.mark.parametrize(
        "shape_breaker",
        [
            dict(A=np.zeros((2, 3))),
            dict(e=np.zeros((3, 1))),
            dict(D=np.zeros((2, 2))),
            dict(f=np.zeros((2, 2))),
            dict(e=np.zeros(2)),
        ],
    )
    def test_dimension_mismatch(self, shape_breaker):
        good = dict(
            A=np.diag([1.0, 0.0]), e=[[0.0], [1.0]], D=[[2.0]], f=[[0.0], [1.0]]
        )
        good.update(shape_breaker)
        with pytest.raises(rf.DimensionMismatch):
            rf.validate(**good)

    def test_non_finite_rejected(self):
        A = np.diag([1.0, 0.0])
        A[0, 1] = np.nan
        with pytest.raises(rf.NonFiniteInput):
            rf.validate(A, [[0.0], [1.0]], [[2.0]], [[0.0], [1.0]])

    @pytest.mark.parametrize("name, value", [
        ("A", [["1", "0"], ["0", "0"]]),
        ("A", np.array([[True, False], [False, False]])),
        ("e", np.array([[False], [True]])),
        ("D", [[b"2"]]),
        ("f", [["0"], ["1"]]),
        ("D", np.array([["2"]], dtype=object)),
    ], ids=["A-str", "A-bool", "e-bool", "D-bytes", "f-str", "D-object-str"])
    def test_non_numbers_refused(self, name, value):
        # NumPy casts these to float: each validated as a rank-1 problem.
        arrays = dict(A=np.diag([1.0, 0.0]), e=[[0.0], [1.0]], D=[[2.0]], f=[[0.0], [1.0]])
        arrays[name] = value
        with pytest.raises(ValueError, match=f"^{name} must hold numbers, got dtype "):
            rf.validate(**arrays)

    def test_object_arrays_are_cast_by_value(self):
        F = fractions.Fraction
        p = rf.validate([[F(1), F(0)], [F(0), F(0)]], [[F(0)], [F(1)]], [[F(1, 2)]],
                        [[F(0)], [F(1)]])
        assert p.A.dtype == np.float64 and p.D[0, 0] == 0.5

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            rf.validate(np.diag([1.0, 0.0]), [[0.0], [1.0]], [[2.0]],
                        [[0.0], [1.0]], tol_rank=-1.0)

    @pytest.mark.parametrize("tol_rank", [np.nan, np.inf])
    def test_non_finite_tol_rejected(self, tol_rank):
        with pytest.raises(ValueError, match="finite"):
            rf.validate(np.diag([1.0, 0.0]), [[0.0], [1.0]], [[2.0]],
                        [[0.0], [1.0]], tol_rank=tol_rank)

    def test_complex_field_tag(self):
        p = rf.validate(
            np.diag([1.0 + 0j, 0.0]), [[0.0], [1.0 + 1j]], [[2.0]],
            [[0.0], [1.0 - 1j]],
        )
        assert p.field == "complex"
        assert p.A.dtype == np.complex128

    def test_problem_arrays_immutable(self, diag_problem):
        with pytest.raises(ValueError):
            diag_problem.A[0, 0] = 5.0


class TestAssemble:
    def test_diagonal_fixture(self, diag_problem):
        assert np.array_equal(rf.assemble(diag_problem), np.diag([1.0, 2.0]))

    def test_dense_fixture(self, ones_problem):
        assert np.array_equal(
            rf.assemble(ones_problem), np.array([[3.0, 1.0], [1.0, 1.0]])
        )

    def test_matches_composition_exactly(self):
        p = rf.generate(rf.GeneratorSpec(n=7, k=2, seed=3))
        direct = p.A + p.e @ p.D @ p.f.conj().T
        assert np.array_equal(rf.assemble(p), direct)


class TestApplyInverse:
    def test_diagonal_fixture(self, diag_problem):
        inv = rf.structured_inverse_svd(diag_problem)
        got = rf.apply_inverse(inv, diag_problem.D, np.array([1.0, 1.0]))
        assert np.allclose(got, [1.0, 0.5], atol=1e-15)

    def test_dense_fixture_against_lu_solve(self, ones_problem):
        inv = rf.structured_inverse_svd(ones_problem)
        b = np.array([1.0, 0.0])
        got = rf.apply_inverse(inv, ones_problem.D, b)
        oracle = np.linalg.solve(rf.assemble(ones_problem), b)
        assert np.allclose(got, oracle, atol=1e-14)
        assert np.allclose(got, [0.5, -0.5], atol=1e-14)

    def test_applying_to_assembled_matrix_gives_identity(self, ones_problem):
        inv = rf.structured_inverse_svd(ones_problem)
        got = rf.apply_inverse(inv, ones_problem.D, rf.assemble(ones_problem))
        assert np.allclose(got, np.eye(2), atol=1e-14)

    def test_matrix_rhs_matches_reassembled(self):
        p = rf.generate(rf.GeneratorSpec(n=9, k=3, seed=11))
        inv = rf.structured_inverse_svd(p)
        rng = np.random.default_rng(0)
        b = rng.standard_normal((9, 4))
        dense = rf.reassemble_inverse(inv, p.D)
        assert rel_err(rf.apply_inverse(inv, p.D, b), dense @ b) < 1e-12

    def test_wrong_rows_rejected(self, diag_problem):
        inv = rf.structured_inverse_svd(diag_problem)
        with pytest.raises(rf.DimensionMismatch):
            rf.apply_inverse(inv, diag_problem.D, np.zeros(3))

    def test_singular_d_rejected(self, diag_problem):
        inv = rf.structured_inverse_svd(diag_problem)
        with pytest.raises(rf.DSingular):
            rf.apply_inverse(inv, np.zeros((1, 1)), np.zeros(2))

    @pytest.mark.parametrize("b", [1.0, np.zeros((2, 2, 2))], ids=["scalar", "3-d"])
    def test_neither_1d_nor_2d_rejected(self, diag_problem, b):
        inv = rf.structured_inverse_svd(diag_problem)
        with pytest.raises(rf.DimensionMismatch, match="1-d or 2-d"):
            rf.apply_inverse(inv, diag_problem.D, b)

    def test_rhs_by_the_input_rule(self, diag_problem):
        # A bool right-hand side was read as 1.0 and 0.0.
        inv = rf.structured_inverse_svd(diag_problem)
        with pytest.raises(ValueError, match="^b must hold numbers, got dtype bool$"):
            rf.apply_inverse(inv, diag_problem.D, np.array([True, False]))
        got = rf.apply_inverse(inv, diag_problem.D, np.array([1, 0], dtype=object))
        want = rf.apply_inverse(inv, diag_problem.D, np.array([1.0, 0.0]))
        assert got.tobytes() == want.tobytes()


def _problem_and_kept(keep):
    p = rf.generate(rf.GeneratorSpec(n=30, k=2, seed=3))
    problem = rf.validate(p.A, p.e, p.D, p.f)
    if keep == "direct":
        return problem, rf.structured_inverse_direct(problem)
    return problem, rf.core.rank_split(problem)


@pytest.mark.parametrize("keep", ["direct", "split"])
class TestKeptFactors:
    """A kept triple or split holds its own arrays, none of its problem's."""

    def test_does_not_keep_the_problem_arrays_alive(self, keep):
        problem, kept = _problem_and_kept(keep)
        refs = [weakref.ref(m) for m in (problem.A, problem.e, problem.f)]
        del problem
        gc.collect()
        assert [ref() is None for ref in refs] == [True] * 3
        assert kept.n == 30

    def test_pickle_round_trip_is_bit_identical(self, keep):
        # Protocol 5 with out-of-band buffers, as a checker process receives
        # a triple.
        _, kept = _problem_and_kept(keep)
        buffers = []
        header = pickle.dumps(kept, protocol=5, buffer_callback=buffers.append)
        copy = pickle.loads(header, buffers=buffers)
        for name, value in vars(kept).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(copy, name), value), name
            else:
                assert getattr(copy, name) == value, name


def _triple_and_core(n, k, field, seed):
    """The SVD path's (G, x, y) of a generated problem, and a fresh core."""
    problem = rf.generate(rf.GeneratorSpec(n=n, k=k, seed=seed, field=field))
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((k, k)) + 4.0 * np.eye(k)
    if field == "complex":
        D = D + 1j * rng.standard_normal((k, k))
    return rf.structured_inverse_svd(problem), D


def _plain_sum(inv, D):
    """``G + x @ W`` with ``W = inv(D) y*``, and W."""
    W = np.linalg.solve(D, inv.y.conj().T)
    return inv.G + inv.x @ W, W


def _assert_rounding_close(got, inv, D):
    """Each entry of ``got`` within ``(k+1) eps (|G| + |x||W|)`` of the plain sum."""
    want, W = _plain_sum(inv, D)
    bound = (inv.x.shape[1] + 1) * np.finfo(np.float64).eps \
        * (np.abs(inv.G) + np.abs(inv.x) @ np.abs(W))
    assert got.dtype == want.dtype
    assert np.all(np.abs(got - want) <= bound)


class TestReassembleInverse:
    def test_diagonal_fixture_fresh_core(self, diag_problem):
        inv = rf.structured_inverse_svd(diag_problem)
        assert np.allclose(
            rf.reassemble_inverse(inv, [[4.0]]), np.diag([1.0, 0.25]), atol=1e-15
        )

    def test_dense_fixture_fresh_core(self, ones_problem):
        inv = rf.structured_inverse_svd(ones_problem)
        got = rf.reassemble_inverse(inv, [[1.0]])
        oracle = np.linalg.inv(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(got, oracle, atol=1e-14)
        assert np.allclose(got, [[1.0, -1.0], [-1.0, 2.0]], atol=1e-14)

    def test_original_core_matches_dense_inverse(self):
        p = rf.generate(rf.GeneratorSpec(n=12, k=2, seed=5))
        inv = rf.structured_inverse_svd(p)
        oracle = np.linalg.inv(rf.assemble(p))
        assert rel_err(rf.reassemble_inverse(inv, p.D), oracle) < 1e-11

    @pytest.mark.parametrize("n, k, field", [
        (12, 2, "real"), (181, 4, "real"), (128, 3, "complex"), (40, 8, "complex"),
    ])
    def test_one_block_has_the_bits_of_the_plain_sum(self, n, k, field):
        inv, D = _triple_and_core(n, k, field, seed=n)
        assert n * n * (16 if field == "complex" else 8) <= rf.core.REASSEMBLY_BLOCK_BYTES
        got = rf.reassemble_inverse(inv, D)
        want, _ = _plain_sum(inv, D)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_blocks_agree_with_the_plain_sum(self, k, field):
        # 109 (real) and 81 (complex) rows a block: the last block is short.
        n = 300 if field == "real" else 200
        inv, D = _triple_and_core(n, k, field, seed=k)
        _assert_rounding_close(rf.reassemble_inverse(inv, D), inv, D)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_one_row_a_block(self, monkeypatch, field):
        monkeypatch.setattr(rf.core, "REASSEMBLY_BLOCK_BYTES", 1)
        inv, D = _triple_and_core(37, 3, field, seed=2)
        _assert_rounding_close(rf.reassemble_inverse(inv, D), inv, D)

    @pytest.mark.parametrize("block_bytes", [None, 1, 1000])
    def test_complex_core_on_a_real_triple(self, monkeypatch, block_bytes):
        if block_bytes is not None:
            monkeypatch.setattr(rf.core, "REASSEMBLY_BLOCK_BYTES", block_bytes)
        inv, _ = _triple_and_core(30, 2, "real", seed=4)
        D = np.array([[1.0 + 2.0j, 0.5], [-0.25j, 3.0]])
        got = rf.reassemble_inverse(inv, D)
        assert got.dtype == np.complex128
        _assert_rounding_close(got, inv, D)

    @pytest.mark.parametrize("block_bytes", [None, 1])
    @pytest.mark.parametrize("change", ["G-fewer-rows", "G-more-rows"])
    def test_triple_that_disagrees_with_its_n(self, monkeypatch, block_bytes, change):
        # A G with other rows than x is refused before any block is filled.
        if block_bytes is not None:
            monkeypatch.setattr(rf.core, "REASSEMBLY_BLOCK_BYTES", block_bytes)
        inv, D = _triple_and_core(20, 2, "real", seed=6)
        G = inv.G[:-3] if change == "G-fewer-rows" else np.vstack([inv.G, inv.G[:3]])
        with pytest.raises(rf.DimensionMismatch):
            rf.reassemble_inverse(dataclasses.replace(inv, G=G), D)

    def test_factors_do_not_depend_on_d(self):
        A = np.diag([3.0, 1.0, 0.0])
        e = np.array([[0.2], [0.1], [1.0]])
        f = np.array([[0.0], [0.3], [0.9]])
        inv1 = rf.structured_inverse_svd(rf.validate(A, e, [[2.0]], f))
        inv2 = rf.structured_inverse_svd(rf.validate(A, e, [[-0.7]], f))
        assert rel_err(inv2.G, inv1.G) < 1e-14
        assert rel_err(inv2.x, inv1.x) < 1e-14
        assert rel_err(inv2.y, inv1.y) < 1e-14


class TestStructuredInverse:
    def test_holds_only_its_arrays(self):
        inv, _ = _triple_and_core(6, 2, "complex", seed=1)
        assert [f.name for f in dataclasses.fields(rf.StructuredInverse)] == \
            ["G", "x", "y", "diagnostics"]
        assert (inv.n, inv.k, inv.field) == (6, 2, "complex")

    @pytest.mark.parametrize("change", ["G-one-row", "x-y-other-k", "y-vector"])
    def test_arrays_of_other_shapes_refused(self, change):
        # Built, each would broadcast into a wrong reassembled or applied answer.
        inv, _ = _triple_and_core(6, 2, "real", seed=1)
        if change == "G-one-row":
            arrays = {"G": inv.G[:1]}
        elif change == "x-y-other-k":
            arrays = {"y": inv.y[:, :1]}
        else:
            arrays = {"y": inv.y[:, 0]}
        with pytest.raises(rf.DimensionMismatch):
            rf.StructuredInverse(**{"G": inv.G, "x": inv.x, "y": inv.y, **arrays})
        with pytest.raises(rf.DimensionMismatch):
            dataclasses.replace(inv, **arrays)


class TestRankModifiedProblem:
    def test_holds_only_its_arrays(self):
        assert [f.name for f in dataclasses.fields(rf.RankModifiedProblem)] == \
            ["A", "e", "D", "f", "tol_rank", "diagnostics", "split", "bordered"]
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=3, field="complex"))
        assert (p.n, p.k, p.r, p.field) == (6, 2, 4, "complex")

    @pytest.mark.parametrize("arrays,message", [
        (lambda p: {"D": np.diag([2.0, 3.0, 5.0])}, r"D must be 2x2, got \(3, 3\)"),
        # k is read off e, so f is the array that disagrees with it.
        (lambda p: {"e": p.e[:, :1]}, r"f must be 6x1, got \(6, 2\)"),
        (lambda p: {"A": p.A[:, :5]}, r"A must be square, got \(6, 5\)"),
        (lambda p: {"e": p.e[:, 0]}, r"e must be 6xk, got \(6,\)"),
        (lambda p: {"f": p.f[:5]}, r"f must be 6x2, got \(5, 2\)"),
    ], ids=["D-3x3", "e-one-column", "A-6x5", "e-vector", "f-5-rows"])
    def test_arrays_of_other_shapes_refused(self, arrays, message):
        # Built, each would give a determinant of the wrong core or an
        # untyped error from NumPy deep inside a route.
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=3))
        with pytest.raises(rf.DimensionMismatch, match=f"^{message}$"):
            rf.RankModifiedProblem(**{"A": p.A, "e": p.e, "D": p.D, "f": p.f,
                                      "tol_rank": p.tol_rank, **arrays(p)})
        with pytest.raises(rf.DimensionMismatch, match=f"^{message}$"):
            dataclasses.replace(p, **arrays(p))

    def test_field_follows_the_arrays(self):
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=3))
        rotated = dataclasses.replace(p, D=p.D * np.exp(0.7j))
        assert (p.field, rotated.field) == ("real", "complex")
        phase, logabs = rf.logdet_via_lemma(rotated)
        want_phase, want_logabs = np.linalg.slogdet(rf.assemble(rotated))
        assert abs(phase - want_phase) <= 1e-12
        assert logabs == pytest.approx(want_logabs, abs=1e-12)


class TestIdentityTolerance:
    def test_acceptance_rule(self):
        tol = rf.IdentityTolerance(abs=1e-3, rel=1e-2)
        assert tol.accepts(1e-3, 0.0)
        assert tol.accepts(1.0e-2, 1.0)
        assert not tol.accepts(2.0e-2, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rf.IdentityTolerance(abs=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, True, "1"])
    @pytest.mark.parametrize("which", ["abs", "rel"])
    def test_non_finite_rejected(self, which, value):
        # An infinite tolerance accepts every residual, a NaN one none;
        # True would pass every residual below 1, and "1" raised TypeError.
        with pytest.raises(ValueError, match="finite"):
            rf.IdentityTolerance(**{which: value})


def test_problem_replace_bypass_keeps_record_semantics(ones_problem):
    # test-only escape hatch used by the determinant suite
    hacked = dataclasses.replace(ones_problem, D=np.zeros((1, 1)))
    assert hacked.D[0, 0] == 0.0


# sigma_min/sigma_max = 1e-15 lies between k*eps (4.4e-16) and n*eps
# (4.4e-14): every entry point must judge this core by the same n*eps rule.
NEAR_SINGULAR_CORE = np.diag([1.0, 1e-15])
NAN_CORE = np.diag([1.0, np.nan])
INF_CORE = np.diag([1.0, np.inf])
SAME_RULE_CASES = {
    "validate": lambda p, inv, M: rf.validate(p.A, p.e, M, p.f),
    "reassemble_inverse": lambda p, inv, M: rf.reassemble_inverse(inv, M),
    "apply_inverse": lambda p, inv, M: rf.apply_inverse(inv, M, np.ones(p.n)),
    "det_inverse_via_lemma": lambda p, inv, M: rf.det_inverse_via_lemma(inv, M),
    "logdet_inverse_via_lemma": lambda p, inv, M: rf.logdet_inverse_via_lemma(inv, M),
    "riedel_inverse": lambda p, inv, M: rf.riedel_inverse(dataclasses.replace(p, D=M)),
    "g_from_known_xy": lambda p, inv, M: oracles.g_from_known_xy(p, inv.x, inv.y, M),
    "structured_inverse_general": lambda p, inv, M: rf.structured_inverse_general(
        p, rf.AnsatzParams(u=p.e, v=p.f, M=M)
    ),
}


@pytest.fixture(scope="module")
def rule_instance():
    problem = rf.generate(rf.GeneratorSpec(n=200, k=2, seed=3))
    return problem, rf.structured_inverse_svd(problem)


@pytest.mark.parametrize("entry", sorted(SAME_RULE_CASES))
def test_one_invertibility_rule_across_entry_points(rule_instance, entry):
    problem, inv = rule_instance
    expected = rf.PivotSingular if entry == "structured_inverse_general" else rf.DSingular
    with pytest.raises(expected):
        SAME_RULE_CASES[entry](problem, inv, NEAR_SINGULAR_CORE)
    # A NaN or inf core gets the same typed error, judged before LAPACK
    # (which reads inf as NaN singular values); validate's finiteness
    # check of its inputs answers first.
    if entry == "validate":
        expected, message = rf.NonFiniteInput, "^D contains non-finite entries$"
    else:
        message = "has non-finite entries$"
    for core in (NAN_CORE, INF_CORE):
        with pytest.raises(expected, match=message):
            SAME_RULE_CASES[entry](problem, inv, core)


# Each entry point that takes arrays of a fixed shape judges them by one
# rule and names the array: "<name> must be <shape>, got <shape>".
SHAPE_RULE_CASES = {
    "validate": ("e", lambda p, inv, s, path: rf.validate(p.A, p.e[:, 0], p.D, p.f)),
    "RankModifiedProblem": ("D", lambda p, inv, s, path: rf.RankModifiedProblem(
        A=p.A, e=p.e, D=np.eye(3), f=p.f, tol_rank=None)),
    "StructuredInverse": ("y", lambda p, inv, s, path: dataclasses.replace(
        inv, y=inv.y[:, :1])),
    "CompactSvd": ("U_k", lambda p, inv, s, path: dataclasses.replace(s, U_k=s.U_k[:, :1])),
    "reassemble_inverse": ("D", lambda p, inv, s, path: rf.reassemble_inverse(
        inv, np.eye(3))),
    "apply_inverse": ("D", lambda p, inv, s, path: rf.apply_inverse(
        inv, np.eye(3), np.ones(6))),
    "det_inverse_via_lemma": ("D", lambda p, inv, s, path: rf.det_inverse_via_lemma(
        inv, np.eye(1))),
    "structured_inverse_general-v": ("v", lambda p, inv, s, path: rf.structured_inverse_general(
        p, rf.AnsatzParams(u=p.e, v=p.f[:5], M=np.eye(2)))),
    "structured_inverse_general-M": ("M", lambda p, inv, s, path: rf.structured_inverse_general(
        p, rf.AnsatzParams(u=p.e, v=p.f, M=np.eye(3)))),
    "structured_inverse_from_factors": ("f", lambda p, inv, s, path:
                                        rf.structured_inverse_from_factors(s, p.e, p.f[:, :1])),
    "check_identities": ("x", lambda p, inv, s, path: rf.check_identities(
        p, rf.StructuredInverse(G=inv.G, x=inv.x[:, :1], y=inv.y[:, :1]))),
    "check_penrose-A": ("A", lambda p, inv, s, path: rf.check_penrose(p.A[:, :5], inv.G)),
    "check_penrose-G": ("G", lambda p, inv, s, path: rf.check_penrose(p.A, inv.G[:5, :5])),
    "write_problem_file": ("x", lambda p, inv, s, path: rf.write_problem_file(
        path, p, inverse=rf.StructuredInverse(G=inv.G, x=np.ones((6, 3)), y=np.ones((6, 3))))),
}


@pytest.mark.parametrize("entry", sorted(SHAPE_RULE_CASES))
def test_one_shape_rule_across_entry_points(tmp_path, entry):
    p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=3))
    name, call = SHAPE_RULE_CASES[entry]
    with pytest.raises(rf.DimensionMismatch, match=rf"^{name} must be \w+x\w+, got \("):
        call(p, rf.structured_inverse_svd(p), rf.compact_svd(p.A), tmp_path / "p.json")
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("tol_rank", [-1, np.nan, np.inf, True, "1e-10", "abc"])
@pytest.mark.parametrize("entry", ["validate", "compact_svd", "RankModifiedProblem", "replace"])
def test_one_rank_tolerance_rule_across_entry_points(entry, tol_rank):
    # compact_svd read -1 as rank n and NaN as rank 0; True ran as 1.
    p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=3))
    calls = {
        "validate": lambda: rf.validate(p.A, p.e, p.D, p.f, tol_rank=tol_rank),
        "compact_svd": lambda: rf.compact_svd(p.A, tol_rank),
        "RankModifiedProblem": lambda: rf.RankModifiedProblem(
            A=p.A, e=p.e, D=p.D, f=p.f, tol_rank=tol_rank),
        "replace": lambda: dataclasses.replace(p, tol_rank=tol_rank),
    }
    with pytest.raises(ValueError, match="^tol_rank must be nonnegative and finite$"):
        calls[entry]()


# Every entry point that takes a core, a matrix A, (e, f) or (u, v, M)
# keeps validate's input rule: what NumPy would cast to a number is
# refused, naming the array, and an object array is cast by value.  The
# others read [[True]] as 1.0, and raised an untyped TypeError on strings,
# bytes and objects.
CORE_INPUTS = {
    "bool": np.array([[True]]),
    "str": [["2"]],
    "bytes": [[b"2"]],
    "object": np.array([[2]], dtype=object),
    "fraction": np.array([[fractions.Fraction(1, 3)]], dtype=object),
}
FLOAT_TWINS = {"object": [[2.0]], "fraction": [[1 / 3]]}


def embed(value, shape, at):
    """Zeros of ``shape`` in the dtype of the 1-by-1 ``value``, with its
    entry at ``at``."""
    m = np.asarray(value)
    out = np.zeros(shape, dtype=m.dtype)
    out[at] = m[0, 0]
    return out


def factors(inv):
    return np.concatenate([inv.G.ravel(), inv.x.ravel(), inv.y.ravel()])


def general(p, **params):
    """(G, x, y) of the general path on diag_problem, with u = e, v = f and
    M = I but for ``params``."""
    ansatz = {"u": p.e, "v": p.f, "M": np.eye(1), **params}
    return factors(rf.structured_inverse_general(p, rf.AnsatzParams(**ansatz)))


# Entry point: (the array named in the refusal, a call taking that array's
# 1-by-1 value on diag_problem, where A = diag(1, 0) and e = f = [0, 1]).
CORE_ENTRIES = {
    "validate": ("D", lambda p, inv, D: rf.validate(p.A, p.e, D, p.f).D),
    "reassemble_inverse": ("D", lambda p, inv, D: rf.reassemble_inverse(inv, D)),
    "apply_inverse": ("D", lambda p, inv, D: rf.apply_inverse(inv, D, np.ones(p.n))),
    "logdet_inverse_via_lemma": ("D", lambda p, inv, D: np.array(
        rf.logdet_inverse_via_lemma(inv, D))),
    "compact_svd": ("A", lambda p, inv, a: np.concatenate([
        np.ravel(m) for m in dataclasses.astuple(rf.compact_svd(embed(a, (2, 2), (0, 0))))])),
    "from_factors-e": ("e", lambda p, inv, e: factors(rf.structured_inverse_from_factors(
        rf.compact_svd(p.A), embed(e, (2, 1), (1, 0)), p.f))),
    "from_factors-f": ("f", lambda p, inv, f: factors(rf.structured_inverse_from_factors(
        rf.compact_svd(p.A), p.e, embed(f, (2, 1), (1, 0))))),
    "general-u": ("u", lambda p, inv, u: general(p, u=embed(u, (2, 1), (1, 0)))),
    "general-v": ("v", lambda p, inv, v: general(p, v=embed(v, (2, 1), (1, 0)))),
    "general-M": ("M", lambda p, inv, M: general(p, M=M)),
}


@pytest.mark.parametrize("core", sorted(CORE_INPUTS))
@pytest.mark.parametrize("entry", sorted(CORE_ENTRIES))
def test_one_input_rule_across_entry_points(diag_problem, entry, core):
    inv = rf.structured_inverse_direct(diag_problem)
    name, call = CORE_ENTRIES[entry]
    if core in FLOAT_TWINS:
        got = call(diag_problem, inv, CORE_INPUTS[core])
        want = call(diag_problem, inv, np.array(FLOAT_TWINS[core]))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError, match=f"^{name} must hold numbers, got dtype "):
            call(diag_problem, inv, CORE_INPUTS[core])


@pytest.fixture(scope="module")
def noise_blocks():
    """e and f inside range(A) and range(A*): U_k* e and f* V_k are rounding
    noise of norm ~1e-16, yet each is well conditioned (cond ~ 10)."""
    p = rf.generate(rf.GeneratorSpec(n=120, k=3, seed=5))
    U, _, Vh = np.linalg.svd(p.A)
    return p, U[:, :3], Vh[:3].conj().T


class TestAbsoluteSpanningScale:
    def test_block_alone_looks_invertible(self, noise_blocks):
        p, e_inside, _ = noise_blocks
        # so a test relative to the block's own sigma_max alone accepts it
        assert np.linalg.cond(rf.compact_svd(p.A).U_k.conj().T @ e_inside) < 1e2

    def test_e_inside_range_rejected(self, noise_blocks):
        p, e_inside, _ = noise_blocks
        with pytest.raises(rf.SpanDeficientE, match="rounding noise"):
            rf.validate(p.A, e_inside, p.D, p.f)

    def test_f_inside_row_space_rejected(self, noise_blocks):
        p, _, f_inside = noise_blocks
        with pytest.raises(rf.SpanDeficientF, match="rounding noise"):
            rf.validate(p.A, p.e, p.D, f_inside)

    def test_svd_route_rejects_the_same_pair(self, noise_blocks):
        p, e_inside, _ = noise_blocks
        with pytest.raises(rf.PivotSingular):
            rf.structured_inverse_from_factors(rf.compact_svd(p.A), e_inside, p.f)


def orthogonal_block(m, seed):
    """Gaussian block shaped like ``m``, projected off the columns of ``m``."""
    q, _ = np.linalg.qr(m)
    g = np.random.Generator(np.random.Philox(seed)).standard_normal(m.shape)
    return g - q @ (q.conj().T @ g)


# Every entry point forms its spanning pivots (U_k* e, f* V_k, u* e, f* v) by
# one rule, so each rejects a pivot of rounding noise with its typed error.
NOISE_PIVOT_CASES = {
    "validate(e)": (rf.SpanDeficientE, lambda p, e, f: rf.validate(p.A, e, p.D, p.f)),
    "validate(f)": (rf.SpanDeficientF, lambda p, e, f: rf.validate(p.A, p.e, p.D, f)),
    "structured_inverse_from_factors(e)": (rf.PivotSingular, lambda p, e, f:
        rf.structured_inverse_from_factors(rf.compact_svd(p.A), e, p.f)),
    "structured_inverse_from_factors(f)": (rf.PivotSingular, lambda p, e, f:
        rf.structured_inverse_from_factors(rf.compact_svd(p.A), p.e, f)),
    "g_from_pseudoinverse(e)": (rf.PivotSingular, lambda p, e, f:
        oracles.g_from_pseudoinverse(rf.compact_svd(p.A), e, p.f)),
    "g_from_pseudoinverse(f)": (rf.PivotSingular, lambda p, e, f:
        oracles.g_from_pseudoinverse(rf.compact_svd(p.A), p.e, f)),
    "riedel_decomposition(e)": (rf.PivotSingular, lambda p, e, f:
        oracles.riedel_decomposition(rf.compact_svd(p.A), e, p.f)),
    "riedel_decomposition(f)": (rf.PivotSingular, lambda p, e, f:
        oracles.riedel_decomposition(rf.compact_svd(p.A), p.e, f)),
    "riedel_inverse(e)": (rf.PivotSingular, lambda p, e, f:
        rf.riedel_inverse(dataclasses.replace(p, e=e))),
    "nullspace_difference_check(e)": (rf.PivotSingular, lambda p, e, f:
        oracles.nullspace_difference_check(dataclasses.replace(p, e=e))),
    "structured_inverse_general(u orthogonal to e)": (rf.PivotSingular, lambda p, e, f:
        rf.structured_inverse_general(p, rf.AnsatzParams(
            u=orthogonal_block(p.e, 1), v=p.f, M=np.eye(p.k)))),
    "structured_inverse_general(v orthogonal to f)": (rf.PivotSingular, lambda p, e, f:
        rf.structured_inverse_general(p, rf.AnsatzParams(
            u=p.e, v=orthogonal_block(p.f, 2), M=np.eye(p.k)))),
}


@pytest.mark.parametrize("entry", sorted(NOISE_PIVOT_CASES))
def test_one_spanning_rule_across_entry_points(noise_blocks, entry):
    exc, call = NOISE_PIVOT_CASES[entry]
    with pytest.raises(exc, match="rounding noise"):
        call(*noise_blocks)


def with_nan(m):
    m = np.array(m)
    m[0, 0] = np.nan
    return m


@pytest.mark.parametrize("entry", sorted(NOISE_PIVOT_CASES))
def test_non_finite_pivot_operand_raises_the_typed_error(noise_blocks, entry):
    # The same entry points with a NaN in every pivot operand: e, f, and the
    # problem's e and f, from which u and v are drawn.  validate's own
    # finiteness check answers first.
    exc, call = NOISE_PIVOT_CASES[entry]
    p, e, f = noise_blocks
    p = dataclasses.replace(p, e=with_nan(p.e), f=with_nan(p.f))
    if entry.startswith("validate"):
        exc, match = rf.NonFiniteInput, "contains non-finite entries"
    else:
        match = "has non-finite operands"
    with np.errstate(all="raise"), pytest.raises(exc, match=match):
        call(p, with_nan(e), with_nan(f))


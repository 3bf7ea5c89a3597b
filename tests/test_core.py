import dataclasses

import numpy as np
import pytest

import rankfill as rf
from conftest import rel_err


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

    def test_factors_do_not_depend_on_d(self):
        A = np.diag([3.0, 1.0, 0.0])
        e = np.array([[0.2], [0.1], [1.0]])
        f = np.array([[0.0], [0.3], [0.9]])
        inv1 = rf.structured_inverse_svd(rf.validate(A, e, [[2.0]], f))
        inv2 = rf.structured_inverse_svd(rf.validate(A, e, [[-0.7]], f))
        assert rel_err(inv2.G, inv1.G) < 1e-14
        assert rel_err(inv2.x, inv1.x) < 1e-14
        assert rel_err(inv2.y, inv1.y) < 1e-14


class TestIdentityTolerance:
    def test_acceptance_rule(self):
        tol = rf.IdentityTolerance(abs=1e-3, rel=1e-2)
        assert tol.accepts(1e-3, 0.0)
        assert tol.accepts(1.0e-2, 1.0)
        assert not tol.accepts(2.0e-2, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rf.IdentityTolerance(abs=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["abs", "rel"])
    def test_non_finite_rejected(self, which, value):
        # An infinite tolerance accepts every residual, a NaN one none.
        with pytest.raises(ValueError, match="finite"):
            rf.IdentityTolerance(**{which: value})


def test_problem_replace_bypass_keeps_record_semantics(ones_problem):
    # test-only escape hatch used by the determinant suite
    hacked = dataclasses.replace(ones_problem, D=np.zeros((1, 1)))
    assert hacked.D[0, 0] == 0.0


# sigma_min/sigma_max = 1e-15 lies between k*eps (4.4e-16) and n*eps
# (4.4e-14): every entry point must judge this core by the same n*eps rule.
NEAR_SINGULAR_CORE = np.diag([1.0, 1e-15])
SAME_RULE_CASES = {
    "validate": lambda p, inv, M: rf.validate(p.A, p.e, M, p.f),
    "reassemble_inverse": lambda p, inv, M: rf.reassemble_inverse(inv, M),
    "apply_inverse": lambda p, inv, M: rf.apply_inverse(inv, M, np.ones(p.n)),
    "det_inverse_via_lemma": lambda p, inv, M: rf.det_inverse_via_lemma(inv, M),
    "logdet_inverse_via_lemma": lambda p, inv, M: rf.logdet_inverse_via_lemma(inv, M),
    "riedel_inverse": lambda p, inv, M: rf.riedel_inverse(dataclasses.replace(p, D=M)),
    "g_from_known_xy": lambda p, inv, M: rf.g_from_known_xy(p, inv.x, inv.y, M),
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
        rf.g_from_pseudoinverse(rf.compact_svd(p.A), e, p.f)),
    "g_from_pseudoinverse(f)": (rf.PivotSingular, lambda p, e, f:
        rf.g_from_pseudoinverse(rf.compact_svd(p.A), p.e, f)),
    "riedel_decomposition(e)": (rf.PivotSingular, lambda p, e, f:
        rf.riedel_decomposition(rf.compact_svd(p.A), e, p.f)),
    "riedel_decomposition(f)": (rf.PivotSingular, lambda p, e, f:
        rf.riedel_decomposition(rf.compact_svd(p.A), p.e, f)),
    "riedel_inverse(e)": (rf.PivotSingular, lambda p, e, f:
        rf.riedel_inverse(dataclasses.replace(p, e=e))),
    "nullspace_difference_check(e)": (rf.PivotSingular, lambda p, e, f:
        rf.nullspace_difference_check(dataclasses.replace(p, e=e))),
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


import dataclasses

import numpy as np
import pytest

import rankfill as rf
from conftest import rel_err, well_conditioned_params
import oracles


class TestDirectPath:
    def test_diagonal_fixture_exact(self, diag_problem):
        inv = rf.structured_inverse_direct(diag_problem)
        assert np.linalg.norm(inv.G - np.diag([1.0, 0.0])) <= 1e-15
        assert np.linalg.norm(inv.x - [[0.0], [1.0]]) <= 1e-15
        assert np.linalg.norm(inv.y - [[0.0], [1.0]]) <= 1e-15

    def test_dense_fixture_matches_svd_route(self, ones_problem):
        inv = rf.structured_inverse_direct(ones_problem)
        assert np.linalg.norm(inv.G - [[0.0, 0.0], [0.0, 1.0]]) <= 1e-14
        assert np.linalg.norm(inv.x - [[1.0], [-1.0]]) <= 1e-14
        assert np.linalg.norm(inv.y - [[1.0], [-1.0]]) <= 1e-14

    def test_agrees_with_svd_on_seeded_instance(self):
        p = rf.generate(rf.GeneratorSpec(n=20, k=3, seed=17))
        g_svd = rf.structured_inverse_svd(p).G
        g_direct = rf.structured_inverse_direct(p).G
        assert rel_err(g_direct, g_svd) <= 1e-10

    def test_factors_satisfy_identity_suite(self):
        p = rf.generate(rf.GeneratorSpec(n=14, k=2, seed=19, coupling=0.7))
        report = rf.check_identities(p, rf.structured_inverse_direct(p))
        assert report.all_passed

    def test_ill_conditioned_e_within_reach(self):
        # cond(U_k* e) = 1e9 passes validation; e* e, at cond 1e18, would not
        p = rf.generate(rf.GeneratorSpec(n=40, k=2, seed=3))
        e = rf.compact_svd(p.A).U_k @ np.diag([1.0, 1e-9])
        problem = rf.validate(p.A, e, p.D, p.f)
        inv = rf.structured_inverse_direct(problem)
        ref = rf.structured_inverse_svd(problem)
        assert rel_err(inv.G, ref.G) <= 1e-12
        assert rel_err(inv.x, ref.x) <= 1e-12
        assert rel_err(inv.y, ref.y) <= 1e-9 * 1e-3  # ||y|| ~ 1e9

    def test_reads_off_the_bordered_inverse(self):
        p = rf.generate(rf.GeneratorSpec(n=30, k=3, seed=5, field="complex"))
        inv = rf.structured_inverse_direct(p)
        bordered = np.block([[p.A, p.e], [p.f.conj().T, np.zeros((3, 3))]])
        blocks = np.block([[inv.G, inv.x], [inv.y.conj().T, np.zeros((3, 3))]])
        assert rel_err(bordered @ blocks, np.eye(33)) <= 1e-12
        assert set(inv.diagnostics) == {"path", "bordered_cond1"}
        assert inv.diagnostics["bordered_cond1"] >= 1.0

    def test_inner_matrix_singular_when_hypotheses_violated(self, diag_problem):
        # e inside range(A) never validates, so smuggle it past validation
        bad = dataclasses.replace(diag_problem, e=np.array([[1.0], [0.0]]),
                                  f=np.array([[1.0], [0.0]]))
        with pytest.raises(rf.InnerMatrixSingular):
            rf.structured_inverse_direct(bad)


class TestGeneralPath:
    def test_plain_parameters_reduce_to_direct(self, ones_problem):
        params = rf.AnsatzParams(
            u=ones_problem.e, v=ones_problem.f, M=np.eye(1)
        )
        inv = rf.structured_inverse_general(ones_problem, params)
        ref = rf.structured_inverse_direct(ones_problem)
        # two constructions (oblique projection, bordered matrix): they
        # agree to rounding, not bit for bit
        assert rel_err(inv.G, ref.G) <= 1e-13
        assert rel_err(inv.x, ref.x) <= 1e-13

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_output_independent_of_parameters(self, field):
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=42, field=field))
        base = rf.structured_inverse_direct(p)
        for seed in (1, 2):
            inv = rf.structured_inverse_general(p, well_conditioned_params(p, seed))
            assert rel_err(inv.G, base.G) <= 1e-10
            assert rel_err(inv.x, base.x) <= 1e-10
            assert rel_err(inv.y, base.y) <= 1e-10

    def test_pivot_singular_for_orthogonal_u(self, diag_problem):
        params = rf.AnsatzParams(
            u=np.array([[1.0], [0.0]]),  # orthogonal to e = (0, 1)
            v=diag_problem.f,
            M=np.eye(1),
        )
        with pytest.raises(rf.PivotSingular):
            rf.structured_inverse_general(diag_problem, params)

    def test_singular_m_rejected(self, diag_problem):
        params = rf.AnsatzParams(u=diag_problem.e, v=diag_problem.f,
                                 M=np.zeros((1, 1)))
        with pytest.raises(rf.PivotSingular):
            rf.structured_inverse_general(diag_problem, params)

    def test_shape_checks(self, diag_problem):
        with pytest.raises(rf.DimensionMismatch):
            rf.structured_inverse_general(
                diag_problem,
                rf.AnsatzParams(u=np.zeros((3, 1)), v=diag_problem.f, M=np.eye(1)),
            )


class TestGFromKnownXY:
    def test_dense_fixture_with_scaled_core(self, ones_problem):
        # (A + 2 e f*)^-1 - x (1/2) y* recovers G exactly
        x = np.array([[1.0], [-1.0]])
        y = np.array([[1.0], [-1.0]])
        got = oracles.g_from_known_xy(ones_problem, x, y, [[2.0]])
        assert np.allclose(got, [[0.0, 0.0], [0.0, 1.0]], atol=1e-14)

    def test_diagonal_fixture(self, diag_problem):
        got = oracles.g_from_known_xy(
            diag_problem, [[0.0], [1.0]], [[0.0], [1.0]], [[1.0]]
        )
        assert np.allclose(got, np.diag([1.0, 0.0]), atol=1e-15)

    def test_core_choice_does_not_matter(self):
        p = rf.generate(rf.GeneratorSpec(n=12, k=3, seed=23))
        inv = rf.structured_inverse_svd(p)
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(3):
            M = rf.random_invertible(rng, 3, min_rel_sv=0.05)
            assert rel_err(oracles.g_from_known_xy(p, inv.x, inv.y, M), inv.G) <= 1e-10

    def test_singular_m_rejected(self, ones_problem):
        inv = rf.structured_inverse_svd(ones_problem)
        with pytest.raises(rf.DSingular):
            oracles.g_from_known_xy(ones_problem, inv.x, inv.y, np.zeros((1, 1)))


def dense_projector_factors(problem, params):
    """(G, x, y) with both projectors formed as n-by-n matrices.

    The closed form as written in the module docstring, at O(n^3) per
    product: the reference the rank-k construction must reproduce.
    """
    A, e, f = problem.A, problem.e, problem.f
    u, v, M = params.u, params.v, params.M
    ue_inv = np.linalg.inv(u.conj().T @ e)
    fv_inv = np.linalg.inv(f.conj().T @ v)
    ident = np.eye(problem.n, dtype=A.dtype)
    p_left = ident - e @ ue_inv @ u.conj().T
    p_right = ident - v @ fv_inv @ f.conj().T
    G = np.linalg.solve(p_left @ A @ p_right + e @ M @ f.conj().T, p_left)
    x = (ident - G @ A) @ v @ fv_inv
    y = (ident - A @ G).conj().T @ u @ ue_inv.conj().T
    return G, x, y


class MatmulSpy(np.ndarray):
    """ndarray that records the operand shapes of every matmul it enters."""

    shapes = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [np.asarray(a) if isinstance(a, MatmulSpy) else a for a in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(a) for a in kwargs["out"])
        if ufunc is np.matmul:
            MatmulSpy.shapes.append(tuple(np.shape(a) for a in plain))
        result = getattr(ufunc, method)(*plain, **kwargs)
        return result.view(MatmulSpy) if isinstance(result, np.ndarray) else result


class TestRankKConstruction:
    @pytest.fixture(params=["real", "complex"])
    def problem(self, request):
        return rf.generate(rf.GeneratorSpec(n=50, k=3, seed=31, field=request.param))

    @pytest.mark.parametrize("choice", ["plain", "general_params"])
    def test_matches_dense_projector_formula(self, problem, choice):
        if choice == "plain":
            params = rf.AnsatzParams(u=problem.e, v=problem.f, M=np.eye(problem.k))
        else:
            params = rf.instances.general_params(problem)
        inv = rf.structured_inverse_general(problem, params)
        for name, want in zip("Gxy", dense_projector_factors(problem, params)):
            assert rel_err(getattr(inv, name), want) <= 1e-12, name

    def test_no_n_by_n_matrix_product(self, problem):
        spy = dataclasses.replace(
            problem, **{m: getattr(problem, m).view(MatmulSpy) for m in ("A", "e", "f")}
        )
        params = rf.instances.general_params(problem)
        MatmulSpy.shapes = []
        rf.structured_inverse_general(spy, rf.AnsatzParams(
            u=params.u.view(MatmulSpy), v=params.v.view(MatmulSpy),
            M=params.M.view(MatmulSpy)))
        square = (problem.n, problem.n)
        assert MatmulSpy.shapes  # the spy saw the construction's products
        assert [s for s in MatmulSpy.shapes if s == (square, square)] == []

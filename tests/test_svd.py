import dataclasses

import numpy as np
import pytest

import rankfill as rf
from conftest import rel_err
import oracles


def check_factor_invariants(svd, A, tol=1e-12):
    scale = max(np.linalg.norm(A), 1.0)
    assert np.linalg.norm(svd.U_r.conj().T @ svd.U_r - np.eye(svd.r)) < tol
    assert np.linalg.norm(svd.V_r.conj().T @ svd.V_r - np.eye(svd.r)) < tol
    assert np.linalg.norm(svd.U_k.conj().T @ svd.U_k - np.eye(svd.k)) < tol
    assert np.linalg.norm(svd.V_k.conj().T @ svd.V_k - np.eye(svd.k)) < tol
    assert np.linalg.norm(svd.U_k.conj().T @ svd.U_r) < tol
    assert np.linalg.norm(svd.V_k.conj().T @ svd.V_r) < tol
    recon = (svd.U_r * svd.sigma_r) @ svd.V_r.conj().T
    assert np.linalg.norm(recon - A) < tol * scale
    assert np.all(svd.sigma_r > 0)
    assert np.all(np.diff(svd.sigma_r) <= 0)


class TestCompactSvd:
    def test_diagonal(self):
        svd = rf.compact_svd(np.diag([1.0, 0.0]))
        assert (svd.n, svd.k, svd.r) == (2, 1, 1)
        assert svd.sigma_r == pytest.approx([1.0])
        assert abs(svd.U_k[1, 0]) == pytest.approx(1.0)
        assert abs(svd.V_k[1, 0]) == pytest.approx(1.0)
        check_factor_invariants(svd, np.diag([1.0, 0.0]))

    def test_all_ones(self):
        A = np.ones((2, 2))
        svd = rf.compact_svd(A)
        assert svd.sigma_r == pytest.approx([2.0])
        assert np.allclose(np.abs(svd.U_r.ravel()), [1, 1] / np.sqrt(2))
        assert np.allclose(np.abs(svd.U_k.ravel()), [1, 1] / np.sqrt(2))
        check_factor_invariants(svd, A)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_low_rank_product_reconstruction(self, field):
        rng = np.random.default_rng(7)
        n, r = 10, 6
        B = rng.standard_normal((n, r))
        C = rng.standard_normal((n, r))
        if field == "complex":
            B = B + 1j * rng.standard_normal((n, r))
            C = C + 1j * rng.standard_normal((n, r))
        A = B @ C.conj().T
        svd = rf.compact_svd(A)
        assert svd.r == r
        recon = (svd.U_r * svd.sigma_r) @ svd.V_r.conj().T
        assert np.linalg.norm(recon - A) <= 1e-12 * svd.sigma_r[0]
        check_factor_invariants(svd, A)

    def test_expected_corank_mismatch(self):
        with pytest.raises(rf.RankOfANotNMinusK) as exc:
            rf.compact_svd(np.diag([1.0, 0.0, 0.0]), expected_corank=1)
        assert exc.value.detected_rank == 1

    @pytest.mark.parametrize("corank", [True, 2.5, "1", 0, 3])
    def test_expected_corank_must_be_an_integer_below_n(self, corank):
        # True would run as k = 1, and 2.5 reported "rank(A) must be n - k = 0.5".
        with pytest.raises(ValueError, match=r"^expected_corank must be an integer in \[1, 3\)"):
            rf.compact_svd(np.diag([1.0, 0.0, 0.0]), expected_corank=corank)
        assert rf.compact_svd(np.diag([1.0, 0.0, 0.0]), expected_corank=np.int64(2)).k == 2

    def test_invertible_matrix_rejected(self):
        with pytest.raises(rf.RankOfANotNMinusK):
            rf.compact_svd(np.eye(3))

    def test_zero_matrix_rejected(self):
        with pytest.raises(rf.RankOfANotNMinusK):
            rf.compact_svd(np.zeros((3, 3)))

    @pytest.mark.parametrize("A", [np.float64(1.0), np.zeros(3), np.zeros((2, 3))],
                             ids=["0-d", "1-d", "2x3"])
    def test_non_square_rejected(self, A):
        with pytest.raises(rf.DimensionMismatch, match="must be square"):
            rf.compact_svd(A)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rejected(self, bad):
        # Before the SVD: LAPACK does not converge on NaN, and inf reads as rank 0.
        with pytest.raises(rf.NonFiniteInput, match="A contains non-finite entries"):
            rf.compact_svd(np.array([[bad, 0.0], [0.0, 0.0]]))

    def test_gap_flagging(self):
        well = rf.compact_svd(np.diag([1.0, 1.0, 0.0]))
        assert well.gap_ratio == np.inf
        assert not well.ill_split
        # a discarded singular value only 50x below the kept one is murky
        murky = rf.compact_svd(np.diag([1.0, 2e-2, 1e-2]), tol_rank=5e-2)
        assert murky.k == 2
        assert murky.gap_ratio == pytest.approx(50.0, rel=1e-10)
        assert murky.ill_split

    def test_gap_follows_the_arrays(self):
        s = rf.compact_svd(rf.generate(rf.GeneratorSpec(n=6, k=2, seed=3)).A)
        assert not s.ill_split
        murky = dataclasses.replace(s, sigma_k=np.array([s.sigma_r[-1] / 10, 0.0]))
        assert murky.gap_ratio == 10.0
        assert murky.ill_split

    def test_holds_only_its_arrays(self):
        assert [f.name for f in dataclasses.fields(rf.CompactSvd)] == \
            ["U_r", "sigma_r", "V_r", "U_k", "V_k", "sigma_k"]
        s = rf.compact_svd(rf.generate(rf.GeneratorSpec(n=6, k=2, seed=3)).A)
        assert (s.n, s.k, s.r) == (6, 2, 4)

    @pytest.mark.parametrize("name,arrays", [
        ("U_k", lambda s: {"U_k": s.U_k[:, :1]}),
        ("sigma_r", lambda s: {"sigma_r": s.sigma_r[:-1]}),
        ("V_r", lambda s: {"V_r": s.V_r[:-1]}),
        ("U_r", lambda s: {"U_r": s.U_r[:, 0]}),
    ], ids=["U_k-one-column", "sigma_r-short", "V_r-5-rows", "U_r-vector"])
    def test_arrays_of_other_shapes_refused(self, name, arrays):
        # Built, a short U_k fails later as a LinAlgError in the SVD route.
        s = rf.compact_svd(rf.generate(rf.GeneratorSpec(n=6, k=2, seed=3)).A)
        with pytest.raises(rf.DimensionMismatch, match=f"^{name} must be"):
            dataclasses.replace(s, **arrays(s))


class TestStructuredInverseSvd:
    def test_diagonal_fixture_exact(self, diag_problem):
        inv = rf.structured_inverse_svd(diag_problem)
        assert np.linalg.norm(inv.G - np.diag([1.0, 0.0])) <= 1e-15
        assert np.linalg.norm(inv.x - [[0.0], [1.0]]) <= 1e-15
        assert np.linalg.norm(inv.y - [[0.0], [1.0]]) <= 1e-15

    def test_dense_fixture_matches_hand_values(self, ones_problem):
        inv = rf.structured_inverse_svd(ones_problem)
        assert np.linalg.norm(inv.G - [[0.0, 0.0], [0.0, 1.0]]) <= 1e-14
        assert np.linalg.norm(inv.x - [[1.0], [-1.0]]) <= 1e-14
        assert np.linalg.norm(inv.y - [[1.0], [-1.0]]) <= 1e-14
        dense = rf.reassemble_inverse(inv, ones_problem.D)
        assert np.linalg.norm(dense - [[0.5, -0.5], [-0.5, 1.5]]) <= 1e-14

    def test_seeded_residual_within_conditioning(self):
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=42))
        inv = rf.structured_inverse_svd(p)
        filled = rf.assemble(p)
        kappa = np.linalg.cond(filled)
        resid = np.linalg.norm(filled @ rf.reassemble_inverse(inv, p.D) - np.eye(6))
        assert resid <= 1e-10 * kappa

    def test_pivot_singular_when_span_fails(self):
        svd = rf.compact_svd(np.diag([1.0, 0.0]))
        e_in_range = np.array([[1.0], [0.0]])
        f = np.array([[0.0], [1.0]])
        with pytest.raises(rf.PivotSingular):
            rf.structured_inverse_from_factors(svd, e_in_range, f)

    def test_factor_shapes_checked(self):
        svd = rf.compact_svd(np.diag([1.0, 0.0]))
        with pytest.raises(rf.DimensionMismatch):
            rf.structured_inverse_from_factors(svd, np.zeros((3, 1)), np.zeros((2, 1)))


class TestPseudoinverse:
    def test_diagonal(self):
        assert np.allclose(
            rf.pseudoinverse(rf.compact_svd(np.diag([1.0, 0.0]))),
            np.diag([1.0, 0.0]), atol=1e-15,
        )

    def test_all_ones(self):
        got = rf.pseudoinverse(rf.compact_svd(np.ones((2, 2))))
        assert np.allclose(got, 0.25 * np.ones((2, 2)), atol=1e-14)

    def test_wider_diagonal(self):
        got = rf.pseudoinverse(rf.compact_svd(np.diag([2.0, 0.0, 0.0])))
        assert np.allclose(got, np.diag([0.5, 0.0, 0.0]), atol=1e-15)

    def test_all_four_penrose_conditions(self):
        p = rf.generate(rf.GeneratorSpec(n=8, k=3, seed=1, coupling=0.7))
        pinv = rf.pseudoinverse(rf.compact_svd(p.A))
        results = rf.check_penrose(p.A, pinv, rf.IdentityTolerance(1e-12, 1e-12))
        assert all(ok for _, ok in results.values())


class TestGFromPseudoinverse:
    def test_fixtures(self, diag_problem, ones_problem):
        for p, want in [
            (diag_problem, np.diag([1.0, 0.0])),
            (ones_problem, np.array([[0.0, 0.0], [0.0, 1.0]])),
        ]:
            svd = rf.compact_svd(p.A)
            assert np.allclose(oracles.g_from_pseudoinverse(svd, p.e, p.f), want, atol=1e-14)

    def test_matches_svd_route(self):
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=42))
        svd = rf.compact_svd(p.A)
        g_svd = rf.structured_inverse_from_factors(svd, p.e, p.f).G
        g_pinv = oracles.g_from_pseudoinverse(svd, p.e, p.f)
        assert rel_err(g_pinv, g_svd) <= 1e-12


@pytest.mark.parametrize("field", ["real", "complex"])
def test_null_basis_rotation_leaves_factors_unchanged(field):
    p = rf.generate(rf.GeneratorSpec(n=10, k=3, seed=9, field=field, coupling=0.6))
    svd = rf.compact_svd(p.A)
    base = rf.structured_inverse_from_factors(svd, p.e, p.f)

    rng = np.random.Generator(np.random.Philox(123))
    q = rf.haar_unitary(rng, 3, field)
    w = rf.haar_unitary(rng, 3, field)
    rotated = dataclasses.replace(svd, U_k=svd.U_k @ q, V_k=svd.V_k @ w)
    other = rf.structured_inverse_from_factors(rotated, p.e, p.f)
    assert rel_err(other.G, base.G) <= 1e-12
    assert rel_err(other.x, base.x) <= 1e-12
    assert rel_err(other.y, base.y) <= 1e-12

import dataclasses

import numpy as np
import pytest

import rankfill as rf
from conftest import rel_err
import oracles

IDENTITY_KEYS = {
    "Ax", "yA", "Ge", "fG", "fx_minus_I", "ye_minus_I",
    "AG_plus_eyStar_minus_I", "GA_plus_xfStar_minus_I",
}
REPORT_KEYS = ["residuals", "scales", "passed", "tolerance", "all_passed"]


class TestCheckIdentities:
    def test_diagonal_fixture_all_zero(self, diag_problem):
        inv = rf.structured_inverse_svd(diag_problem)
        report = rf.check_identities(diag_problem, inv)
        assert set(report["residuals"]) == IDENTITY_KEYS
        assert report["all_passed"]
        assert max(report["residuals"].values()) == 0.0

    def test_dense_fixture_within_rounding(self, ones_problem):
        inv = rf.structured_inverse_svd(ones_problem)
        report = rf.check_identities(ones_problem, inv)
        assert report["all_passed"]
        assert max(report["residuals"].values()) <= 1e-15 * 10

    def test_perturbed_g_is_flagged(self, ones_problem):
        inv = rf.structured_inverse_svd(ones_problem)
        G = inv.G.copy()
        G[0, 0] += 1e-3
        bad = dataclasses.replace(inv, G=G)
        report = rf.check_identities(ones_problem, bad)
        assert not report["all_passed"]
        assert max(report["residuals"]["Ge"], report["residuals"]["fG"]) >= 1e-4
        assert not (report["passed"]["Ge"] and report["passed"]["fG"])

    def test_report_layout(self, diag_problem):
        inv = rf.structured_inverse_svd(diag_problem)
        payload = rf.check_identities(diag_problem, inv)
        assert list(payload) == REPORT_KEYS
        assert payload["all_passed"] is True
        assert set(payload["residuals"]) == IDENTITY_KEYS
        assert list(payload["scales"]) == list(payload["passed"]) == list(payload["residuals"])
        assert payload["tolerance"] == {"abs": 1e-12, "rel": 1e-12}


class TestCheckPenrose:
    def test_pseudoinverse_passes_all_four(self, ones_problem):
        pinv = oracles.pseudoinverse(rf.compact_svd(ones_problem.A))
        results = rf.check_penrose(ones_problem.A, pinv)
        assert results["all_passed"]

    def test_dense_fixture_fails_hermitian_conditions(self, ones_problem):
        # A G = [[0, 1], [0, 1]] is not Hermitian, so G != pinv(A)
        G = rf.structured_inverse_svd(ones_problem).G
        results = rf.check_penrose(ones_problem.A, G)
        assert results["passed"]["AGA_minus_A"]
        assert results["passed"]["GAG_minus_G"]
        assert not results["passed"]["AG_hermitian"]
        assert results["residuals"]["AG_hermitian"] == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert not results["all_passed"]

    def test_seeded_instance_is_reflexive_but_not_moore_penrose(self):
        p = rf.generate(rf.GeneratorSpec(n=9, k=2, seed=3, coupling=0.8))
        G = rf.structured_inverse_svd(p).G
        results = rf.check_penrose(p.A, G, rf.IdentityTolerance(1e-11, 1e-11))
        assert results["passed"]["AGA_minus_A"]
        assert results["passed"]["GAG_minus_G"]
        assert not (results["passed"]["AG_hermitian"] and results["passed"]["GA_hermitian"])

    def test_report_layout(self, ones_problem):
        results = rf.check_penrose(ones_problem.A, np.eye(2), rf.IdentityTolerance(1e-9, 1e-9))
        assert list(results) == REPORT_KEYS
        assert list(results["residuals"]) == list(results["scales"]) == list(results["passed"]) \
            == ["AGA_minus_A", "GAG_minus_G", "AG_hermitian", "GA_hermitian"]
        assert results["tolerance"] == {"abs": 1e-9, "rel": 1e-9}

    def test_shape_mismatch(self):
        with pytest.raises(rf.DimensionMismatch):
            rf.check_penrose(np.eye(2), np.eye(3))


class TestRiedel:
    def test_diagonal_fixture(self, diag_problem):
        assert np.allclose(
            rf.riedel_inverse(diag_problem), np.diag([1.0, 0.5]), atol=1e-15
        )

    def test_dense_fixture(self, ones_problem):
        got = rf.riedel_inverse(ones_problem)
        assert np.allclose(got, [[0.5, -0.5], [-0.5, 1.5]], atol=1e-14)

    def test_matches_dense_oracle_on_seeded_instance(self):
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=42))
        oracle = np.linalg.inv(rf.assemble(p))
        assert rel_err(rf.riedel_inverse(p), oracle) <= 1e-10

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_decomposition_invariants(self, field):
        p = rf.generate(rf.GeneratorSpec(n=10, k=3, seed=8, field=field, coupling=0.7))
        svd = rf.compact_svd(p.A)
        dec = oracles.riedel_decomposition(svd, p.e, p.f)
        inv = rf.structured_inverse_from_factors(svd, p.e, p.f)

        assert np.linalg.norm(dec.V1 + dec.W1 - p.e) <= 1e-14 * np.linalg.norm(p.e)
        assert np.linalg.norm(dec.V2 + dec.W2 - p.f) <= 1e-14 * np.linalg.norm(p.f)
        assert np.linalg.norm(p.A.conj().T @ dec.W1) <= 1e-12 * np.linalg.norm(p.A)
        assert np.linalg.norm(p.A @ dec.W2) <= 1e-12 * np.linalg.norm(p.A)
        assert rel_err(dec.C1, inv.y) <= 1e-12
        assert rel_err(dec.C2, inv.x) <= 1e-12

    def test_singular_d_rejected(self, diag_problem):
        bad = dataclasses.replace(diag_problem, D=np.zeros((1, 1)))
        with pytest.raises(rf.DSingular):
            rf.riedel_inverse(bad)


class TestNullspaceDifference:
    def test_fixtures(self, diag_problem, ones_problem):
        for p in (diag_problem, ones_problem):
            residual, ok = oracles.nullspace_difference_check(p)
            assert ok
            assert residual <= 1e-15

    def test_seeded_instance(self):
        p = rf.generate(rf.GeneratorSpec(n=8, k=3, seed=77, coupling=0.6))
        residual, ok = oracles.nullspace_difference_check(p)
        assert ok

    def test_each_pivot_formed_once(self, monkeypatch):
        # U_k* e and V_k* f, once each: the check reuses the decomposition's
        p = rf.generate(rf.GeneratorSpec(n=12, k=2, seed=4))
        calls = []
        real_pivot = oracles.pivot

        def counting(left, right, n, exc, what):
            calls.append(what)
            return real_pivot(left, right, n, exc, what)

        monkeypatch.setattr(oracles, "pivot", counting)
        oracles.nullspace_difference_check(p)
        assert sorted(calls) == ["U_k* e", "V_k* f"]

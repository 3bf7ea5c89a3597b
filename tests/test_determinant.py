import dataclasses
import warnings

import numpy as np
import pytest

import rankfill as rf


class TestDetViaLemma:
    def test_diagonal_fixture(self, diag_problem):
        # det(diag(1, 1)) * 2 == det(diag(1, 2))
        assert rf.det_via_lemma(diag_problem) == pytest.approx(2.0, abs=1e-15)

    def test_dense_fixture(self, ones_problem):
        # det([[2, 1], [1, 1]]) * 2 == det([[3, 1], [1, 1]]) == 2
        assert rf.det_via_lemma(ones_problem) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matches_dense_determinant(self, field):
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=42, field=field))
        lemma = rf.det_via_lemma(p)
        dense = np.linalg.det(rf.assemble(p))
        assert abs(lemma - dense) <= 1e-10 * abs(dense)

    def test_zero_core_forces_zero_determinant(self, ones_problem):
        # bypass validation: the factored determinant vanishes with det(D)
        hacked = dataclasses.replace(ones_problem, D=np.zeros((1, 1)))
        assert rf.det_via_lemma(hacked) == 0.0


class TestDetInverseViaLemma:
    def test_fixture_values(self, diag_problem, ones_problem):
        for p, want in [(diag_problem, 0.5), (ones_problem, 0.5)]:
            inv = rf.structured_inverse_svd(p)
            assert rf.det_inverse_via_lemma(inv, p.D) == pytest.approx(want, abs=1e-14)

    def test_reciprocal_relation(self):
        p = rf.generate(rf.GeneratorSpec(n=9, k=3, seed=13))
        inv = rf.structured_inverse_svd(p)
        product = rf.det_via_lemma(p) * rf.det_inverse_via_lemma(inv, p.D)
        assert abs(product - 1.0) <= 1e-9

    def test_singular_core_rejected(self, ones_problem):
        inv = rf.structured_inverse_svd(ones_problem)
        with pytest.raises(rf.DSingular):
            rf.det_inverse_via_lemma(inv, np.zeros((1, 1)))

    def test_shape_checked(self, ones_problem):
        inv = rf.structured_inverse_svd(ones_problem)
        with pytest.raises(rf.DimensionMismatch):
            rf.det_inverse_via_lemma(inv, np.eye(2))


class TestLogDet:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_consistent_with_plain_value(self, field):
        p = rf.generate(rf.GeneratorSpec(n=7, k=2, seed=29, field=field))
        sign, logabs = rf.logdet_via_lemma(p)
        assert abs(abs(sign) - 1.0) <= 1e-12
        want = rf.det_via_lemma(p)
        assert sign * np.exp(logabs) == pytest.approx(want, rel=1e-9)

    def test_inverse_variant_negates_magnitude(self):
        p = rf.generate(rf.GeneratorSpec(n=7, k=2, seed=29))
        inv = rf.structured_inverse_svd(p)
        _, logabs = rf.logdet_via_lemma(p)
        _, logabs_inv = rf.logdet_inverse_via_lemma(inv, p.D)
        assert logabs_inv == pytest.approx(-logabs, abs=1e-9)

    def test_survives_underflowing_spectrum(self):
        # ~470 decades of total magnitude underflow the plain determinant
        p = rf.generate(rf.GeneratorSpec(n=80, k=1, seed=4, sigma_spread=1e12))
        assert rf.det_via_lemma(p) == 0.0
        sign, logabs = rf.logdet_via_lemma(p)
        assert np.isfinite(logabs)
        assert logabs < -700
        assert abs(abs(sign) - 1.0) <= 1e-12


class TestPlainValueRange:
    """n=180 instance with log|det(A~)| = -823.6: the plain determinant is
    below the double range and that of the inverse above it."""

    @pytest.fixture(scope="class")
    def wide(self):
        p = rf.generate(rf.GeneratorSpec(n=180, k=2, seed=15, sigma_spread=1e4,
                                         coupling=0.9))
        return p, rf.structured_inverse_svd(p)

    def test_log_values_are_finite(self, wide):
        p, inv = wide
        assert rf.logdet_via_lemma(p)[1] == pytest.approx(-823.6, abs=0.1)
        assert rf.logdet_inverse_via_lemma(inv, p.D)[1] == pytest.approx(823.6, abs=0.1)

    def test_overflow_raises_typed_error_without_warnings(self, wide):
        p, inv = wide
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rf.DeterminantOutOfRange, match="logdet"):
                rf.det_inverse_via_lemma(inv, p.D)

    def test_underflow_is_zero_without_warnings(self, wide):
        # Below the range the plain value underflows as IEEE arithmetic
        # does (TestLogDet::test_survives_underflowing_spectrum relies on
        # 0.0 there); it used to come with a NumPy RuntimeWarning.
        p, _ = wide
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rf.det_via_lemma(p) == 0.0

    def test_error_is_numerical(self):
        assert issubclass(rf.DeterminantOutOfRange, rf.NumericalError)
        assert rf.DeterminantOutOfRange.exit_code == 4

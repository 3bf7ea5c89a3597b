import numpy as np
import pytest

import rankfill as rf
from conftest import rel_err
import oracles


class TestGeneratorSpec:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(n=2, k=2),
            dict(n=3, k=0),
            dict(n=3, k=1, sigma_spread=0.5),
            dict(n=3, k=1, coupling=1.0),
            dict(n=3, k=1, coupling=-0.1),
            dict(n=3, k=1, d_cond=0.9),
            dict(n=3, k=1, field="rational"),
            dict(n=3.0, k=1),
            dict(n=5, k=True, seed=True),
            dict(n=3, k=1, seed=True),
            dict(n=3, k=1, seed=1.5),
            dict(n=3, k=1, seed="3"),
            dict(n=3, k=1, seed=-1),
            dict(n=3, k=1, sigma_spread=float("inf")),
            dict(n=3, k=1, sigma_spread=float("nan")),
            dict(n=3, k=1, d_cond=float("inf")),
            dict(n=3, k=1, d_cond=float("nan")),
            # bool is an int subclass and a str compares or raises TypeError.
            dict(n=6, k=2, sigma_spread=True),
            dict(n=6, k=2, coupling=False),
            dict(n=6, k=2, d_cond="5"),
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(rf.InvalidSpec):
            rf.GeneratorSpec(**{"seed": 0, **bad})

    def test_spec_must_be_spec(self):
        with pytest.raises(rf.InvalidSpec):
            rf.generate({"n": 4, "k": 1, "seed": 0})


class TestGenerate:
    def test_validates_and_has_requested_shape(self):
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=42, sigma_spread=10,
                                         coupling=0.5, d_cond=10))
        assert (p.n, p.k) == (6, 2)
        assert p.diagnostics["rank"] == 4

    def test_bit_reproducible(self):
        spec = rf.GeneratorSpec(n=8, k=3, seed=2024, field="complex", coupling=0.3)
        p1, p2 = rf.generate(spec), rf.generate(spec)
        for name in "AeDf":
            assert np.array_equal(getattr(p1, name), getattr(p2, name))

    def test_different_seeds_differ(self):
        a = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=1))
        b = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=2))
        assert not np.array_equal(a.A, b.A)

    def test_zero_coupling_puts_e_outside_range(self):
        p = rf.generate(rf.GeneratorSpec(n=7, k=2, seed=0, coupling=0.0))
        # e orthogonal to range(A) means A* e = 0
        assert np.linalg.norm(p.A.conj().T @ p.e) <= 1e-13 * np.linalg.norm(p.e)

    def test_spectrum_spread_is_prescribed(self):
        spread = 1e3
        p = rf.generate(rf.GeneratorSpec(n=10, k=2, seed=6, sigma_spread=spread))
        s = np.linalg.svd(p.A, compute_uv=False)
        kept = s[: p.r]
        assert kept[0] / kept[-1] == pytest.approx(spread, rel=1e-10)
        assert np.all(s[p.r:] <= 1e-14)

    def test_core_condition_is_prescribed(self):
        p = rf.generate(rf.GeneratorSpec(n=9, k=3, seed=6, d_cond=50.0))
        assert np.linalg.cond(p.D) == pytest.approx(50.0, rel=1e-9)

    @pytest.mark.parametrize("field,dtype", [("real", np.float64),
                                             ("complex", np.complex128)])
    def test_field_controls_dtype(self, field, dtype):
        p = rf.generate(rf.GeneratorSpec(n=5, k=1, seed=3, field=field))
        assert p.A.dtype == dtype
        assert p.field == field


class TestHaarUnitary:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_unitary(self, field):
        rng = np.random.Generator(np.random.Philox(5))
        q = rf.haar_unitary(rng, 12, field)
        assert np.linalg.norm(q.conj().T @ q - np.eye(12)) <= 1e-13

    def test_deterministic_for_seeded_generator(self):
        q1 = rf.haar_unitary(np.random.Generator(np.random.Philox(9)), 6)
        q2 = rf.haar_unitary(np.random.Generator(np.random.Philox(9)), 6)
        assert np.array_equal(q1, q2)


def test_random_invertible_is_invertible():
    rng = np.random.Generator(np.random.Philox(1))
    m = rf.random_invertible(rng, 4)
    s = np.linalg.svd(m, compute_uv=False)
    assert s[-1] > 1e-6 * s[0]


class TestDenseInverseOracle:
    def test_fixture_values(self, diag_problem, ones_problem):
        assert np.allclose(oracles.dense_inverse_oracle(diag_problem),
                           np.diag([1.0, 0.5]), atol=1e-15)
        assert np.allclose(oracles.dense_inverse_oracle(ones_problem),
                           [[0.5, -0.5], [-0.5, 1.5]], atol=1e-14)

    def test_residual_within_conditioning(self):
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=42))
        filled = rf.assemble(p)
        resid = np.linalg.norm(filled @ oracles.dense_inverse_oracle(p) - np.eye(6))
        assert resid <= 1e-12 * np.linalg.cond(filled)

    def test_agrees_with_reassembled_inverse(self):
        p = rf.generate(rf.GeneratorSpec(n=15, k=4, seed=21))
        inv = rf.structured_inverse_svd(p)
        kappa = np.linalg.cond(rf.assemble(p))
        assert rel_err(rf.reassemble_inverse(inv, p.D),
                       oracles.dense_inverse_oracle(p)) <= 1e-10 * max(kappa, 1.0)

    def test_singular_assembly_raises(self, ones_problem):
        import dataclasses
        hacked = dataclasses.replace(ones_problem, D=np.zeros((1, 1)))
        with pytest.raises(oracles.OracleSingular):
            oracles.dense_inverse_oracle(hacked)

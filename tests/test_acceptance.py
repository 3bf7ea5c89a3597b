"""Release acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest tests/test_acceptance.py -v -s``).  The heavy shared corpus of
200 seeded instances is built once per session.
"""

import dataclasses
import itertools
import json
import time
import warnings

import numpy as np
import pytest

import rankfill as rf
from rankfill.cli import main as cli_main
from rankfill.cli import run_benchmark
from conftest import rel_err, well_conditioned_params
import oracles

CORPUS_SIZE = 200


def verdict(index, name, ok, detail):
    line = f"ACCEPTANCE {index:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def corpus_specs():
    combos = []
    for n in (5, 20, 100, 500):
        for k in sorted({1, 2, 4, min(8, n - 1)}):
            for field in ("real", "complex"):
                for spread in (1.0, 1e3):
                    for coupling in (0.0, 0.9):
                        combos.append((n, k, field, spread, coupling))
    return [
        rf.GeneratorSpec(
            n=combos[i % len(combos)][0],
            k=combos[i % len(combos)][1],
            seed=1000 + i,
            field=combos[i % len(combos)][2],
            sigma_spread=combos[i % len(combos)][3],
            coupling=combos[i % len(combos)][4],
        )
        for i in range(CORPUS_SIZE)
    ]


@pytest.fixture(scope="session")
def corpus():
    """Per-instance scalar measurements for criteria 3, 4, 8, 9, 10."""
    identity_tol = rf.IdentityTolerance(abs=1e-12, rel=1e-12)
    penrose_tol = rf.IdentityTolerance(abs=0.0, rel=1e-11)
    results = []
    core_seconds = 0.0  # generate + invert + oracle + compare only
    for spec in corpus_specs():
        tick = time.perf_counter()
        problem = rf.generate(spec)
        inv = rf.structured_inverse_svd(problem)
        filled = rf.assemble(problem)
        dense = np.linalg.inv(filled)  # LU reference, independent of the paths
        kappa = float(np.linalg.cond(filled))
        reassembled = rf.reassemble_inverse(inv, problem.D)
        rel_inverse = rel_err(reassembled, dense)
        core_seconds += time.perf_counter() - tick

        ident = rf.check_identities(problem, inv, identity_tol)
        penrose = rf.check_penrose(problem.A, inv.G, penrose_tol)
        ag = problem.A @ inv.G
        asym = float(
            np.linalg.norm(ag.conj().T - ag) / max(np.linalg.norm(ag), 1e-300)
        )

        riedel_rel = rel_err(rf.riedel_inverse(problem), reassembled)
        split = rf.compact_svd(problem.A, problem.tol_rank, expected_corank=problem.k)
        dec = oracles.riedel_decomposition(split, problem.e, problem.f)

        _, logabs = np.linalg.slogdet(filled)
        representable = abs(logabs) < 570.0  # |det| within ~1e±247
        det_gap = reciprocal_gap = None
        if representable:
            det_dense = np.linalg.det(filled)
            det_lemma = rf.det_via_lemma(problem)
            det_gap = abs(det_lemma - det_dense) / abs(det_dense)
            reciprocal_gap = abs(
                det_lemma * rf.det_inverse_via_lemma(inv, problem.D) - 1.0
            )

        results.append({
            "spec": spec,
            "kappa": kappa,
            "rel_inverse": rel_inverse,
            "identities_ok": ident["all_passed"],
            "worst_identity": max(
                res / (identity_tol.abs + identity_tol.rel * ident["scales"][name])
                for name, res in ident["residuals"].items()
            ),
            "penrose_i_ok": penrose["passed"]["AGA_minus_A"],
            "penrose_ii_ok": penrose["passed"]["GAG_minus_G"],
            "asym": asym,
            "riedel_rel": riedel_rel,
            "c1_rel": rel_err(dec.C1, inv.y),
            "c2_rel": rel_err(dec.C2, inv.x),
            "representable": representable,
            "det_gap": det_gap,
            "reciprocal_gap": reciprocal_gap,
        })
    return {"results": results, "core_seconds": core_seconds}


def both_path_inverses(problem):
    return (
        ("svd", rf.structured_inverse_svd(problem)),
        ("direct", rf.structured_inverse_direct(problem)),
    )


def test_criterion_01_diagonal_fixture_exact(diag_problem):
    worst = 0.0
    for _, inv in both_path_inverses(diag_problem):
        worst = max(
            worst,
            np.linalg.norm(inv.G - np.diag([1.0, 0.0])),
            np.linalg.norm(inv.x - [[0.0], [1.0]]),
            np.linalg.norm(inv.y - [[0.0], [1.0]]),
            np.linalg.norm(
                rf.reassemble_inverse(inv, diag_problem.D) - np.diag([1.0, 0.5])
            ),
        )
    verdict(1, "diagonal fixture exact", worst <= 1e-15, f"max residual {worst:.2e}")


def test_criterion_02_dense_fixture(ones_problem):
    # re-derive the frozen values from the dense LU oracle before comparing
    oracle = np.linalg.inv(np.array([[3.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(oracle, [[0.5, -0.5], [-0.5, 1.5]], atol=1e-15)
    worst = 0.0
    for _, inv in both_path_inverses(ones_problem):
        worst = max(
            worst,
            np.linalg.norm(inv.G - [[0.0, 0.0], [0.0, 1.0]]),
            np.linalg.norm(inv.x - [[1.0], [-1.0]]),
            np.linalg.norm(inv.y - [[1.0], [-1.0]]),
            np.linalg.norm(rf.reassemble_inverse(inv, ones_problem.D) - oracle),
        )
    verdict(2, "dense rank-1 fixture", worst <= 1e-14, f"max residual {worst:.2e}")


def test_criterion_03_oracle_equivalence(corpus):
    results = corpus["results"]
    assert len(results) == CORPUS_SIZE
    worst = max(
        r["rel_inverse"] / (1e-9 * max(1.0, r["kappa"] / 1e3)) for r in results
    )
    verdict(
        3,
        "structured inverse matches dense LU on 200 instances",
        worst <= 1.0,
        f"worst rel err at {worst:.2e} of bound",
    )


def test_criterion_03_core_time_budget(corpus):
    # Apart from the accuracy verdict, so that a busy host fails only this.
    verdict(
        3,
        "200-instance corpus within its core time budget",
        corpus["core_seconds"] <= 120.0,
        f"core time {corpus['core_seconds']:.1f}s",
    )


def test_criterion_04_identity_suite(corpus):
    bad = [r for r in corpus["results"] if not r["identities_ok"]]
    worst = max(r["worst_identity"] for r in corpus["results"])
    verdict(
        4,
        "all eight identities at abs=rel=1e-12",
        not bad,
        f"{len(bad)} failing instances, worst residual at {worst:.3f} of tolerance",
    )


def test_criterion_05_path_agreement():
    specs = [
        rf.GeneratorSpec(n=n, k=k, seed=5000 + 17 * n + k, field=field,
                         sigma_spread=spread, coupling=coupling)
        for (n, k) in ((6, 1), (20, 3), (50, 3))
        for field in ("real", "complex")
        for spread in (1.0, 10.0)
        for coupling in (0.0, 0.5)
    ]
    worst = 0.0
    for spec in specs:
        problem = rf.generate(spec)
        split = rf.compact_svd(problem.A, problem.tol_rank, expected_corank=problem.k)
        candidates = [
            rf.structured_inverse_from_factors(split, problem.e, problem.f).G,
            rf.structured_inverse_direct(problem).G,
            rf.structured_inverse_general(
                problem, well_conditioned_params(problem, spec.seed)
            ).G,
            oracles.g_from_pseudoinverse(split, problem.e, problem.f),
        ]
        for a, b in itertools.combinations(candidates, 2):
            worst = max(worst, rel_err(a, b))
    verdict(
        5,
        "four construction routes agree pairwise on G",
        worst <= 1e-9,
        f"worst pairwise rel diff {worst:.2e} over {len(specs)} instances",
    )


def test_criterion_06_core_independence():
    base = rf.generate(rf.GeneratorSpec(n=30, k=3, seed=7))
    rng = np.random.Generator(np.random.Philox(777))
    inverses = []
    for _ in range(5):
        D = rf.random_invertible(rng, 3, min_rel_sv=0.05)
        problem = rf.validate(base.A, base.e, D, base.f)
        inverses.append(rf.structured_inverse_svd(problem))
    worst = max(
        max(rel_err(b.G, a.G), rel_err(b.x, a.x), rel_err(b.y, a.y))
        for a, b in itertools.combinations(inverses, 2)
    )
    verdict(
        6,
        "factors identical across five random cores",
        worst <= 1e-11,
        f"worst rel diff {worst:.2e}",
    )


def test_criterion_07_basis_invariance():
    worst = 0.0
    for field in ("real", "complex"):
        problem = rf.generate(
            rf.GeneratorSpec(n=24, k=3, seed=31, field=field, coupling=0.6)
        )
        split = rf.compact_svd(problem.A, problem.tol_rank, expected_corank=problem.k)
        base = rf.structured_inverse_from_factors(split, problem.e, problem.f)
        rng = np.random.Generator(np.random.Philox(99))
        rotated = dataclasses.replace(
            split,
            U_k=split.U_k @ rf.haar_unitary(rng, 3, field),
            V_k=split.V_k @ rf.haar_unitary(rng, 3, field),
        )
        other = rf.structured_inverse_from_factors(rotated, problem.e, problem.f)
        worst = max(
            worst, rel_err(other.G, base.G), rel_err(other.x, base.x),
            rel_err(other.y, base.y),
        )
    verdict(
        7,
        "null-basis rotation leaves factors unchanged",
        worst <= 1e-12,
        f"worst rel diff {worst:.2e}",
    )


def test_criterion_08_penrose(corpus):
    results = corpus["results"]
    reflexive_ok = all(r["penrose_i_ok"] and r["penrose_ii_ok"] for r in results)
    max_asym = max(r["asym"] for r in results)
    ok = reflexive_ok and max_asym > 1e-3
    verdict(
        8,
        "AGA=A, GAG=G at 1e-11; some instance has non-Hermitian AG",
        ok,
        f"reflexive_ok={reflexive_ok}, max asymmetry {max_asym:.2e}",
    )


def test_criterion_09_riedel_equivalence(corpus):
    results = corpus["results"]
    worst_inverse = max(r["riedel_rel"] for r in results)
    worst_factors = max(max(r["c1_rel"], r["c2_rel"]) for r in results)
    ok = worst_inverse <= 1e-9 and worst_factors <= 1e-11
    verdict(
        9,
        "projection-split inverse and factors match",
        ok,
        f"worst inverse rel {worst_inverse:.2e}, worst factor rel {worst_factors:.2e}",
    )


def test_criterion_10_determinant(corpus):
    checked = [r for r in corpus["results"] if r["representable"]]
    assert len(checked) >= 100  # the gate must not hollow out the criterion
    worst_gap = max(r["det_gap"] for r in checked)
    worst_reciprocal = max(r["reciprocal_gap"] for r in checked)
    ok = worst_gap <= 1e-9 and worst_reciprocal <= 1e-8
    verdict(
        10,
        "determinant factorization and reciprocal",
        ok,
        f"{len(checked)} representable instances, worst gap {worst_gap:.2e}, "
        f"worst reciprocal {worst_reciprocal:.2e}",
    )


def test_criterion_11_update_speedup():
    report = run_benchmark(n=1000, k=2, repeats=3, seed=5)
    ratio = report["speedup_dense_over_reassemble"]
    if ratio < 5.0:
        warnings.warn(f"D-swap speedup only {ratio:.1f}x (machine dependent)")
    verdict(
        11,
        "D-swap reassembly at least 2x (expect >= 5x) over dense LU",
        ratio >= 2.0,
        f"measured {ratio:.1f}x, dense {report['dense_invert_seconds']*1e3:.1f}ms "
        f"vs reassemble {report['reassemble_seconds']*1e3:.2f}ms",
    )


def test_criterion_12_cli_round_trip(tmp_path):
    inverted = []
    for i in range(20):
        spec_args = ["--n", str(6 + i), "--k", str(1 + i % 3), "--seed", str(3000 + i)]
        src = tmp_path / f"p{i}.json"
        dst = tmp_path / f"inv{i}.json"
        assert cli_main(["gen", *spec_args, "--out", str(src)]) == 0
        assert cli_main(["invert", str(src), "--out", str(dst)]) == 0
        assert cli_main(["check", str(dst)]) == 0
        inverted.append(dst)

    doc = json.loads(inverted[0].read_text())
    doc["G"][0][0] = 0.1
    inverted[0].write_text(json.dumps(doc))
    flipped = cli_main(["check", str(inverted[0])])
    verdict(
        12,
        "gen/invert/check pipeline green, corruption flips to exit 5",
        flipped == 5,
        f"20 pipelines ok, corrupted check exit {flipped}",
    )

"""validate's bordered-matrix certificate against the full SVD.

The certificate may only accept: wherever it does, the SVD route must
accept the same problem with the same rank and a well separated split.
Every rejection, with its exception class and CLI exit code, comes from
the SVD route, as before the certificate existed.
"""

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rankfill as rf
from rankfill.cli import main
from rankfill.instances import gaussian, haar_unitary, random_core, random_invertible

EPS = np.finfo(np.float64).eps


@contextlib.contextmanager
def svd_only():
    """validate with the certificate switched off: the SVD decides alone."""
    with mock.patch.object(rf.core, "_certificate", lambda *args: None):
        yield


def outcome(A, e, D, f, tol_rank=None, split=False):
    try:
        p = rf.validate(A, e, D, f, tol_rank=tol_rank, split=split)
    except rf.RankfillError as exc:
        return type(exc).__name__, exc.exit_code
    return "ok", p.diagnostics["rank"], p.diagnostics["ill_split"]


def build(n, k, field, seed, sigma, e_weight=1.0, coupling=0.5, d_cond=10.0):
    """(A, e, D, f) with A = U diag(sigma) V* and e, f spanning the last
    k singular directions with weight ``e_weight`` and ``1``."""
    rng = np.random.Generator(np.random.Philox(seed))
    U, V = haar_unitary(rng, n, field), haar_unitary(rng, n, field)
    r = n - k
    A = (U * sigma) @ V.conj().T
    e = coupling * (U[:, :r] @ gaussian(rng, (r, k), field)) \
        + e_weight * (U[:, r:] @ random_invertible(rng, k, field))
    f = coupling * (V[:, :r] @ gaussian(rng, (r, k), field)) \
        + V[:, r:] @ random_invertible(rng, k, field)
    return A, e, random_core(rng, k, field, d_cond), f


def kept_spectrum(n, k, spread):
    sigma = np.zeros(n)
    sigma[: n - k] = np.logspace(0.0, -np.log10(spread), n - k)
    return sigma


@st.composite
def adversarial(draw):
    field = draw(st.sampled_from(["real", "complex"]))
    n = draw(st.integers(8, 40))
    k = draw(st.integers(1, 3))
    tol_rank = n * EPS * 10 ** draw(st.floats(-1, 6))
    sigma = kept_spectrum(n, k, 10 ** draw(st.floats(0, 12)))
    mode = draw(st.sampled_from(["plain", "excess", "threshold", "near_range"]))
    e_weight = 1.0
    if mode == "excess":  # sigma_max is 1
        sigma[n - k] = tol_rank * 10 ** draw(st.floats(-2, 2))
    elif mode == "threshold":
        sigma[n - k - 1] = tol_rank * 10 ** draw(st.floats(-1, 1))
    elif mode == "near_range":
        e_weight = 10 ** draw(st.floats(-18, 0))
    arrays = build(
        n, k, field, draw(st.integers(0, 2**32 - 1)), sigma, e_weight=e_weight,
        coupling=draw(st.sampled_from([0.0, 0.5, 0.9, 0.99])),
        d_cond=10 ** draw(st.floats(0, 8)),
    )
    return arrays, tol_rank


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(adversarial())
def test_certificate_accepts_only_what_the_svd_accepts(case):
    arrays, tol_rank = case
    try:
        problem = rf.validate(*arrays, tol_rank=tol_rank)
    except rf.RankfillError:
        return  # a rejection is the SVD route's own
    if not problem.diagnostics["certified"]:
        return
    with svd_only():
        reference = rf.validate(*arrays, tol_rank=tol_rank)
    assert reference.diagnostics["rank"] == problem.diagnostics["rank"]
    assert not reference.diagnostics["ill_split"]
    assert problem.split is None


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(adversarial())
def test_certified_bounds_hold_against_the_svd(case):
    # Each bound against numpy's singular values, with n * eps relative
    # rounding.  The bounds on s_{n-k} and s_{n-k+1} also get absolute
    # rounding, n * eps * ||A||_F: below it the SVD's value is noise, and
    # sigma_r_lower, computed from a rounded G, was seen above a 40-digit
    # s_{n-k} by about 0.01 of that term.
    arrays, tol_rank = case
    try:
        problem = rf.validate(*arrays, tol_rank=tol_rank)
    except rf.RankfillError:
        return
    d = problem.diagnostics
    if not d["certified"]:
        return
    n, k = problem.n, problem.k
    slack = n * EPS
    s = np.linalg.svd(problem.A, compute_uv=False)
    assert d["sigma_max_upper"] * (1 + slack) >= s[0]
    assert d["sigma_r_lower"] <= (s[n - k - 1] + slack * d["sigma_max_upper"]) * (1 + slack)
    assert rf.core._sigma_max_lower(problem.A) <= s[0] * (1 + slack)
    assert (d["sigma_rplus1_upper"] + slack * d["sigma_max_upper"]) * (1 + slack) >= s[n - k]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(adversarial())
def test_split_request_decides_as_the_certificate_route(case):
    # validate(..., split=True) skips the certificate: same verdict, same
    # exception, same rank and split flag.
    arrays, tol_rank = case
    assert outcome(*arrays, tol_rank, split=True) == outcome(*arrays, tol_rank)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_instances_are_certified(field, seed):
    p = rf.generate(rf.GeneratorSpec(n=60, k=3, seed=seed, field=field, coupling=0.9,
                                     sigma_spread=1e4, d_cond=1e8))
    d = p.diagnostics
    assert d["certified"] and p.split is None
    reference = rf.compact_svd(p.A, p.tol_rank, expected_corank=3)
    assert d["sigma_r_lower"] <= reference.sigma_r[-1]
    # both sides are rounding noise here: equal to within n * eps * sigma_max
    assert d["sigma_rplus1_upper"] >= reference.sigma_k[0] - p.tol_rank * reference.sigma_r[0]
    assert d["sigma_max_upper"] >= reference.sigma_r[0]
    assert d["gap_ratio_lower"] <= reference.gap_ratio


def test_diagnostics_keys_on_both_routes():
    p = rf.generate(rf.GeneratorSpec(n=60, k=3, seed=8))
    arrays = (p.A, p.e, p.D, p.f)
    certified = rf.validate(*arrays)
    fallback = rf.validate(*arrays, tol_rank=0.09)  # sigma_r = 0.1, within the margin
    assert list(certified.diagnostics) == [
        "rank", "certified", "sigma_max_upper", "sigma_r_lower", "sigma_rplus1_upper",
        "gap_ratio_lower", "ill_split", "cond_uk_e_upper", "cond_f_vk_upper", "cond_d",
    ]
    assert certified.diagnostics["certified"] is True
    with svd_only():
        svd_keys = list(rf.validate(*arrays).diagnostics)
    assert list(fallback.diagnostics) == svd_keys
    assert fallback.diagnostics["certified"] is False
    assert fallback.split is not None


def corpus_case(name):
    """One problem of the rejection corpus, n=40, k=2, real, and its
    tol_rank (None for the default)."""
    n, k = 40, 2
    r = n - k
    sigma = kept_spectrum(n, k, 10.0)
    tol_rank = None
    e_weight = 1.0
    if name == "rank_n_minus_k_plus_1":
        sigma[r] = 1e-3
    elif name == "rank_n_minus_k_minus_1":
        sigma[r - 1] = 0.0
    elif name == "excess_just_above_tol":
        sigma[r] = 2 * n * EPS
    elif name.startswith("gap_"):
        # far above rounding, yet below tol_rank * sigma_max
        tol_rank, sigma[r] = 1e-6, 1e-8
        sigma[r - 1] = float(name.split("_")[1]) * sigma[r]
    elif name == "e_near_range":
        e_weight = 1e-18
    A, e, D, f = build(n, k, "real", 21, sigma, e_weight=e_weight)
    if name == "zero_D":
        D = np.zeros_like(D)
    elif name == "zero_e":
        e = np.zeros_like(e)
    elif name == "zero_f":
        f = np.zeros_like(f)
    elif name == "zero_A":
        A = np.zeros_like(A)
    elif name == "e_inside_range":
        e = np.linalg.svd(A)[0][:, :k]
    elif name == "f_inside_row_space":
        f = np.linalg.svd(A)[2][:k].conj().T
    return (A, e, D, f), tol_rank


# Outcomes as the SVD-only validation gave them before the certificate.
CORPUS = {
    "zero_D": ("DSingular", 3),
    "zero_e": ("SpanDeficientE", 3),
    "zero_f": ("SpanDeficientF", 3),
    "zero_A": ("RankOfANotNMinusK", 3),
    "e_inside_range": ("SpanDeficientE", 3),
    "f_inside_row_space": ("SpanDeficientF", 3),
    "e_near_range": ("SpanDeficientE", 3),
    "rank_n_minus_k_plus_1": ("RankOfANotNMinusK", 3),
    "rank_n_minus_k_minus_1": ("RankOfANotNMinusK", 3),
    "excess_just_above_tol": ("RankOfANotNMinusK", 3),
    "gap_500": ("ok", 38, True),
    "gap_990": ("ok", 38, True),
    "gap_1010": ("ok", 38, False),
    "gap_2000": ("ok", 38, False),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_rejection_corpus_outcome_unchanged(name):
    arrays, tol_rank = corpus_case(name)
    with svd_only():
        assert outcome(*arrays, tol_rank) == CORPUS[name]
    assert outcome(*arrays, tol_rank) == CORPUS[name]
    assert outcome(*arrays, tol_rank, split=True) == CORPUS[name]


def corpus_exit_code(name, path_option, tmp_path, capsys):
    (A, e, D, f), tol_rank = corpus_case(name)
    template = rf.generate(rf.GeneratorSpec(n=40, k=2, seed=0))
    path = tmp_path / "p.json"
    rf.write_problem_file(path, dataclasses.replace(template, A=A, e=e, D=D, f=f))
    tol = [] if tol_rank is None else ["--tol", str(tol_rank)]
    code = main(["invert", str(path), "--path", path_option, "--out",
                 str(tmp_path / "o.json"), *tol])
    capsys.readouterr()
    return code


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_rejection_corpus_exit_code_unchanged(name, tmp_path, capsys):
    expected = CORPUS[name]
    code = corpus_exit_code(name, "direct", tmp_path, capsys)
    assert code == (0 if expected[0] == "ok" else expected[1])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_rejection_corpus_exit_code_on_the_svd_path(name, tmp_path, capsys):
    # invert --path svd validates by the SVD alone (no certificate).
    expected = CORPUS[name]
    code = corpus_exit_code(name, "svd", tmp_path, capsys)
    assert code == (0 if expected[0] == "ok" else expected[1])


def test_direct_path_refuses_only_where_no_construction_is_accurate(tmp_path, capsys):
    # e leaves range(A) with weight 1e-14 only.  Validation accepts it, as
    # cond(U_k* e) ~ 1.1 does not see the scale, but A + e D f* has cond ~ 5e15:
    # B has cond ~ 1e16, and the SVD path's inverse misses by ||A~ X - I|| ~ 0.5.
    A, e, D, f = build(20, 2, "real", 27, kept_spectrum(20, 2, 10.0),
                       e_weight=1e-14, coupling=0.5)
    problem = rf.validate(A, e, D, f)
    with pytest.raises(rf.InnerMatrixSingular):
        rf.structured_inverse_direct(problem)
    dense = rf.reassemble_inverse(rf.structured_inverse_svd(problem), D)
    assert np.linalg.norm(rf.assemble(problem) @ dense - np.eye(20)) > 1e-2
    path = tmp_path / "p.json"
    rf.write_problem_file(path, problem)
    code = main(["invert", str(path), "--path", "direct", "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert code == 4
    assert '"InnerMatrixSingular"' in err


def test_svd_free_routes_refuse_where_no_construction_is_accurate():
    # The problem above: both routes find their matrix numerically
    # singular, and word it alike.
    A, e, D, f = build(20, 2, "real", 27, kept_spectrum(20, 2, 10.0),
                       e_weight=1e-14, coupling=0.5)
    problem = rf.validate(A, e, D, f)
    cond = r"is numerically singular \(cond ~ \d\.\d{3}e\+16\)$"
    with pytest.raises(rf.InnerMatrixSingular, match=r"^bordered matrix \[\[A, e\], \[f\*, 0\]\] " + cond):
        rf.structured_inverse_direct(problem)
    params = rf.AnsatzParams(u=problem.e, v=problem.f, M=np.eye(2))
    with pytest.raises(rf.InnerMatrixSingular, match=r"^inner n-by-n matrix " + cond):
        rf.structured_inverse_general(problem, params)

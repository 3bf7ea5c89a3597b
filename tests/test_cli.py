import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import rankfill as rf
from rankfill.cli import main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


def assert_matches_svd_path(src, out, rel):
    """G, x and y written to ``out`` agree with the SVD path on ``src``,
    each within ``rel`` relative to the SVD path's Frobenius norm."""
    doc = rf.read_problem_file(src)
    ref = rf.structured_inverse_svd(rf.validate(doc.A, doc.e, doc.D, doc.f))
    written = rf.read_problem_file(out)
    for name in ("G", "x", "y"):
        want = getattr(ref, name)
        gap = np.linalg.norm(getattr(written, name) - want)
        assert gap <= rel * np.linalg.norm(want), name


@pytest.fixture
def diag_file(tmp_path, diag_problem):
    path = tmp_path / "diag.json"
    rf.write_problem_file(path, diag_problem)
    return path


@pytest.fixture
def ones_file(tmp_path, ones_problem):
    path = tmp_path / "ones.json"
    rf.write_problem_file(path, ones_problem)
    return path


class TestGen:
    def test_reproducible_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code1, out1, _ = run(capsys, "gen", "--n", 6, "--k", 2, "--seed", 42, "--out", a)
        code2, _, _ = run(capsys, "gen", "--n", 6, "--k", 2, "--seed", 42, "--out", b)
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()
        assert out1["n"] == 6 and out1["diagnostics"]["rank"] == 4
        doc = rf.read_problem_file(a)
        rf.validate(doc.A, doc.e, doc.D, doc.f)  # must not raise

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "--n", 2, "--k", 2,
                           "--out", tmp_path / "x.json")
        assert code == 2
        assert err["error"] == "InvalidSpec"

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "gen", "--n", 6, "--k", 2, "--seed", -1,
                             "--out", tmp_path / "x.json")
        assert (code, out) == (2, None)
        assert err["error"] == "InvalidSpec"

    @pytest.mark.parametrize("flag", ["--spread", "--dcond"])
    def test_non_finite_spec_exits_2(self, tmp_path, capsys, flag):
        # Not a NumPy warning and a NonFiniteInput (exit 3): a bad request.
        code, out, err = run(capsys, "gen", "--n", 6, "--k", 2, flag, "inf",
                             "--out", tmp_path / "x.json")
        assert (code, out) == (2, None)
        assert err["error"] == "InvalidSpec"

    def test_larger_pipeline_seed(self, tmp_path, capsys):
        out = tmp_path / "big.json"
        code, _, _ = run(capsys, "gen", "--n", 100, "--k", 4, "--seed", 7,
                         "--out", out)
        assert code == 0
        code, report, _ = run(capsys, "check", out)
        assert code == 0
        assert report["all_passed"]


class TestInvert:
    def test_diagonal_fixture_svd(self, diag_file, tmp_path, capsys):
        out = tmp_path / "inv.json"
        code, report, _ = run(capsys, "invert", diag_file, "--path", "svd",
                              "--out", out)
        assert code == 0
        assert report["residual_right"] <= 1e-15
        doc = rf.read_problem_file(out)
        assert np.allclose(doc.G, np.diag([1.0, 0.0]), atol=1e-15)
        assert np.allclose(doc.x, [[0.0], [1.0]], atol=1e-15)
        assert np.allclose(doc.inverse, np.diag([1.0, 0.5]), atol=1e-15)

    def test_direct_path_reports_agreement(self, ones_file, tmp_path, capsys):
        code, report, _ = run(capsys, "invert", ones_file, "--path", "direct",
                              "--out", tmp_path / "inv.json")
        assert code == 0
        assert "path_agreement_vs_svd" not in report
        assert_matches_svd_path(ones_file, tmp_path / "inv.json", 1e-12)
        doc = rf.read_problem_file(tmp_path / "inv.json")
        assert np.allclose(doc.G, [[0.0, 0.0], [0.0, 1.0]], atol=1e-14)

    def test_direct_path_on_ill_conditioned_e_exits_0(self, tmp_path, capsys):
        # cond(U_k* e) = 1e9 is valid; a construction that squared the
        # pivots (e* e at 1e-18) failed here with PivotSingular, exit 4.
        p = rf.generate(rf.GeneratorSpec(n=40, k=2, seed=3))
        e = rf.compact_svd(p.A).U_k @ np.diag([1.0, 1e-9])
        src = tmp_path / "p.json"
        rf.write_problem_file(src, dataclasses.replace(p, e=e))
        code, _, err = run(capsys, "invert", src, "--path", "direct",
                           "--out", tmp_path / "inv.json")
        assert (code, err) == (0, None)
        assert_matches_svd_path(src, tmp_path / "inv.json", 1e-12)

    def test_general_path(self, tmp_path, capsys):
        src = tmp_path / "p.json"
        run(capsys, "gen", "--n", 10, "--k", 2, "--seed", 3, "--out", src)
        code, _, _ = run(capsys, "invert", src, "--path", "general",
                         "--out", tmp_path / "inv.json")
        assert code == 0
        assert_matches_svd_path(src, tmp_path / "inv.json", 1e-9)

    def test_k_equal_n_exits_3(self, tmp_path, capsys):
        path = tmp_path / "kn.json"
        path.write_text(json.dumps({
            "version": 1, "field": "real", "n": 2, "k": 2,
            "A": [[1.0, 0.0], [0.0, 0.0]],
            "e": [[1.0, 0.0], [0.0, 1.0]],
            "D": [[1.0, 0.0], [0.0, 1.0]],
            "f": [[1.0, 0.0], [0.0, 1.0]],
        }))
        code, _, err = run(capsys, "invert", path, "--out", tmp_path / "o.json")
        assert code == 3
        assert err["error"] == "RankOfANotNMinusK"

    def test_validation_failure_exits_3(self, tmp_path, capsys):
        path = tmp_path / "span.json"
        path.write_text(json.dumps({
            "version": 1, "field": "real", "n": 2, "k": 1,
            "A": [[1.0, 0.0], [0.0, 0.0]],
            "e": [[1.0], [0.0]],
            "D": [[1.0]],
            "f": [[0.0], [1.0]],
        }))
        code, _, err = run(capsys, "invert", path, "--out", tmp_path / "o.json")
        assert code == 3
        assert err["error"] == "SpanDeficientE"

    @pytest.mark.parametrize("command", ["invert", "check", "det"])
    def test_e_of_rounding_noise_exits_3(self, tmp_path, capsys, command):
        # e = leading left singular vectors of A: U_k* e is ~1e-16 noise
        # with cond ~ 10, which a purely relative test accepted.
        p = rf.generate(rf.GeneratorSpec(n=120, k=3, seed=5))
        path = tmp_path / "noise.json"
        rf.write_problem_file(path, dataclasses.replace(p, e=np.linalg.svd(p.A)[0][:, :3]))
        extra = ["--out", tmp_path / "o.json"] if command == "invert" else []
        code, out, err = run(capsys, command, path, *extra)
        assert code == 3 and out is None
        assert err["error"] == "SpanDeficientE"


    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exits_2(self, ones_file, tmp_path, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["invert", str(ones_file), "--tol", tol, "--out", str(tmp_path / "o.json")])
        assert exc.value.code == 2
        assert "must be nonnegative and finite" in capsys.readouterr().err


class TestCheck:
    def test_pipeline_all_pass(self, ones_file, tmp_path, capsys):
        inv_file = tmp_path / "inv.json"
        run(capsys, "invert", ones_file, "--out", inv_file)
        code, report, _ = run(capsys, "check", inv_file)
        assert code == 0
        assert report["inverse_source"] == "stored"
        assert report["all_passed"]
        assert report["riedel_agreement"]["passed"]
        assert report["penrose"]["AGA_minus_A"]["passed"]

    def test_computes_inverse_when_absent(self, ones_file, capsys):
        code, report, _ = run(capsys, "check", ones_file)
        assert code == 0
        assert report["inverse_source"] == "computed"

    def test_diagonal_fixture_all_residuals_zero(self, diag_file, capsys):
        code, report, _ = run(capsys, "check", diag_file)
        assert code == 0
        assert max(report["identities"]["residuals"].values()) == 0.0

    def test_corrupted_g_exits_5(self, ones_file, tmp_path, capsys):
        inv_file = tmp_path / "inv.json"
        run(capsys, "invert", ones_file, "--out", inv_file)
        doc = json.loads(inv_file.read_text())
        doc["G"][0][0] = 0.1
        inv_file.write_text(json.dumps(doc))
        code, report, _ = run(capsys, "check", inv_file)
        assert code == 5
        assert not report["all_passed"]
        assert not report["identities"]["passed"]["fG"]

    @pytest.fixture
    def inverted(self, tmp_path, capsys):
        src, inv_file = tmp_path / "p.json", tmp_path / "inv.json"
        run(capsys, "gen", "--n", 40, "--k", 2, "--seed", 3, "--out", src)
        run(capsys, "invert", src, "--out", inv_file)
        return inv_file

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_2(self, inverted, capsys, tol):
        # An infinite tolerance passed every residual of a corrupted file.
        doc = json.loads(inverted.read_text())
        doc["G"][0][0] += 1.0
        inverted.write_text(json.dumps(doc))
        assert run(capsys, "check", inverted)[0] == 5
        with pytest.raises(SystemExit) as exc:
            main(["check", str(inverted), "--tol", tol])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_stored_dense_inverse_agrees(self, inverted, capsys):
        code, report, _ = run(capsys, "check", inverted)
        assert code == 0 and report["all_passed"]
        assert report["stored_inverse_agreement"]["passed"]
        assert report["stored_inverse_agreement"]["residual"] <= 1e-12

    def test_no_stored_dense_inverse_to_compare(self, ones_file, capsys):
        code, report, _ = run(capsys, "check", ones_file)
        assert code == 0 and report["stored_inverse_agreement"] is None

    @pytest.mark.parametrize("corruption", ["zeroed", "one-entry-flip"])
    def test_corrupted_dense_inverse_exits_5(self, inverted, capsys, corruption):
        doc = json.loads(inverted.read_text())
        if corruption == "zeroed":
            doc["inverse"] = [[0.0] * 40 for _ in range(40)]
        else:
            doc["inverse"][3][5] = -doc["inverse"][3][5]
        inverted.write_text(json.dumps(doc))
        code, report, _ = run(capsys, "check", inverted)
        assert code == 5 and not report["all_passed"]
        assert report["identities"]["all_passed"]
        assert not report["stored_inverse_agreement"]["passed"]

    @pytest.mark.parametrize("dropped", ["x", "y", "xy"])
    def test_partial_stored_inverse_exits_2(self, inverted, capsys, dropped):
        doc = json.loads(inverted.read_text())
        for name in dropped:
            del doc[name]
        inverted.write_text(json.dumps(doc))
        code, report, err = run(capsys, "check", inverted)
        assert code == 2 and report is None
        assert err == {"error": "ParseError", "message": "G, x and y must be stored together"}

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _, err = run(capsys, "check", bad)
        assert code == 2
        assert err["error"] == "ParseError"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "check", tmp_path / "absent.json")
        assert code == 2
        assert err["error"] == "ParseError"


class TestDet:
    def test_dense_fixture_values(self, ones_file, capsys):
        code, report, _ = run(capsys, "det", ones_file)
        assert code == 0
        assert report["det_lemma"] == pytest.approx(2.0, abs=1e-13)
        assert report["det_dense"] == pytest.approx(2.0, abs=1e-13)
        assert report["det_inverse_lemma"] == pytest.approx(0.5, abs=1e-13)
        assert report["relative_gap"] <= 1e-12
        assert report["det_out_of_range"] is False

    def test_diagonal_fixture_values(self, diag_file, capsys):
        code, report, _ = run(capsys, "det", diag_file)
        assert code == 0
        assert report["det_lemma"] == pytest.approx(2.0, abs=1e-14)
        assert report["det_inverse_lemma"] == pytest.approx(0.5, abs=1e-14)

    def test_generated_instance_small_gap(self, tmp_path, capsys):
        src = tmp_path / "p.json"
        run(capsys, "gen", "--n", 6, "--k", 2, "--seed", 42, "--out", src)
        code, report, _ = run(capsys, "det", src)
        assert code == 0
        assert report["relative_gap"] <= 1e-10

    def test_complex_determinant_serialized_as_pair(self, tmp_path, capsys):
        src = tmp_path / "c.json"
        run(capsys, "gen", "--n", 5, "--k", 1, "--seed", 8,
            "--field", "complex", "--out", src)
        code, report, _ = run(capsys, "det", src)
        assert code == 0
        assert isinstance(report["det_lemma"], list) and len(report["det_lemma"]) == 2


    def test_underflowing_determinant_reported_in_log_space(self, tmp_path, capsys):
        # log|det| is about -823 here: the plain values under- and overflow
        # a double, so they print as null while the gap stays correct.
        src = tmp_path / "hard.json"
        run(capsys, "gen", "--n", 180, "--k", 2, "--seed", 15, "--spread", "1e4",
            "--coupling", 0.9, "--out", src)
        proc = subprocess.run(
            [sys.executable, "-m", "rankfill.cli", "det", str(src)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        assert report["det_out_of_range"] is True
        for key in ("det_lemma", "det_dense", "det_inverse_lemma"):
            assert report[key] is None, key

        doc = rf.read_problem_file(src)
        s_lemma, l_lemma = np.linalg.slogdet(doc.A + doc.e @ doc.f.T)
        l_lemma += np.linalg.slogdet(doc.D)[1]
        s_lemma *= np.linalg.slogdet(doc.D)[0]
        s_dense, l_dense = np.linalg.slogdet(doc.A + doc.e @ doc.D @ doc.f.T)
        assert l_dense < np.log(np.finfo(np.float64).tiny)
        assert s_lemma == s_dense == report["logdet_sign"]
        assert report["logdet_magnitude"] == pytest.approx(l_lemma, rel=1e-12)
        want_gap = abs(np.expm1(l_lemma - l_dense))
        assert 0.0 < want_gap < 1e-9
        assert report["relative_gap"] == pytest.approx(want_gap, rel=1e-2)

    def test_integer_beyond_double_range_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "version": 1, "field": "real", "n": 2, "k": 1,
            "A": [[10**400, 0.0], [0.0, 0.0]], "e": [[0.0], [1.0]],
            "D": [[2.0]], "f": [[0.0], [1.0]],
        }))
        code, report, err = run(capsys, "det", bad)
        assert code == 2
        assert report is None
        assert err["error"] == "ParseError"
        assert "out of the double range" in err["message"]


class TestBench:
    def test_small_run_reports_everything(self, capsys):
        code, report, _ = run(capsys, "bench", "--n", 50, "--k", 1,
                              "--repeats", 2, "--seed", 0)
        assert code == 0
        assert report["construct_seconds"]["svd"] > 0
        assert report["construct_seconds"]["direct"] > 0
        assert report["reassemble_seconds"] > 0
        assert report["dense_invert_seconds"] > 0
        assert report["woodbury_update_on_shifted_seconds"] > 0
        assert report["residual_reassemble_max"] < 1e-8
        assert report["residual_dense_max"] < 1e-8
        assert report["status"] in ("ok", "warn", "fail")

    def test_invalid_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "bench", "--n", 2, "--k", 2)
        assert code == 2
        assert err["error"] == "InvalidSpec"

    @pytest.mark.parametrize("flag", [("--seed", -1), ("--repeats", 0)],
                             ids=["negative-seed", "zero-repeats"])
    def test_bad_number_exits_2(self, capsys, flag):
        code, out, err = run(capsys, "bench", "--n", 20, "--k", 1, *flag)
        assert (code, out) == (2, None)
        assert err["error"] == "InvalidSpec"


def test_console_script_smoke(tmp_path):
    out = tmp_path / "p.json"
    proc = subprocess.run(
        [sys.executable, "-m", "rankfill.cli", "gen", "--n", "5", "--k", "1",
         "--seed", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["out"] == str(out)
    assert out.exists()

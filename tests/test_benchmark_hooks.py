"""The benchmark's tracer installs itself by module and attribute name.

``perfbench/run.py --trace 1`` fails at install time when a traced name
is moved or deleted, so the names it looks up are checked here, and so
is the line between the package and the tests-only oracles.  Its
checkers read keys of the CLI's reports and files; a dropped key fails
every op of that kind, so those keys are checked here too.
"""

import importlib
import importlib.util
import json
import pathlib
import pkgutil

import pytest

import rankfill
from rankfill.cli import main

import oracles

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    for prefix, module_name, attr in load_perfbench("tracing").TRACED_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), prefix


# What perfbench/workloads.py reads off a generated problem and off its
# SVD-route triple; several of these are properties read off the arrays.
PROBLEM_READS = ("A", "e", "D", "f", "n", "k", "field")
TRIPLE_READS = ("G", "x", "y", "diagnostics")


def test_attributes_the_benchmark_reads_resolve():
    problem = rankfill.generate(rankfill.GeneratorSpec(n=6, k=2, seed=7, field="complex"))
    inv = rankfill.structured_inverse_svd(problem)
    assert (problem.n, problem.k, problem.field) == (6, 2, "complex")
    assert all(getattr(problem, name) is not None for name in PROBLEM_READS)
    assert all(getattr(inv, name) is not None for name in TRIPLE_READS)


# What perfbench/workloads.py reads off the `cli_roundtrip` outputs.
CHECK_READS = (("all_passed",), ("identities", "all_passed"),
               ("penrose", "AGA_minus_A", "passed"))
DET_READS = ("logdet_magnitude", "det_lemma", "det_dense", "det_inverse_lemma",
             "relative_gap")


def test_cli_outputs_the_benchmark_reads(tmp_path, capsys):
    def run(*argv):
        assert main([str(arg) for arg in argv]) == 0
        return json.loads(capsys.readouterr().out)

    src = tmp_path / "p.json"
    run("gen", "--n", 6, "--k", 2, "--seed", 7, "--out", src)
    for path in ("svd", "direct"):
        out = tmp_path / f"{path}.json"
        run("invert", src, "--path", path, "--out", out)
        assert len(json.loads(out.read_text())["inverse"]) == 6, path
    report = run("check", tmp_path / "direct.json")
    for keys in CHECK_READS:
        value = report
        for key in keys:
            value = value[key]
        assert value is True, keys
    report = run("det", tmp_path / "svd.json")
    assert set(DET_READS) <= report.keys()


# The benchmark counts an op as failed when its command exits nonzero or
# its checker finds the output wrong, and a larger share of failed ops is
# a regression.  So the `cli_roundtrip` op cycle runs here on the tiny
# pool, hard file included, through the benchmark's own ops and checkers.
@pytest.mark.parametrize("seed", range(10))
def test_cli_roundtrip_cycle_passes_the_benchmark_checks(tmp_path, seed):
    workload = load_perfbench("workloads").CliRoundtrip(seed, tiny=True, workdir=tmp_path)
    workload.setup()  # gen of every pool file; a nonzero exit raises
    workload.prepare_oracles()
    for op in workload.cycle(0):
        result = op.call()
        code, out, err = result
        assert code == 0, (op.kind, err)
        if op.kind == "check":
            assert json.loads(out)["all_passed"] is True
        assert op.check(result) is None, op.kind


def test_every_exported_name_exists():
    missing = [name for name in rankfill.__all__ if not hasattr(rankfill, name)]
    assert missing == []


ORACLE_NAMES = (
    "pseudoinverse", "g_from_pseudoinverse", "g_from_known_xy", "nullspace_difference_check",
    "riedel_decomposition", "RiedelDecomposition", "dense_inverse_oracle",
    "OracleSingular",
)


def test_verification_oracles_live_outside_the_package():
    modules = [rankfill] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(rankfill.__path__, "rankfill.")
    ]
    defined = [
        f"{module.__name__}.{name}"
        for module in modules for name in ORACLE_NAMES if hasattr(module, name)
    ]
    assert defined == []
    assert not set(ORACLE_NAMES) & set(rankfill.__all__)
    assert all(hasattr(oracles, name) for name in ORACLE_NAMES)

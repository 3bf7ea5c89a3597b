"""Self-check of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each workload runs on tiny instances; the check confirms the output
contract (every declared metric, with its unit), the failure accounting
(every op of every cycle attempted, the hard ``cli_roundtrip`` file's
``det`` failing once per cycle as the recorded range defect, any other
failure making the run incorrect), that two traced runs with one seed see
identical inputs and counts, and that the benchmark refuses to run
without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from run import result_line  # noqa: E402
from workloads import Failure  # noqa: E402

WORKLOADS = ("cli_roundtrip", "factor", "dswap")
COUNT_SUFFIXES = (".calls", ".bytes")


def _declared(section):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _run(workload, trace, seed=3, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _check_contract(final, section):
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert isinstance(final["attempted"], int) and final["attempted"] >= 1
    assert isinstance(final["failed"], int)
    declared = _declared(section)
    assert set(final["metrics"]) == set(declared)
    for name, metric in final["metrics"].items():
        assert metric["unit"] == declared[name], name
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_emits_every_end_to_end_metric(workload):
    report, final = _result(_run(workload, trace=0))
    _check_contract(final, "end_to_end")
    for name in final["metrics"]:
        assert final["metrics"][name]["value"] > 0, name
    cycles = report["cycles"] + report["warmup_cycles"]
    assert final["attempted"] == cycles * report["cycle_ops"]
    if workload == "cli_roundtrip":
        # det on the hard file, once per cycle: the recorded range defect.
        assert final["failed"] == cycles
        assert report["failed_frac"] == cycles / final["attempted"]
    assert report["known_defect_failures"] == final["failed"]
    assert final["attempted"] >= report["timed_ops"]
    assert report["tail"]["samples_beyond"] >= 10
    assert set(report["kind_p50_s"]) == {f"{kind}_p50_s" for kind in report["kind_samples"]}
    env = report["environment"]
    for key in ("python", "numpy", "blas", "blas_threads", "nproc", "l3_mb",
                "working_set_mb_computed", "notes"):
        assert key in env, key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_inputs_and_counts(workload):
    first_report, first = _result(_run(workload, trace=1))
    second_report, second = _result(_run(workload, trace=1))
    _check_contract(first, "per_layer")
    assert first_report["environment"]["input_sha256"] == \
        second_report["environment"]["input_sha256"]
    counts = [
        name for name in first["metrics"]
        if name.endswith(COUNT_SUFFIXES) or (name.startswith("linalg.") and name.endswith(".calls"))
    ]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["instances.generate.calls"]["value"] >= 1


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run("factor", trace=0, cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert "metrics" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_only_recorded_defects_leave_the_run_correct():
    known = Failure("det: determinant out of range but relative_gap is 0.0", known_defect=True)
    other = Failure("invert: relative error 1e-3 vs LU oracle")
    units = {"setup_s": "s"}
    metrics = {"setup_s": 1.5}
    assert result_line(10, [], metrics, units)["correct"] is True
    line = result_line(10, [known, known], metrics, units)
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 10, 2)
    line = result_line(10, [known, other], metrics, units)
    assert (line["correct"], line["failed"]) == (False, 2)
    assert line["metrics"] == {"setup_s": {"value": 1.5, "unit": "s"}}

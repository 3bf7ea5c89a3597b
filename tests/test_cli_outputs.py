"""The CLI's outputs are byte-identical from run to run.

``tools/cli_outputs.py`` hashes every stdout and written file of a fixed
set of commands on four reference instances; two runs into different
directories must give the same manifest.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"


def test_two_runs_give_the_same_manifest(tmp_path):
    spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    first = tool.manifest(tmp_path / "first")
    second = tool.manifest(tmp_path / "second")
    assert first == second
    # 4 instances: gen and 3 inverts, each a stdout and a file, then
    # check and det of 4 files.
    assert len(first) == 4 * (2 * 4 + 2 * 4)
    # Every command succeeds, so no empty output passes for a repeat.
    assert all(line.endswith("  0") for line in first)

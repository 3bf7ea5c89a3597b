"""Budgets on the traced peak memory of the build, stage by stage.

``tools/peak_memory.py`` traces each stage of building and checking one
generated problem and reports its peak in n-by-n arrays.  The budgets
are whole arrays plus a margin for the n-by-k factors and the k-by-k
blocks; one more n-by-n temporary in any stage of the build or the
checks breaks its budget, and so does one more matrix of decoded
objects in the read.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_memory.py"

# generate: its A and validation's copy, the bordered matrix B, inv(B)
# and the |B| of ||B||_1 (the Haar bases are dropped before validation).
# from_factors: (V_r - x f* V_r) / sigma_r, scaled in place, with the
# product and difference of the U_r* side, then with that side and G.
# check_identities: a fresh product and the term added into it;
# invert_residuals: A~ and a fresh product.
# read_problem_file, of a direct-path output (three n-by-n matrices):
# the raw text, about 20.5 bytes per entry or 7.7 arrays; one matrix of
# decoded objects, a 24-byte float and an 8-byte list slot per entry or
# 4 arrays; and the three arrays kept, the last one being converted
# (about 14.8, plus the n-by-k blocks).  One more matrix of live objects
# adds 4 arrays; decoding the whole document at once took about 23.
BUDGETS = {
    "generate": 5.3,
    "structured_inverse_from_factors": 3.1,
    "check_identities": 2.1,
    "invert_residuals": 2.1,
    "read_problem_file": 16.0,
}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("peak_memory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [300, 1000])
def test_stages_keep_to_their_budgets(tool, n):
    peaks = tool.peaks(n, 4)
    assert list(peaks) == ["generate", "validate", "compact_svd",
                           "structured_inverse_from_factors", "check_identities",
                           "invert_residuals", "read_problem_file"]
    over = {name: round(peaks[name], 3) for name, budget in BUDGETS.items()
            if not peaks[name] <= budget}
    assert not over, f"over budget {BUDGETS}: {over}"
    # Every stage holds at least its result.
    assert all(peak >= 1.0 for peak in peaks.values())

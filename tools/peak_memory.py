"""Traced peak memory of building and checking one problem, stage by stage.

Generates the problem ``GeneratorSpec(n, k, seed=7, field)`` and runs each
stage of the build and of its checks under ``tracemalloc``, which
sees every NumPy array buffer (the work arrays of numpy.linalg's LAPACK
calls are not traced).
One line ``stage  peak`` is printed per stage, in units of one n-by-n
array of the field's dtype (n^2 * 8 bytes real, n^2 * 16 complex):

    PYTHONPATH=src python tools/peak_memory.py N K [real|complex]

A stage's peak is the most memory traced while it runs less what was
traced when it started, so the arrays it returns count and its inputs do
not.  The stages:

* ``generate``: ``instances.generate``, the seeded draw and its validation;
* ``validate``: ``core.validate`` of the generated arrays (the certificate
  route, which keeps the bordered (G, x, y));
* ``compact_svd``: the rank split of A;
* ``structured_inverse_from_factors``: (G, x, y) from that split;
* ``check_identities``: the eight identity residuals of that triple;
* ``invert_residuals``: ``rankfill invert``'s two residuals
  ``||A~ X - I||_F`` and ``||X A~ - I||_F`` of the dense inverse X;
* ``read_problem_file``: the read of what ``rankfill invert --path direct``
  writes for the problem (A, e, D, f, G, x, y and the dense inverse),
  from a temporary file.
"""

import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from rankfill.cli import _inversion_residuals
from rankfill.core import compact_svd, reassemble_inverse, validate
from rankfill.direct import structured_inverse_direct
from rankfill.identities import check_identities
from rankfill.instances import GeneratorSpec, generate
from rankfill.io import read_problem_file, write_problem_file
from rankfill.svd import structured_inverse_from_factors

SEED = 7


def _traced_peak(fn, *args):
    """(result of ``fn(*args)``, its traced peak in bytes above the start)."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    result = fn(*args)
    return result, tracemalloc.get_traced_memory()[1] - start


def _stage_peaks(spec):
    """Traced peak of every stage on the problem of ``spec``, in bytes."""
    out = {}
    problem, out["generate"] = _traced_peak(generate, spec)
    A, e, D, f = problem.A, problem.e, problem.D, problem.f
    _, out["validate"] = _traced_peak(validate, A, e, D, f)
    svd, out["compact_svd"] = _traced_peak(compact_svd, A, problem.tol_rank, spec.k)
    inv, out["structured_inverse_from_factors"] = _traced_peak(
        structured_inverse_from_factors, svd, e, f)
    _, out["check_identities"] = _traced_peak(check_identities, problem, inv)
    dense = reassemble_inverse(inv, D)
    _, out["invert_residuals"] = _traced_peak(_inversion_residuals, problem, dense)
    direct = structured_inverse_direct(problem)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inverted.json"
        write_problem_file(path, problem, inverse=direct,
                           dense_inverse=reassemble_inverse(direct, problem.D))
        _, out["read_problem_file"] = _traced_peak(read_problem_file, path)
    return out


def peaks(n, k, field="real"):
    """Ordered mapping of stage name to traced peak, in n-by-n arrays.

    Every stage first runs once on a problem of order k + 4, whose
    figures are dropped: first calls import modules and fill caches,
    about one n-by-n array at n=300.
    """
    unit = n * n * np.dtype(np.complex128 if field == "complex" else np.float64).itemsize
    tracemalloc.start()
    try:
        _stage_peaks(GeneratorSpec(n=k + 4, k=k, seed=SEED, field=field))
        out = _stage_peaks(GeneratorSpec(n=n, k=k, seed=SEED, field=field))
    finally:
        tracemalloc.stop()
    return {name: size / unit for name, size in out.items()}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (2, 3) or argv[2:] not in ([], ["real"], ["complex"]):
        print("usage: peak_memory.py N K [real|complex]", file=sys.stderr)
        return 2
    for name, peak in peaks(int(argv[0]), int(argv[1]), *argv[2:]).items():
        print(f"{name:<32}  {peak:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands: gen, invert, check, det, bench.  Reports go to stdout as
JSON; errors go to stderr as JSON.  Exit codes are a stable contract:
0 ok, 2 parse/request error, 3 validation failure, 4 numerical failure,
5 identity check failure.  ``check`` is decided by the eight identities
and a stored dense inverse; it forms no Penrose product.
"""

import argparse
import json
import math
import numbers
import statistics
import sys
import time

import numpy as np

from . import io as rmpio
from ._linalg import fnorm, is_number, minus_identity
from .core import (
    IdentityTolerance,
    StructuredInverse,
    assemble,
    reassemble_inverse,
    validate,
)
from .determinant import _signed_log, logdet_inverse_via_lemma, logdet_via_lemma
from .direct import structured_inverse_direct, structured_inverse_general
from .errors import InvalidSpec, RankfillError, UsageError
from .identities import PENROSE_IMPLIED_BY, check_identities
from .instances import GeneratorSpec, general_params, generate, random_core
from .svd import structured_inverse_svd

BENCH_FAIL_RATIO = 2.0
BENCH_WARN_RATIO = 5.0


def _jsonable(value):
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, float) and not np.isfinite(value):
        return str(value)
    return value


def _emit(report):
    json.dump(_jsonable(report), sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load_validated(path, tol_rank=None, split=False):
    """The file's document and its validated problem; ``split=True`` for
    ``invert --path svd``, which builds on the rank split, so its SVD decides."""
    doc = rmpio.read_problem_file(path)
    problem = validate(doc["A"], doc["e"], doc["D"], doc["f"], tol_rank=tol_rank, split=split)
    return doc, problem


def _stored_or_computed_inverse(doc, problem):
    # The reader stores G, x and y together or not at all.
    if "G" in doc:
        return StructuredInverse(G=doc["G"], x=doc["x"], y=doc["y"]), "stored"
    return structured_inverse_direct(problem), "computed"


def cmd_gen(args):
    spec = GeneratorSpec(
        n=args.n, k=args.k, seed=args.seed, field=args.field,
        sigma_spread=args.spread, coupling=args.coupling, d_cond=args.dcond,
    )
    problem = generate(spec)
    rmpio.write_problem_file(args.out, problem)
    _emit({
        "command": "gen",
        "out": args.out,
        "n": spec.n, "k": spec.k, "seed": spec.seed, "field": spec.field,
        "sigma_spread": spec.sigma_spread, "coupling": spec.coupling,
        "d_cond": spec.d_cond,
        "diagnostics": problem.diagnostics,
    })
    return 0


def _inversion_residuals(problem, dense):
    """``||A~ X - I||_F`` and ``||X A~ - I||_F`` of a dense inverse X of
    ``A~ = assemble(problem)``; each residual is one n-by-n array."""
    filled = assemble(problem)
    return (fnorm(minus_identity(filled @ dense)),
            fnorm(minus_identity(dense @ filled)))


def cmd_invert(args):
    doc, problem = _load_validated(args.input, tol_rank=args.tol, split=args.path == "svd")
    if args.path == "svd":
        inv = structured_inverse_svd(problem)
    elif args.path == "direct":
        inv = structured_inverse_direct(problem)
    else:
        inv = structured_inverse_general(problem, general_params(problem))

    dense = reassemble_inverse(inv, problem.D)
    residual_right, residual_left = _inversion_residuals(problem, dense)
    report = {
        "command": "invert",
        "input": args.input,
        "path": args.path,
        "n": problem.n, "k": problem.k, "field": problem.field,
        "residual_right": residual_right,
        "residual_left": residual_left,
        "conditioning": {**problem.diagnostics, **inv.diagnostics},
        "out": args.out,
    }
    rmpio.write_problem_file(args.out, problem, inverse=inv, dense_inverse=dense)
    _emit(report)
    return 0


def _agreement(a, b, tol):
    """How closely two dense matrices agree, judged by ``tol`` at the
    scale of the larger Frobenius norm."""
    residual = fnorm(a - b)
    scale = max(fnorm(a), fnorm(b))
    return {"residual": residual, "scale": scale, "passed": tol.accepts(residual, scale)}


def cmd_check(args):
    doc, problem = _load_validated(args.input)
    tol = IdentityTolerance(abs=args.tol, rel=args.tol)
    inv, source = _stored_or_computed_inverse(doc, problem)

    ident = check_identities(problem, inv, tol)
    # A stored dense inverse must be G + x inv(D) y*.
    stored = (
        None if "inverse" not in doc
        else _agreement(doc["inverse"], reassemble_inverse(inv, problem.D), tol)
    )

    ok = ident["all_passed"] and (stored is None or stored["passed"])
    _emit({
        "command": "check",
        "input": args.input,
        "inverse_source": source,
        "identities": ident,
        "penrose": {
            name: {"passed": all(ident["passed"][i] for i in implied_by),
                   "implied_by": list(implied_by)}
            for name, implied_by in PENROSE_IMPLIED_BY.items()
        },
        "stored_inverse_agreement": stored,
        "all_passed": ok,
    })
    return 0 if ok else 5


def _plain_det(sign, logabs):
    """sign * exp(logabs), or None outside the normal double range."""
    magnitude = float(np.exp(logabs))
    if not np.finfo(np.float64).tiny <= magnitude <= np.finfo(np.float64).max:
        return None
    return sign * magnitude


def _relative_gap(a, b):
    """|a - b| / |b| from (sign_or_phase, log|det|) pairs; right even when
    a or b is outside the double range."""
    (sign_a, log_a), (sign_b, log_b) = a, b
    return float(abs(sign_a * np.conj(sign_b) * np.exp(log_a - log_b) - 1.0))


def cmd_det(args):
    # Plain values are derived from the log values, so one that under- or
    # overflows prints as null; errstate keeps NumPy warnings off stderr.
    with np.errstate(all="ignore"):
        doc, problem = _load_validated(args.input)
        inv, source = _stored_or_computed_inverse(doc, problem)
        lemma = logdet_via_lemma(problem)
        dense = _signed_log(*np.linalg.slogdet(assemble(problem)), problem.field)
        plain = {
            "det_lemma": _plain_det(*lemma),
            "det_dense": _plain_det(*dense),
            "det_inverse_lemma": _plain_det(*logdet_inverse_via_lemma(inv, problem.D)),
        }
        gap = _relative_gap(lemma, dense)
    _emit({
        "command": "det",
        "input": args.input,
        "inverse_source": source,
        **plain,
        "relative_gap": gap,
        "logdet_sign": lemma[0],
        "logdet_magnitude": lemma[1],
        "det_out_of_range": None in plain.values(),
    })
    return 0


def _timed(fn, *fn_args):
    start = time.perf_counter()
    result = fn(*fn_args)
    return time.perf_counter() - start, result


def run_benchmark(n, k, repeats=5, seed=0):
    """Median times: structured construction, D-swap reassembly, dense LU.

    The D-swap advantage is the measurable content of the D-independence
    of (G, x, y).
    """
    if not (is_number(repeats, numbers.Integral) and repeats >= 1):
        raise InvalidSpec(f"repeats must be >= 1, got {repeats}")
    spec = GeneratorSpec(n=n, k=k, seed=seed)
    problem = generate(spec)
    field = problem.field
    rng = np.random.Generator(np.random.Philox(seed + 1))

    construct = {"svd": [], "direct": []}
    inv = None
    for _ in range(repeats):
        t, inv = _timed(structured_inverse_svd, problem)
        construct["svd"].append(t)
    for _ in range(repeats):
        t, _ = _timed(structured_inverse_direct, problem)
        construct["direct"].append(t)

    reassemble_times, dense_times = [], []
    reassemble_residuals, dense_residuals = [], []
    for _ in range(repeats):
        d_fresh = random_core(rng, k, field, 10.0)
        filled = problem.A + problem.e @ d_fresh @ problem.f.conj().T

        t_update, updated = _timed(reassemble_inverse, inv, d_fresh)
        t_dense, dense = _timed(np.linalg.inv, filled)
        reassemble_times.append(t_update)
        dense_times.append(t_dense)
        reassemble_residuals.append(fnorm(minus_identity(filled @ updated)))
        dense_residuals.append(fnorm(minus_identity(filled @ dense)))

    med_reassemble = statistics.median(reassemble_times)
    med_dense = statistics.median(dense_times)
    speedup = med_dense / med_reassemble if med_reassemble > 0 else float("inf")
    status = ("fail" if speedup < BENCH_FAIL_RATIO
              else "warn" if speedup < BENCH_WARN_RATIO else "ok")
    return {
        "command": "bench",
        "n": n, "k": k, "repeats": repeats, "seed": seed,
        "construct_seconds": {
            name: statistics.median(times) for name, times in construct.items()
        },
        "reassemble_seconds": med_reassemble,
        "dense_invert_seconds": med_dense,
        "speedup_dense_over_reassemble": speedup,
        "residual_reassemble_max": max(reassemble_residuals),
        "residual_dense_max": max(dense_residuals),
        "warn_below": BENCH_WARN_RATIO,
        "fail_below": BENCH_FAIL_RATIO,
        "status": status,
    }


def cmd_bench(args):
    # status conveys the speedup verdict; the exit code only reflects errors
    report = run_benchmark(args.n, args.k, repeats=args.repeats, seed=args.seed)
    _emit(report)
    return 0


def _nonneg_float(text):
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError("must be nonnegative and finite")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises a refusal as UsageError, so that ``main`` reports it as JSON
    like every other error; ``--help`` still prints and exits 0."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="rankfill",
        description="Structured inverses of singular matrices completed by "
                    "rank-k updates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a reproducible problem file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--field", choices=("real", "complex"), default="real")
    gen.add_argument("--spread", type=float, default=10.0,
                     help="sigma_max/sigma_min of A's kept spectrum")
    gen.add_argument("--coupling", type=float, default=0.5,
                     help="fraction of e, f mass inside range(A)/range(A*)")
    gen.add_argument("--dcond", type=float, default=10.0,
                     help="condition number of D")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    inv = sub.add_parser("invert", help="compute (G, x, y) and the dense inverse")
    inv.add_argument("input")
    inv.add_argument("--path", choices=("svd", "direct", "general"), default="svd")
    inv.add_argument("--out", required=True)
    inv.add_argument("--tol", type=_nonneg_float, default=None,
                     help="rank-decision tolerance (default n*eps)")
    inv.set_defaults(func=cmd_invert)

    chk = sub.add_parser("check", help="verify the identity suite of a file")
    chk.add_argument("input")
    chk.add_argument("--tol", type=_nonneg_float, default=1e-9,
                     help="identity tolerance, used as both abs and rel")
    chk.set_defaults(func=cmd_check)

    det = sub.add_parser("det", help="determinant of the completed sum, both routes")
    det.add_argument("input")
    det.set_defaults(func=cmd_det)

    ben = sub.add_parser("bench", help="time D-swap reassembly against dense LU")
    ben.add_argument("--n", type=int, required=True)
    ben.add_argument("--k", type=int, required=True)
    ben.add_argument("--repeats", type=int, default=5)
    ben.add_argument("--seed", type=int, default=0)
    ben.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except RankfillError as exc:
        json.dump({"error": exc.code, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

"""The rankfill benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli_roundtrip --seed 1 --seconds 15 --trace 0

Workloads are ``cli_roundtrip``, ``factor`` and ``dswap`` (see
``perfbench/README.md``).  The program under test is imported from
``src/`` next to this directory; without it the run exits with code 2
and prints no result.

With ``--trace 0`` the run sets up its inputs several times (``setup_s``
is the median), then runs whole op cycles until ``--seconds`` have been
measured and at least the workload's minimum number of cycles is done.
Every op is timed on its own and checked afterwards in a separate checker
process, so neither the checks nor their oracles count in the measured
process's time or peak RSS.  With ``--trace 1`` it traces one set-up,
runs a fixed number of cycles untraced and then replays the same cycles
with spans on; counts therefore repeat exactly for a given seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a
``{"report": ...}`` object with the per-kind breakdown, the failures and
the environment record.
"""

import argparse
import json
import multiprocessing
import os
import pickle
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# Warm-up cycles draw their inputs from indices no timed cycle uses.
WARMUP_CYCLES_FROM = 2 ** 32
# The reference is re-timed when this long has passed since its last
# timing, as the best of the workload's ``reference_repeats`` runs.
REFERENCE_EVERY_S = 0.05
GB = 1e9


def _refuse(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import rankfill from this checkout's ``src/``, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "rankfill" / "__init__.py").is_file():
        _refuse(f"no program under test at {src}")
    sys.path.insert(0, str(src))
    import rankfill

    if src.resolve() not in Path(rankfill.__file__).resolve().parents:
        _refuse(f"rankfill imported from {rankfill.__file__}, not from {src}")


class Checker:
    """Checks op outputs in a forked child process, outside the measured one.

    The child inherits the workload as set up and prepared, computes the
    oracles and keeps every output sent to it; at the end of each cycle it
    rebuilds the cycle's ops from the index and runs their checks.  The
    parent waits while the child works, so the two never run at once, and
    neither oracles nor checks count in the parent's time or peak RSS.
    Outputs travel as pickle protocol 5 with out-of-band buffers, so the
    parent makes no copy of an array it sends.
    """

    def __init__(self, workload):
        self._conn, child_end = multiprocessing.Pipe()
        self._pid = os.fork()
        if self._pid == 0:
            self._conn.close()
            status = 1
            try:
                _serve_checks(workload, child_end)
                status = 0
            except BaseException:  # report, then leave without running the parent's exit path
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(status)
        child_end.close()
        self._conn.recv()  # the oracles are ready

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        try:
            self._conn.send(("stop",))
        except OSError:
            pass
        self._conn.close()
        os.waitpid(self._pid, 0)

    def submit(self, index, position, output):
        """Hand over the output of op ``position`` of cycle ``index``."""
        self._conn.send(("output", index, position))
        _send_object(self._conn, output)
        self._conn.recv()

    def verdict(self):
        """Failures among the outputs submitted since the last verdict."""
        self._conn.send(("verdict",))
        return self._conn.recv()


def _serve_checks(workload, conn):
    from workloads import Failure

    workload.prepare_oracles()
    conn.send("ready")
    outputs = []
    while True:
        message = conn.recv()
        if message[0] == "output":
            outputs.append((message[1], message[2], _recv_object(conn)))
            conn.send(None)
        elif message[0] == "verdict":
            failures, cycles = [], {}
            for index, position, output in outputs:
                if index not in cycles:
                    cycles = {index: workload.cycle(index)}
                op = cycles[index][position]
                try:
                    failure = op.check(output)
                except Exception as exc:  # an output the check cannot read is wrong
                    failure = Failure(f"{op.kind}: check raised {type(exc).__name__}: {exc}")
                if failure is not None:
                    failures.append(failure)
            outputs.clear()
            conn.send(failures)
        else:
            return


def _send_object(conn, obj):
    buffers = []
    header = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    conn.send((header, len(buffers)))
    for buffer in buffers:
        conn.send_bytes(buffer.raw())


def _recv_object(conn):
    header, count = conn.recv()
    return pickle.loads(header, buffers=[conn.recv_bytes() for _ in range(count)])


def _reference_s(task, repeats):
    """Duration of a reference task, best of ``repeats`` runs."""
    return min(_timed(task) for _ in range(repeats))


class Tally:
    """Op outcomes of a run: latencies by kind, failures.

    With ``timed_reference``, each op's latency is also divided by the
    latest duration of the workload's reference task, timed at most
    ``REFERENCE_EVERY_S`` before the op.  The reference is fixed
    benchmark-owned work of the same kind as the workload's, so the ratio
    cancels the host's speed, which drifts by up to 1.6x over minutes for
    interpreter-bound code.
    """

    def __init__(self, workload, checker, timed_reference=False):
        self.workload = workload
        self.checker = checker
        self.timed_reference = timed_reference
        self.samples = []  # (kind, seconds, seconds / reference seconds)
        self.busy_s = 0.0
        self.attempted = 0
        self.failures = []
        self._ref_s = None
        self._ref_at = -np.inf

    def run_cycle(self, index, ops, record=True):
        """Run cycle ``index`` back to back, then collect its checks' verdicts."""
        from workloads import Failure

        for position, op in enumerate(ops):
            if self.timed_reference and time.perf_counter() - self._ref_at >= REFERENCE_EVERY_S:
                self._ref_s = _reference_s(
                    self.workload.reference, self.workload.reference_repeats)
                self._ref_at = time.perf_counter()
            t0 = time.perf_counter()
            try:
                output = op.call()
            except Exception as exc:  # a failed op is counted, the run goes on
                output = exc
            seconds = time.perf_counter() - t0
            if isinstance(output, Exception):
                self.failures.append(
                    Failure(f"{op.kind}: {type(output).__name__}: {output}"))
            elif op.check is not None:
                self.checker.submit(index, position, output)
            output = None  # the next op starts without this output alive
            if record:
                ratio = None if self._ref_s is None else seconds / self._ref_s
                self.samples.append((op.kind, seconds, ratio))
                self.busy_s += seconds
        self.attempted += len(ops)
        self.failures += self.checker.verdict()

    def column(self, index, kind=None):
        return np.array([s[index] for s in self.samples if kind is None or s[0] == kind])

    @property
    def ops(self):
        return len(self.samples)

    @property
    def ops_per_s(self):
        return self.ops / self.busy_s


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _time_setups(workload):
    """Set-up durations, in seconds and in reference durations, of each repeat.

    The set-up reference is timed just before each set-up step, so the
    ratio cancels the host's drift as the ops' ratios do.
    """
    seconds, ratios = [], []
    for _ in range(SETUP_REPEATS):
        total = relative = 0.0
        for step in workload.setup_steps():
            reference_s = _reference_s(workload.setup_reference, workload.reference_repeats)
            step_s = _timed(step)
            total += step_s
            relative += step_s / reference_s
        seconds.append(total)
        ratios.append(relative)
    return seconds, ratios


def run_timed(workload, seconds):
    setup_seconds, setup_ratios = _time_setups(workload)
    workload.prepare()

    with Checker(workload) as checker:
        tally = Tally(workload, checker, timed_reference=True)
        warm_end = time.perf_counter() + workload.warmup_s
        warm_index = WARMUP_CYCLES_FROM
        while time.perf_counter() < warm_end:
            tally.run_cycle(warm_index, workload.cycle(warm_index), record=False)
            warm_index += 1

        cycles = 0
        while cycles < workload.min_cycles or tally.busy_s < seconds:
            tally.run_cycle(cycles, workload.cycle(cycles))
            cycles += 1

    seconds_, ratios = tally.column(1), tally.column(2)
    tail = workload.tail_pct
    metrics = {
        "setup_s": statistics.median(setup_ratios) * workload.nominal_reference_s,
        "op_p50_ref": float(np.median(ratios)),
        "op_tail_ref": float(np.percentile(ratios, tail)),
        "ops_per_ref": tally.ops / float(ratios.sum()),
        "peak_rss_mb": _peak_rss_mb(),
    }
    report = {
        "cycles": cycles,
        "warmup_cycles": warm_index - WARMUP_CYCLES_FROM,
        "cycle_ops": workload.cycle_ops,
        "timed_ops": tally.ops,
        "busy_s": tally.busy_s,
        "setup_s_runs": setup_seconds,
        "setup_ref_runs": setup_ratios,
        "tail": {
            "percentile": tail,
            "samples": tally.ops,
            "samples_beyond": tally.ops * (1.0 - tail / 100.0),
        },
        # The same statistics in plain seconds, as the host ran them.
        "setup_s_wall": statistics.median(setup_seconds),
        "op_p50_s": float(np.median(seconds_)),
        "op_tail_s": float(np.percentile(seconds_, tail)),
        "ops_per_s": tally.ops_per_s,
        "reference_p50_s": float(np.median(seconds_ / ratios)),
        "kind_p50_s": {
            f"{kind}_p50_s": float(np.median(tally.column(1, kind))) for kind in workload.kinds
        },
        "kind_p50_ref": {
            f"{kind}_p50_ref": float(np.median(tally.column(2, kind))) for kind in workload.kinds
        },
        "kind_samples": {kind: len(tally.column(1, kind)) for kind in workload.kinds},
    }
    return metrics, tally, report


def run_traced(workload, spans_path):
    from tracing import IO_FUNCTIONS, KERNEL_SPANS, TRACED_FUNCTIONS, Tracer

    tracer = Tracer(workload.big_sides)
    tracer.install()
    try:
        tracer.op = "setup"
        tracer.active = True
        t0 = time.perf_counter()
        workload.setup()
        setup_wall = time.perf_counter() - t0
    finally:
        tracer.active = False
        tracer.uninstall()
    workload.prepare()

    with Checker(workload) as checker:
        untraced = Tally(workload, checker)
        for index in range(workload.trace_cycles):
            untraced.run_cycle(index, workload.cycle(index))

        traced = Tally(workload, checker)
        op_ids = []
        tracer.install()
        try:
            for index in range(workload.trace_cycles):
                ops = workload.cycle(index)
                first = index * len(ops)
                op_ids += range(first, first + len(ops))
                traced.run_cycle(
                    index, [_as_traced(tracer, first + j, op) for j, op in enumerate(ops)])
        finally:
            tracer.active = False
            tracer.uninstall()
    tracer.write(spans_path)

    everything = tracer.summary()
    in_ops = tracer.summary(set(op_ids))
    traced_wall = setup_wall + traced.busy_s
    metrics = {}
    for name, _, _ in TRACED_FUNCTIONS:
        calls, seconds = everything.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_frac"] = seconds / traced_wall
        if name in IO_FUNCTIONS:
            metrics[f"{name}.bytes"] = tracer.bytes[name]
    for name in KERNEL_SPANS:
        calls, seconds = everything.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        if name != "linalg.svd_values":
            metrics[f"{name}.self_frac"] = seconds / traced_wall

    metrics["linalg.svd_full.per_op"] = in_ops.get("linalg.svd_full", (0, 0.0))[0] / traced.ops
    io_seconds = sum(in_ops.get(name, (0, 0.0))[1] for name in IO_FUNCTIONS)
    metrics["io.share"] = io_seconds / traced.busy_s
    apply_seconds = in_ops.get("core.apply_inverse", (0, 0.0))[1]
    metrics["core.apply_inverse.gbps_computed"] = (
        tracer.bytes["core.apply_inverse"] / apply_seconds / GB if apply_seconds else 0.0
    )
    metrics["core.reassemble_inverse.speedup_vs_lu"] = _speedup_vs_lu(tracer)
    metrics["cli.warnings.count"] = tracer.warnings
    metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_s / untraced.ops_per_s

    tally = untraced
    tally.attempted += traced.attempted
    tally.failures += traced.failures
    report = {
        "cycles": workload.trace_cycles,
        "untraced_ops_per_s": untraced.ops_per_s,
        "traced_ops_per_s": traced.ops_per_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "counts_per_op": {
            name: calls / traced.ops for name, (calls, _) in sorted(in_ops.items())
        },
    }
    return metrics, tally, report


def _as_traced(tracer, op_id, op):
    """The same op, with the tracer on for its call and off for its check."""
    from workloads import Op

    def call():
        tracer.op = op_id
        tracer.active = True
        try:
            return op.call()
        finally:
            tracer.active = False

    return Op(op.kind, call, op.check)


def _speedup_vs_lu(tracer):
    """Dense LU against the traced reassembly, on the same cores.

    Inverting a reassembled inverse costs the LU of ``A + e D f*`` itself:
    same order, same conditioning.  0 when the workload never reassembles.
    """
    if not tracer.reassembled:
        return 0.0
    self_time = tracer.self_times()
    lu = reassemble = 0.0
    for span_id, dense in tracer.reassembled:
        t0 = time.perf_counter()
        np.linalg.inv(dense)
        lu += time.perf_counter() - t0
        reassemble += self_time[span_id]
    return lu / reassemble


def environment(workload):
    from envinfo import machine_record

    return {
        **machine_record(),
        "working_set_mb_computed": workload.working_set_bytes / 1e6,
        "input_sha256": workload.input_digest,
        "pool": workload.pool,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_roundtrip", "factor", "dswap"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instances, for the benchmark's self-check")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0:
        _refuse("--seed must be nonnegative")
    _import_program()
    from workloads import WORKLOADS

    base = ROOT / ".bench_work"
    workdir = base / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        if args.trace:
            metrics, tally, report = run_traced(workload, base / f"spans_{args.workload}.jsonl")
        else:
            metrics, tally, report = run_timed(workload, args.seconds)
        units = declared_units("per_layer" if args.trace else "end_to_end")
        env = environment(workload)
    finally:
        shutil.rmtree(workdir)

    report.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_frac": len(tally.failures) / tally.attempted,
        "known_defect_failures": sum(f.known_defect for f in tally.failures),
        "failures": sorted({f.reason for f in tally.failures})[:10],
        "environment": env,
    })
    print(json.dumps({"report": report}))
    print(json.dumps(result_line(tally.attempted, tally.failures, metrics, units)))
    return 0


def result_line(attempted, failures, metrics, units):
    """The last line of stdout.

    Recorded failures (``Failure.known_defect``) are counted
    in ``failed`` but do not make the run incorrect; any other does.
    """
    return {
        "correct": all(f.known_defect for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def declared_units(section):
    """``{name: unit}`` of one metric section of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


if __name__ == "__main__":
    sys.exit(main())

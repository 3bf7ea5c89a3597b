"""Spans around rankfill's public functions, installed from outside the package.

The tracer swaps module attributes: every binding of a traced function in
any loaded ``rankfill`` module (``rankfill.cli.validate``,
``rankfill.identities.compact_svd``, the package re-exports, ...) is
replaced by a wrapper, and the dense kernels are wrapped on
``numpy.linalg``, which is where rankfill resolves them.  Nothing under
``src/`` changes, and :meth:`Tracer.uninstall` puts every original back.

A span is ``(id, op, name, start, end, parent)``.  Spans are kept in
memory while the run lasts and written out once, at the end.  The self
time of a span is its duration minus the time its child spans cover.
"""

import collections
import json
import os
import sys
import time
import warnings

import numpy as np

# (metric prefix, module, attribute).  The prefix is the module path
# below ``rankfill``, so per-layer names read ``<module>.<function>.<stat>``.
TRACED_FUNCTIONS = (
    ("io.read_problem_file", "rankfill.io", "read_problem_file"),
    ("io.write_problem_file", "rankfill.io", "write_problem_file"),
    ("core.validate", "rankfill.core", "validate"),
    ("core.assemble", "rankfill.core", "assemble"),
    ("core.reassemble_inverse", "rankfill.core", "reassemble_inverse"),
    ("core.apply_inverse", "rankfill.core", "apply_inverse"),
    ("svd.compact_svd", "rankfill.svd", "compact_svd"),
    ("svd.structured_inverse_svd", "rankfill.svd", "structured_inverse_svd"),
    ("direct.structured_inverse_general", "rankfill.direct", "structured_inverse_general"),
    ("identities.check_identities", "rankfill.identities", "check_identities"),
    ("identities.check_penrose", "rankfill.identities", "check_penrose"),
    ("identities.riedel_inverse", "rankfill.identities", "riedel_inverse"),
    ("determinant.det_via_lemma", "rankfill.determinant", "det_via_lemma"),
    ("determinant.det_inverse_via_lemma", "rankfill.determinant", "det_inverse_via_lemma"),
    ("determinant.logdet_via_lemma", "rankfill.determinant", "logdet_via_lemma"),
    ("instances.generate", "rankfill.instances", "generate"),
    ("cli.main", "rankfill.cli", "main"),
)

IO_FUNCTIONS = ("io.read_problem_file", "io.write_problem_file")

# numpy.linalg kernels and the span each one opens on an n-by-n input.
# ``linalg.lu`` covers every LU-based dense kernel rankfill calls.
KERNELS = ("svd", "inv", "solve", "det", "slogdet")
KERNEL_SPANS = ("linalg.svd_full", "linalg.svd_values", "linalg.lu")

# Reassembled inverses kept from the first traced calls, for the dense LU baseline.
KEEP_REASSEMBLED = 4


def _file_bytes(args, kwargs):
    return os.path.getsize(kwargs.get("path", args[0] if args else None))


def _apply_bytes(args, kwargs):
    # G is read once per call: n^2 * itemsize, a computed figure that
    # ignores cache misses.
    inv = kwargs.get("inv", args[0] if args else None)
    return inv.G.nbytes


BYTES_OF = {
    "io.read_problem_file": _file_bytes,
    "io.write_problem_file": _file_bytes,
    "core.apply_inverse": _apply_bytes,
}


class Tracer:
    """Records spans while ``active``; a pass-through otherwise.

    ``big_sides`` holds the matrix orders n of the workload's instances;
    a kernel opens a span only for an n-by-n input, so k-by-k pivot and
    core work is not counted.
    """

    def __init__(self, big_sides):
        self.big_sides = frozenset(big_sides)
        self.active = False
        self.op = None
        self.spans = []
        self.bytes = collections.Counter()
        self.warnings = 0
        self.reassembled = []  # (span id, dense inverse)
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "rankfill" or name.startswith("rankfill."))
        ]
        for prefix, module_name, attr in TRACED_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(prefix, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        for attr in KERNELS:
            self._patch(np.linalg, attr, self._wrap_kernel(attr, getattr(np.linalg, attr)))

    def uninstall(self):
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def _patch(self, module, name, replacement):
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    # -- spans --------------------------------------------------------------

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, name, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((span_id, self.op, name, start, end, parent))

    def _wrap(self, name, fn):
        bytes_of = BYTES_OF.get(name)
        records_warnings = name == "cli.main"
        keeps_result = name == "core.reassemble_inverse"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id, parent = self._open()
            start = time.perf_counter()
            try:
                if records_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    self.warnings += len(caught)
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._close(span_id, name, parent, start)
            if bytes_of is not None:
                self.bytes[name] += bytes_of(args, kwargs)
            if keeps_result and len(self.reassembled) < KEEP_REASSEMBLED:
                self.reassembled.append((span_id, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_kernel(self, attr, fn):
        big_sides = self.big_sides

        def traced(a, *args, **kwargs):
            if not self.active:
                return fn(a, *args, **kwargs)
            shape = np.shape(a)
            if not (len(shape) == 2 and shape[0] == shape[1] and shape[0] in big_sides):
                return fn(a, *args, **kwargs)
            if attr == "svd":
                compute_uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
                name = "linalg.svd_full" if compute_uv else "linalg.svd_values"
            else:
                name = "linalg.lu"
            span_id, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._close(span_id, name, parent, start)

        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the duration of its children."""
        covered = collections.Counter()
        for _, _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return {
            span_id: (end - start) - covered[span_id]
            for span_id, _, _, start, end, _ in self.spans
        }

    def summary(self, ops=None):
        """``{name: (calls, self_seconds)}`` over all spans, or over op ids in ``ops``."""
        self_time = self.self_times()
        calls = collections.Counter()
        seconds = collections.Counter()
        for span_id, op, name, _, _, _ in self.spans:
            if ops is None or op in ops:
                calls[name] += 1
                seconds[name] += self_time[span_id]
        return {name: (calls[name], seconds[name]) for name in calls}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, op, name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "op": op, "name": name,
                    "start": start, "end": end, "parent": parent,
                }))
                fh.write("\n")

"""RMP problem files: a small, audit-friendly JSON format.

Document layout (version 1)::

    {
      "version": 1,
      "field": "real" | "complex",
      "n": <int>, "k": <int>,
      "A": <n x n>, "e": <n x k>, "D": <k x k>, "f": <n x k>,
      "G": <n x n>,        # optional, with x and y: a stored inverse
      "x": <n x k>,        # optional
      "y": <n x k>,        # optional
      "inverse": <n x n>   # optional dense inverse
    }

Matrices are nested row-major lists; complex entries are [re, im] pairs.
Floats survive a write/read round trip bit-identically (shortest
round-trip decimal form).  The writer puts one matrix row per line; the
reader accepts any JSON layout of the same document, and reads integer
entries as the nearest double.  Parsing is strict: a version other than
the integer 1, unknown keys, shape mismatches, non-numeric entries,
integers beyond the double range and non-finite values are all rejected.

Neither direction runs Python code per matrix entry: rows are encoded by
the C JSON encoder, and decoding checks entry types with set operations
before one bulk ``np.array`` conversion.
"""

import json
from itertools import chain

import numpy as np

from .errors import NonFiniteInput, ParseError

__all__ = ["RMP_VERSION", "RmpDocument", "read_problem_file", "write_problem_file"]

RMP_VERSION = 1

_REQUIRED_KEYS = ("version", "field", "n", "k", "A", "e", "D", "f")
_OPTIONAL_KEYS = ("G", "x", "y", "inverse")


class RmpDocument:
    """Parsed RMP payload; matrices are ndarrays, optionals may be None."""

    def __init__(self, field, n, k, A, e, D, f, G=None, x=None, y=None, inverse=None):
        self.field = field
        self.n = n
        self.k = k
        self.A = A
        self.e = e
        self.D = D
        self.f = f
        self.G = G
        self.x = x
        self.y = y
        self.inverse = inverse

    @property
    def has_inverse_factors(self):
        return self.G is not None and self.x is not None and self.y is not None


def _reject_constant(token):
    raise ParseError(f"non-finite JSON token {token!r} is not allowed")


def _check_entry(value, field, where):
    if field == "real":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f"{where}: expected a real number, got {value!r}")
    elif (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in value)
    ):
        raise ParseError(f"{where}: expected an [re, im] pair, got {value!r}")


def _all_numbers(obj, field):
    """Whether every entry is a number, or for complex an [re, im] pair of them.

    The checks run at C speed; ``type(True) is bool``, so booleans fail them.
    """
    entries = chain.from_iterable(obj)
    if field == "complex":
        if not set(map(type, entries)) <= {list} \
                or not set(map(len, chain.from_iterable(obj))) <= {2}:
            return False
        entries = chain.from_iterable(chain.from_iterable(obj))
    return set(map(type, entries)) <= {int, float}


def _decode_matrix(obj, rows, cols, field, name):
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{name}: expected {rows} rows")
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{name}: row {i} must have {cols} entries")
    if not _all_numbers(obj, field):
        # Walk the entries only to name the first bad one.
        for i, row in enumerate(obj):
            for j, value in enumerate(row):
                _check_entry(value, field, f"{name}[{i}][{j}]")
    try:
        out = np.array(obj, dtype=np.float64)
    except OverflowError:
        raise ParseError(f"{name}: an integer entry is out of the double range") from None
    if not np.isfinite(out).all():
        raise ParseError(f"{name}: non-finite entries")
    # Reinterpreting each [re, im] pair as one complex128 keeps signed
    # zeros, which re + 1j * im would not.
    return out.view(np.complex128)[..., 0] if field == "complex" else out


def _rows(matrix, field):
    """float64 rows of ``matrix``; a complex row is a list of [re, im] pairs."""
    if field == "complex":
        m = np.ascontiguousarray(matrix, dtype=np.complex128)
        return m.view(np.float64).reshape(m.shape + (2,))
    return np.asarray(matrix, dtype=np.float64)


def read_problem_file(path):
    """Parse an RMP file; raises ParseError on any schema violation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    # ValueError covers JSONDecodeError, undecodable UTF-8 and integers too
    # long to convert; RecursionError, arrays nested too deep to decode.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None

    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    unknown = set(doc) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    missing = [key for key in _REQUIRED_KEYS if key not in doc]
    if missing:
        raise ParseError(f"missing keys: {missing}")
    version = doc["version"]
    if type(version) is not int or version != RMP_VERSION:  # True == 1 == 1.0
        raise ParseError(f"unsupported version {version!r}, expected {RMP_VERSION}")
    field = doc["field"]
    if field not in ("real", "complex"):
        raise ParseError(f"field must be 'real' or 'complex', got {field!r}")
    n, k = doc["n"], doc["k"]
    if isinstance(n, bool) or isinstance(k, bool) \
            or not isinstance(n, int) or not isinstance(k, int) or n < 1 or k < 1:
        raise ParseError(f"n and k must be positive integers, got {n!r}, {k!r}")

    shapes = {"A": (n, n), "e": (n, k), "D": (k, k), "f": (n, k),
              "G": (n, n), "x": (n, k), "y": (n, k), "inverse": (n, n)}
    values = {}
    for name in ("A", "e", "D", "f"):
        values[name] = _decode_matrix(doc[name], *shapes[name], field, name)
    for name in _OPTIONAL_KEYS:
        values[name] = (
            _decode_matrix(doc[name], *shapes[name], field, name)
            if name in doc else None
        )
    return RmpDocument(field=field, n=n, k=k, **values)


def write_problem_file(path, problem, inverse=None, dense_inverse=None):
    """Write a problem (optionally with its structured/dense inverse).

    The document is streamed one matrix row per line; each row goes
    through the C JSON encoder, which ``json.dump`` with ``indent`` or to a
    file never uses.  A non-finite entry, which the reader would reject,
    raises NonFiniteInput before the file is opened.
    """
    field = problem.field
    matrices = {"A": problem.A, "e": problem.e, "D": problem.D, "f": problem.f}
    if inverse is not None:
        matrices.update(G=inverse.G, x=inverse.x, y=inverse.y)
    if dense_inverse is not None:
        matrices["inverse"] = dense_inverse
    for name, matrix in matrices.items():
        if not np.isfinite(matrix).all():
            raise NonFiniteInput(f"{name} contains non-finite entries; not written")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n  "version": {RMP_VERSION},\n  "field": {json.dumps(field)},'
                 f'\n  "n": {problem.n},\n  "k": {problem.k}')
        for name, matrix in matrices.items():
            fh.write(f',\n  "{name}": [')
            separator = "\n    "
            for row in _rows(matrix, field):
                fh.write(separator + json.dumps(row.tolist()))
                separator = ",\n    "
            fh.write("\n  ]")
        fh.write("\n}\n")

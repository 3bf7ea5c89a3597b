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
the integer 1, unknown keys, a stored inverse with only some of G, x and
y, shape mismatches, non-numeric entries, numbers beyond the double range,
non-finite values and nesting more than 4 levels deep are all rejected.
A file reads to a read-only mapping from the name of each matrix it
stores to a read-only ndarray; field, n and k are the arrays' dtype and
shapes, checked against the header.

orjson prints and parses the number text: each matrix row is one
``orjson.dumps`` of a float64 ndarray.  A file is read in these steps:

1. :func:`_scan`, vectorised over the raw bytes, rejects nesting deeper
   than 4 levels (orjson before 3.9.15 recurses without a limit) and
   gives the verdict ``plain``: no ``t``, ``f`` or ``n`` outside strings,
   so no true, false or null.  Every valid RMP file is plain.
2. A plain file is decoded one matrix at a time (:func:`_read_by_member`).
   A loop of ``bytes.find`` over the quotes gives each top-level array's
   byte span (:func:`_members`).  One ``orjson.loads`` of the skeleton,
   the text with each array replaced by a distinct negative number,
   checks every byte outside the arrays, and :func:`_header` checks its
   keys, version, field, n and k.  Then each matrix, in the schema's
   order, is decoded from its span and converted (step 4), and its
   Python objects are freed before the next one is decoded.  This path
   only ever accepts.
3. Anything else is decoded whole: a file that is not plain, and a
   plain one with a minus sign outside its arrays, a failed decode, a
   placeholder lost to a repeated key or to a string, or a broken
   schema.  ``orjson.loads`` decides.  Its verdict is final, and its
   error message, which gives a line and column, is the one reported,
   except for input that is not UTF-8, where orjson 3.8 misnames the
   fault and the codec's message, naming the byte and its position, is
   reported instead.  ``_parse`` then checks every matrix before it
   converts it.  So the member-wise path accepts only what this one
   accepts, with the same arrays, and every rejection is worded here.
4. Each matrix is converted one way: a length pass over the rows (and
   over the [re, im] pairs if complex) and one ``np.fromiter``.  On the
   member-wise path a matrix's span holds no quote, and the verdict
   rules out true, false and null, so nothing that ``np.fromiter``
   would read as a number hides in it: the matrix is converted with no
   type check per entry, and checked only if that fails.  The
   whole-document decode checks first.  The checks name the first row
   that is not a list of the right length, else the first bad entry:
   each row is typed by one C-speed pass per nesting level, and only
   the first row that fails is walked entry by entry.  Every matrix is
   then checked to be finite.

A member-wise read holds the raw text, one matrix of decoded Python
objects (about 32 bytes per real entry, a float object and a list slot,
and 128 per complex one, whose [re, im] pair is a list of its own) and
the arrays converted so far.  Reading an inverted file
(A, G and the dense inverse, n=1000) peaks at about 15 n-by-n float64
arrays traced, against about 23 when the whole document is decoded at
once.  A whole-document read holds the objects of every matrix together.

The cyclic garbage collector is paused while a file is decoded and
converted, since a decoded JSON value holds no reference cycle (see
:func:`read_problem_file`).
"""

import gc
from itertools import chain
from types import MappingProxyType

import numpy as np
import orjson

from ._linalg import check_shapes, readonly
from .errors import DimensionMismatch, NonFiniteInput, ParseError, WriteError

__all__ = ["RMP_VERSION", "read_problem_file", "write_problem_file"]

RMP_VERSION = 1

# An RMP document nests at most an object, a matrix, a row and a complex pair.
_MAX_DEPTH = 4
_SCAN_CHUNK = 1 << 18
# Outside strings, a JSON text spells true, false and null with these
# letters, and a number never holds one.
_LITERAL_LETTERS = b"tfn"
_NOT_SCANNED = bytes(sorted(set(range(256)) - set(b'[]{}"' + _LITERAL_LETTERS)))
_DEPTH_STEP = np.zeros(256, dtype=np.int8)
_DEPTH_STEP[list(b"[{")] = 1
_DEPTH_STEP[list(b"]}")] = -1
_IS_LETTER = np.zeros(256, dtype=bool)
_IS_LETTER[list(_LITERAL_LETTERS)] = True

_REQUIRED_KEYS = ("version", "field", "n", "k", "A", "e", "D", "f")
_OPTIONAL_KEYS = ("G", "x", "y", "inverse")


def _shapes(n, k):
    """Each RMP matrix's (rows, cols): the one table the reader checks a
    document against and the writer checks its arrays against."""
    return {"A": (n, n), "e": (n, k), "D": (k, k), "f": (n, k),
            "G": (n, n), "x": (n, k), "y": (n, k), "inverse": (n, n)}


def _numeric_row(row, field):
    """Whether every entry of ``row`` is a number, or for complex an [re,
    im] pair of numbers: one pass at C speed per nesting level.
    ``type(True) is bool``, so booleans fail."""
    if field == "real":
        return set(map(type, row)) <= {int, float}
    return (set(map(type, row)) <= {list} and set(map(len, row)) <= {2}
            and set(map(type, chain.from_iterable(row))) <= {int, float})


def _check_matrix(obj, cols, field, name):
    """ParseError naming the first row of matrix ``obj`` that is not a
    list of ``cols`` entries, else its first bad entry in row-major
    order.  Only a row that :func:`_numeric_row` rejects is walked entry
    by entry, each entry judged by :func:`_numeric_row` too."""
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{name}: row {i} must have {cols} entries")
    kind = "a real number" if field == "real" else "an [re, im] pair"
    for i, row in enumerate(obj):
        if not _numeric_row(row, field):
            for j, value in enumerate(row):
                if not _numeric_row([value], field):
                    raise ParseError(f"{name}[{i}][{j}]: expected {kind}, got {value!r}")


def _plain_parts(obj, rows, cols, field):
    """The float64 entries of matrix ``obj`` (re and im parts, flat, if
    complex) by one ``np.fromiter``; None if ``obj`` is not a
    ``rows``-by-``cols`` matrix of numbers, or for complex of [re, im]
    pairs of numbers.

    Only lengths are checked: a row, and for complex an entry, that is
    not an array has no length, and an array where a number belongs
    fails the conversion.  Strings, booleans and null, which
    ``np.fromiter`` would read as numbers, must be ruled out first, by
    the member-wise read (see :func:`_read_by_member`) or by
    :func:`_check_matrix`.  orjson reads an integer beyond 64 bits as a
    float and rejects one beyond the double range, so no entry overflows.
    """
    try:
        if set(map(len, obj)) != {cols}:
            return None
        parts, count = chain.from_iterable(obj), rows * cols
        if field == "complex":
            if set(map(len, chain.from_iterable(obj))) != {2}:
                return None
            parts, count = chain.from_iterable(parts), 2 * count
        return np.fromiter(parts, dtype=np.float64, count=count)
    except (TypeError, ValueError):
        return None


def _decode_matrix(obj, rows, cols, field, name, plain):
    """The read-only ndarray of matrix ``obj``; ParseError naming its first
    bad row or entry, in row-major order.  With ``plain`` the matrix is
    converted at once and checked only if that fails, which is right
    where ``obj`` can hold no string, boolean or null (see
    :func:`_read_by_member`); otherwise it is checked first."""
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{name}: expected {rows} rows")
    out = _plain_parts(obj, rows, cols, field) if plain else None
    if out is None:
        _check_matrix(obj, cols, field, name)
        out = _plain_parts(obj, rows, cols, field)
    if not np.isfinite(out).all():
        raise ParseError(f"{name}: non-finite entries")
    # Reinterpreting each [re, im] pair as one complex128 keeps signed
    # zeros, which re + 1j * im would not.
    if field == "complex":
        out = out.view(np.complex128)
    return readonly(out.reshape(rows, cols))


def _rows(matrix, field):
    """C-contiguous float64 rows of ``matrix``, as orjson requires; a
    complex row is a (cols, 2) array of [re, im] pairs."""
    if field == "complex":
        m = np.ascontiguousarray(matrix, dtype=np.complex128)
        return m.view(np.float64).reshape(m.shape + (2,))
    return np.ascontiguousarray(matrix, dtype=np.float64)


def read_problem_file(path):
    """Parse an RMP file; raises ParseError on any schema violation.

    Returns a read-only mapping from the name of each matrix the file
    stores to its read-only ndarray, in the schema's order: A, e, D, f,
    then G, x and y (together or not at all) and ``inverse`` if stored.

    A plain file (see :func:`_scan`) is decoded one matrix at a time by
    :func:`_read_by_member`; whatever that does not accept is decoded
    whole, and that decode alone decides and words the result.

    The cyclic garbage collector is paused from the first
    ``orjson.loads`` until the last decoded value is freed, and resumed
    however the read ends: orjson makes one tracked list per row and per
    complex [re, im] pair, and collections rescanning a half-built matrix
    took about half the decode time of a complex file.  The pause defers
    no garbage, since a decoded JSON value holds no reference cycle.  A
    collector the caller disabled is left alone.  The switch is
    process-wide: with reads in several threads, one may find the
    collector resumed before it ends, which costs only time.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    too_deep, plain = _scan(raw)
    if too_deep:
        # orjson before 3.9.15 recurses without a limit, so such a file
        # could overflow the native stack; it never reaches orjson.
        raise ParseError(f"invalid JSON in {path}: nested more than {_MAX_DEPTH} levels deep")
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        matrices = _read_by_member(raw) if plain else None
        if matrices is None:
            # A decoded document lives only as _parse's argument, so it is
            # freed, by reference counting, before the collector resumes.
            matrices = _parse(_loads(raw, path))
        return MappingProxyType(matrices)
    finally:
        if paused:
            gc.enable()


def _members(raw):
    """``(skeleton, spans)`` of JSON text ``raw``, found by ``bytes.find``.

    ``spans`` holds the ``(start, end)`` byte offsets of each array
    outside strings: from the first ``[`` between two strings to the last
    ``]`` before the next one.  ``skeleton`` is ``raw`` with span i
    replaced by `` -1-i `` (spaced, so that it stays one token).  The
    offsets are right only if no string opens inside an array and none
    holds an escaped quote, as in every valid RMP file.  A span lies
    between two quotes, so it never holds a string; one that is not a
    top-level array fails its own decode, or its placeholder is not
    found in the skeleton's object (see :func:`_read_by_member`).
    """
    pieces, spans = [], []
    start = lo = 0  # start of the next skeleton piece; of the text outside strings
    while lo >= 0:
        quote = raw.find(b'"', lo)
        hi = len(raw) if quote < 0 else quote
        first = raw.find(b"[", lo, hi)
        last = raw.rfind(b"]", first, hi) + 1 if first >= 0 else 0
        if last:
            pieces += (raw[start:first], b" %d " % (-1 - len(spans)))
            spans.append((first, last))
            start = last
        lo = raw.find(b'"', quote + 1) if quote >= 0 else -1
        if lo >= 0:
            lo += 1
    pieces.append(raw[start:])
    return b"".join(pieces), spans


def _read_by_member(raw):
    """The matrices of plain JSON text ``raw`` (see :func:`_scan`), by name,
    decoded one matrix at a time (step 2 in the module docstring); None
    where the read must decode ``raw`` whole.

    A JSON value decodes alike alone and inside a document, and an array
    and a number stand in the same places of a JSON text; so when every
    decode succeeds and every placeholder is found, ``raw`` decodes to the
    skeleton's object with each placeholder replaced by its span's value.
    Then every span lies outside strings, where the verdict rules out
    true, false and null, and holds no quote, so no string: each matrix
    is converted before it is checked.  Any other outcome returns None: a
    minus sign outside the arrays (no valid RMP file has one), a decode
    error, a placeholder lost to a repeated key or to a string (a span
    found inside one, when a string holds an escaped quote), or a schema
    error.
    """
    skeleton, spans = _members(raw)
    # With no other minus sign, only the placeholders are negative numbers.
    if skeleton.count(b"-") != len(spans):
        return None
    view = memoryview(raw)
    values = {}
    try:
        doc = orjson.loads(skeleton)
        field, n, k = _header(doc)
        for name, shape in _shapes(n, k).items():
            if name in doc:
                value = doc[name]
                if type(value) is not int or not -len(spans) <= value < 0:
                    return None
                start, end = spans[-1 - value]
                values[name] = _decode_matrix(
                    orjson.loads(view[start:end]), *shape, field, name, True)
    except (orjson.JSONDecodeError, ParseError):
        return None
    # Every key is checked and a placeholder lies only under a matrix's
    # key, so a span left undecoded lost its placeholder to a repeated key
    # or to a string.
    if len(values) != len(spans):
        return None
    return values


def _loads(raw, path):
    """orjson's decoding of the bytes ``raw`` read from ``path``; its
    rejection becomes a ParseError."""
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError as exc:
        reason = exc
        try:
            # orjson 3.8 words every byte that is not UTF-8 as a surrogate
            # error; the codec's message names the byte and its position.
            raw.decode("utf-8")
        except UnicodeDecodeError as codec_error:
            reason = codec_error
        raise ParseError(f"invalid JSON in {path}: {reason}") from None


def _scan(raw):
    """``(too_deep, plain)`` of JSON text ``raw``, from one pass over its
    brackets, quotes and literal letters.

    ``too_deep``: arrays and objects nest deeper than ``_MAX_DEPTH``,
    brackets inside strings not counted.  Up to its first error, this
    reads the text as a JSON parser does, and a parser stops there; so a
    file this passes is never parsed deeper than ``_MAX_DEPTH``.

    ``plain``: outside strings no ``t``, ``f`` or ``n`` appears, so the
    value a parser accepts from ``raw`` holds no true, false or null.

    Memory stays bounded by ``_SCAN_CHUNK``.
    """
    if b"\\" in raw:
        # Without escaped backslashes and escaped quotes, every quote
        # left starts or ends a string.
        raw = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    # Only brackets, quotes and literal letters are left to look at.
    text = np.frombuffer(raw.translate(None, _NOT_SCANNED), dtype=np.uint8)
    depth, in_string, plain = 0, False, True
    for start in range(0, text.size, _SCAN_CHUNK):
        chunk = text[start:start + _SCAN_CHUNK]
        steps = _DEPTH_STEP[chunk]
        quotes = chunk == 0x22
        inside = None
        if in_string or quotes.any():
            inside = np.logical_xor.accumulate(quotes) != in_string
            steps[inside] = 0
            in_string = bool(inside[-1])
        levels = depth + np.cumsum(steps)
        if levels.max() > _MAX_DEPTH:
            return True, False
        if plain:
            plain = not _IS_LETTER[chunk if inside is None else chunk[~inside]].any()
        depth = int(levels[-1])
    return False, plain


def _parse(doc):
    """The matrices of a decoded JSON value, by name, in the schema's order;
    ParseError if it breaks the schema.  Every matrix is checked before it
    is converted."""
    field, n, k = _header(doc)
    return {
        name: _decode_matrix(doc[name], *shape, field, name, False)
        for name, shape in _shapes(n, k).items() if name in doc
    }


def _header(doc):
    """``(field, n, k)`` of a decoded JSON value; ParseError if it is not
    an object, or its keys, version, field, n or k break the schema."""
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    unknown = set(doc) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    missing = [key for key in _REQUIRED_KEYS if key not in doc]
    if missing:
        raise ParseError(f"missing keys: {missing}")
    if len({"G", "x", "y"} & set(doc)) in (1, 2):
        raise ParseError("G, x and y must be stored together")
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
    return field, n, k


def write_problem_file(path, problem, inverse=None, dense_inverse=None):
    """Write a problem (optionally with its structured/dense inverse).

    The document has one matrix row per line, each row printed by
    ``orjson.dumps``; each matrix goes to the file in one write.  What the
    reader would reject is refused before the file is opened: a matrix of
    another shape than the schema's, or complex in a real document (its
    imaginary part would be dropped), raises DimensionMismatch, and a
    non-finite entry (which orjson would print as ``null``) raises
    NonFiniteInput.  A file that cannot be opened or written raises
    WriteError.
    """
    field = problem.field
    matrices = {"A": problem.A, "e": problem.e, "D": problem.D, "f": problem.f}
    if inverse is not None:
        matrices.update(G=inverse.G, x=inverse.x, y=inverse.y)
    if dense_inverse is not None:
        matrices["inverse"] = dense_inverse
    shapes = _shapes(problem.n, problem.k)
    check_shapes(matrices, {name: shapes[name] for name in matrices})
    for name, matrix in matrices.items():
        if field == "real" and np.iscomplexobj(matrix):
            raise DimensionMismatch(f"{name}: complex in a real document; not written")
        if not np.isfinite(matrix).all():
            raise NonFiniteInput(f"{name} contains non-finite entries; not written")
    try:
        with open(path, "wb") as fh:
            fh.write(b'{\n  "version": %d,\n  "field": %s,\n  "n": %d,\n  "k": %d'
                     % (RMP_VERSION, orjson.dumps(field), problem.n, problem.k))
            for name, matrix in matrices.items():
                rows = b",\n    ".join(
                    orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)
                    for row in _rows(matrix, field)
                )
                fh.write(b',\n  "%s": [\n    %s\n  ]' % (name.encode(), rows))
            fh.write(b"\n}\n")
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc}") from None

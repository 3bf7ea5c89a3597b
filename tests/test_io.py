import dataclasses
import gc
import json
import re
import subprocess
import sys
import types

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rankfill as rf


def write_and_read(tmp_path, problem, **kwargs):
    path = tmp_path / "problem.json"
    rf.write_problem_file(path, problem, **kwargs)
    return rf.read_problem_file(path)


class TestRoundTrip:
    def test_real_problem_bit_identical(self, tmp_path):
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=42))
        doc = write_and_read(tmp_path, p)
        assert doc.field == "real"
        assert (doc.n, doc.k) == (6, 2)
        for name in "AeDf":
            assert np.array_equal(getattr(doc, name), getattr(p, name))
        assert not doc.has_inverse_factors

    def test_complex_problem_bit_identical(self, tmp_path):
        p = rf.generate(rf.GeneratorSpec(n=5, k=2, seed=9, field="complex"))
        doc = write_and_read(tmp_path, p)
        assert doc.field == "complex"
        assert doc.A.dtype == np.complex128
        for name in "AeDf":
            assert np.array_equal(getattr(doc, name), getattr(p, name))

    def test_inverse_blocks_round_trip(self, tmp_path):
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=42))
        inv = rf.structured_inverse_svd(p)
        dense = rf.reassemble_inverse(inv, p.D)
        doc = write_and_read(tmp_path, p, inverse=inv, dense_inverse=dense)
        assert doc.has_inverse_factors
        assert np.array_equal(doc.G, inv.G)
        assert np.array_equal(doc.x, inv.x)
        assert np.array_equal(doc.y, inv.y)
        assert np.array_equal(doc.inverse, dense)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_document_is_immutable(self, tmp_path, field):
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=42, field=field))
        doc = write_and_read(tmp_path, p, inverse=rf.structured_inverse_svd(p))
        with pytest.raises(dataclasses.FrozenInstanceError):
            doc.A = np.zeros_like(doc.A)
        for name in ("A", "e", "D", "f", "G", "x", "y"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(doc, name)[0, 0] = 1.0

    def test_write_is_deterministic(self, tmp_path):
        p = rf.generate(rf.GeneratorSpec(n=4, k=1, seed=0))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        rf.write_problem_file(a, p)
        rf.write_problem_file(b, p)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "where", ["A", "G", "inverse-rows", "x-columns", "y-vector", "G-complex"]
    )
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, where):
        # The reader rejects Infinity/NaN tokens and matrices of another
        # shape than the schema's, and a real document has no room for an
        # imaginary part, so the writer must not emit any of them, and must
        # leave no partial file behind.
        p = rf.generate(rf.GeneratorSpec(n=4, k=1, seed=0))
        inv = rf.structured_inverse_svd(p)
        dense = None
        error, match = rf.DimensionMismatch, f"^{where.split('-')[0]} must be "
        if where == "A":
            A = np.array(p.A)
            A[0, 0] = np.inf
            p = dataclasses.replace(p, A=A)
            error, match = rf.NonFiniteInput, where
        elif where == "G":
            G = np.array(inv.G)
            G[1, 2] = np.nan
            inv = dataclasses.replace(inv, G=G)
            error, match = rf.NonFiniteInput, where
        elif where == "inverse-rows":
            dense = np.eye(3)
        elif where == "x-columns":
            # A consistent k=2 triple, written with the k=1 problem.
            inv = rf.StructuredInverse(G=inv.G, x=np.ones((4, 2)), y=np.ones((4, 2)))
        elif where == "y-vector":
            # No StructuredInverse holds a 1-d y; the writer checks anyway.
            inv = types.SimpleNamespace(G=inv.G, x=inv.x, y=np.ones(4))
        else:
            inv = dataclasses.replace(inv, G=inv.G + 1j * inv.G)
            match = "^G: "
        path = tmp_path / "p.json"
        with pytest.raises(error, match=match):
            rf.write_problem_file(path, p, inverse=inv, dense_inverse=dense)
        assert not path.exists()


def assert_bits_equal(got, want):
    """Equal dtype, shape and bytes: tells -0.0 from 0.0, unlike array_equal."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# Edge values of the double format: signed zero, the smallest subnormal,
# the subnormal/normal boundary, the largest finite values, and
# integer-valued floats on both sides of 2**53.
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1.0, -7.0, 2.0**53, 2.0**53 + 2, 1e22,
)
entries = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def problem_and_inverse(draw, field):
    """Unvalidated (problem, structured inverse, dense inverse) with arbitrary entries."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    parts = 2 if field == "complex" else 1

    def matrix(rows, cols):
        m = draw(arrays(np.float64, (rows, cols, parts), elements=entries))
        return m.view(np.complex128)[..., 0] if field == "complex" else m[..., 0]

    problem = rf.RankModifiedProblem(
        A=matrix(n, n), e=matrix(n, k), D=matrix(k, k), f=matrix(n, k), tol_rank=0.0,
    )
    inverse = rf.StructuredInverse(G=matrix(n, n), x=matrix(n, k), y=matrix(n, k))
    return problem, inverse, matrix(n, n)


class TestCodecProperties:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_round_trip_is_bit_identical(self, field, tmp_path_factory):
        path = tmp_path_factory.mktemp("roundtrip") / "p.json"

        @settings(max_examples=150, deadline=None)
        @given(problem_and_inverse(field))
        def round_trip(drawn):
            problem, inverse, dense = drawn
            rf.write_problem_file(path, problem, inverse=inverse, dense_inverse=dense)
            doc = rf.read_problem_file(path)
            assert (doc.field, doc.n, doc.k) == (field, problem.n, problem.k)
            for name in "AeDf":
                assert_bits_equal(getattr(doc, name), getattr(problem, name))
            for name in "Gxy":
                assert_bits_equal(getattr(doc, name), getattr(inverse, name))
            assert_bits_equal(doc.inverse, dense)

        round_trip()

    @settings(deadline=None)
    @given(st.integers(-(2**1023), 2**1023) | st.sampled_from((2**53 + 1, -(2**63) - 1)))
    def test_integer_entries_read_as_floats(self, tmp_path_factory, value):
        doc = base_doc()
        doc["A"][1][1] = value
        doc["D"] = [[value]]
        path = tmp_path_factory.getbasetemp() / "int.json"
        path.write_text(json.dumps(doc))
        parsed = rf.read_problem_file(path)
        want = np.array([[float(value)]])
        assert_bits_equal(parsed.D, want)
        assert_bits_equal(parsed.A[1:, 1:], want)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_mixed_rows_read_as_nested_np_array_does(self, field, tmp_path_factory):
        # The reader converts a flat list; the bits must be those of the
        # nested lists converted as a whole, ints and floats mixed in a row.
        path = tmp_path_factory.mktemp("mixed") / "p.json"
        numbers = st.integers(-(2**64), 2**64) | st.sampled_from(
            (2**53 + 1, -(2**53) - 1, 2**63 - 1)) | entries
        entry = st.lists(numbers, min_size=2, max_size=2) if field == "complex" else numbers

        @settings(max_examples=150, deadline=None)
        @given(st.integers(1, 4).flatmap(
            lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
        def reads_as_nested(rows):
            n = len(rows)
            doc = {"version": 1, "field": field, "n": n, "k": 1, "A": rows}
            zero = [0, 0] if field == "complex" else 0
            doc.update(e=[[zero]] * n, D=[[zero]], f=[[zero]] * n)
            path.write_text(json.dumps(doc))
            want = np.array(rows, dtype=np.float64)
            if field == "complex":
                want = want.view(np.complex128)[..., 0]
            assert_bits_equal(rf.read_problem_file(path).A, want)

        reads_as_nested()

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_old_indented_layout_reads_bit_identically(self, field, tmp_path):
        # Files written before the row-per-line writer used json.dump(indent=2).
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=3, field=field))
        inv = rf.structured_inverse_svd(p)
        arrays_by_name = {"A": p.A, "e": p.e, "D": p.D, "f": p.f,
                          "G": inv.G, "x": inv.x, "y": inv.y}

        def old_encoding(m):
            if field == "complex":
                return [[[float(v.real), float(v.imag)] for v in row] for row in m]
            return [[float(v) for v in row] for row in m]

        doc = {"version": 1, "field": field, "n": p.n, "k": p.k}
        doc.update({name: old_encoding(m) for name, m in arrays_by_name.items()})
        path = tmp_path / "old.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        parsed = rf.read_problem_file(path)
        for name, m in arrays_by_name.items():
            assert_bits_equal(getattr(parsed, name), m)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_written_files_read_bit_identically_by_stdlib_json(self, field, tmp_path_factory):
        # The file is the audit format: any JSON reader must get the same bits.
        path = tmp_path_factory.mktemp("stdlib") / "p.json"

        def refuse(token):
            raise AssertionError(f"writer printed {token}")

        @settings(max_examples=100, deadline=None)
        @given(problem_and_inverse(field))
        def stdlib_reads_the_same(drawn):
            problem, inverse, dense = drawn
            rf.write_problem_file(path, problem, inverse=inverse, dense_inverse=dense)
            doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
            want = {"A": problem.A, "e": problem.e, "D": problem.D, "f": problem.f,
                    "G": inverse.G, "x": inverse.x, "y": inverse.y, "inverse": dense}
            for name, m in want.items():
                got = np.array(doc[name], dtype=np.float64)
                if field == "complex":
                    got = got.view(np.complex128)[..., 0]
                assert_bits_equal(got, m)

        stdlib_reads_the_same()

    def test_writer_puts_one_matrix_row_per_line(self, tmp_path):
        p = rf.generate(rf.GeneratorSpec(n=5, k=2, seed=1, field="complex"))
        path = tmp_path / "p.json"
        rf.write_problem_file(path, p)
        lines = path.read_text().splitlines()
        start = lines.index('  "A": [')
        rows = [json.loads(line.strip().rstrip(",")) for line in lines[start + 1:start + 6]]
        assert lines[start + 6] == "  ],"
        assert_bits_equal(np.array(rows).view(np.complex128)[..., 0], p.A)


def base_doc():
    return {
        "version": 1,
        "field": "real",
        "n": 2,
        "k": 1,
        "A": [[1.0, 0.0], [0.0, 0.0]],
        "e": [[0.0], [1.0]],
        "D": [[2.0]],
        "f": [[0.0], [1.0]],
    }


def doc_with_d_text(text):
    """base_doc as JSON text, with ``text`` verbatim as the entry of D."""
    return json.dumps(base_doc()).replace('"D": [[2.0]]', f'"D": [[{text}]]')


class TestNumberText:
    """Number tokens read as the double Python's float() gives for them."""

    @pytest.mark.parametrize("text", [
        "9007199254740993",  # 2**53 + 1: rounds to even
        "2.2250738585072011e-308",  # just below the smallest normal
        "2.4703282292062328e-324",  # just above half the smallest subnormal
        "1.234567890123456789012345678901234567890e10",  # 40-digit mantissa
        "-1e-400",  # underflows to -0.0
        "123456789012345678901234567890",  # above 2**64
        "-123456789012345678901234567890",  # below -2**63
    ])
    def test_exact_values(self, tmp_path, text):
        path = tmp_path / "p.json"
        path.write_text(doc_with_d_text(text))
        assert_bits_equal(rf.read_problem_file(path).D, np.array([[float(text)]]))

    def test_just_beyond_max_double_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(doc_with_d_text("1.7976931348623159e308"))
        with pytest.raises(rf.ParseError):
            rf.read_problem_file(path)

    @settings(max_examples=300, deadline=None)
    @given(st.booleans(), st.integers(1, 10**40 - 1), st.integers(-400, 400))
    def test_decimal_text_reads_as_float_does(self, tmp_path_factory, negative, digits, exponent):
        text = f"{'-' if negative else ''}{digits}e{exponent}"
        path = tmp_path_factory.getbasetemp() / "decimal.json"
        path.write_text(doc_with_d_text(text))
        want = float(text)
        if np.isinf(want):
            with pytest.raises(rf.ParseError):
                rf.read_problem_file(path)
        else:
            assert_bits_equal(rf.read_problem_file(path).D, np.array([[want]]))


class TestStrictParsing:
    def write(self, tmp_path, doc, raw=None):
        path = tmp_path / "bad.json"
        path.write_text(raw if raw is not None else json.dumps(doc))
        return path

    def test_wrong_version(self, tmp_path):
        doc = base_doc()
        doc["version"] = 2
        with pytest.raises(rf.ParseError, match="version"):
            rf.read_problem_file(self.write(tmp_path, doc))

    def test_unknown_key(self, tmp_path):
        doc = base_doc()
        doc["extra"] = 1
        with pytest.raises(rf.ParseError, match="unknown"):
            rf.read_problem_file(self.write(tmp_path, doc))

    def test_missing_key(self, tmp_path):
        doc = base_doc()
        del doc["D"]
        with pytest.raises(rf.ParseError, match="missing"):
            rf.read_problem_file(self.write(tmp_path, doc))

    def test_row_length_mismatch(self, tmp_path):
        doc = base_doc()
        doc["A"] = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(rf.ParseError, match="row"):
            rf.read_problem_file(self.write(tmp_path, doc))

    def test_row_count_mismatch(self, tmp_path):
        doc = base_doc()
        doc["e"] = [[0.0]]
        with pytest.raises(rf.ParseError, match="rows"):
            rf.read_problem_file(self.write(tmp_path, doc))

    def test_nan_token_rejected(self, tmp_path):
        raw = json.dumps(base_doc()).replace("2.0", "NaN")
        with pytest.raises(rf.ParseError, match=r"invalid JSON in .*: line \d+ column \d+"):
            rf.read_problem_file(self.write(tmp_path, {}, raw=raw))

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_the_integer_1(self, tmp_path, version):
        doc = base_doc()
        doc["version"] = version
        with pytest.raises(rf.ParseError, match="version"):
            rf.read_problem_file(self.write(tmp_path, doc))

    def test_integer_beyond_double_range_rejected(self, tmp_path):
        doc = base_doc()
        doc["A"][0][0] = 10**400
        with pytest.raises(rf.ParseError, match=r"invalid JSON in .*: line \d+ column \d+"):
            rf.read_problem_file(self.write(tmp_path, doc))

    @pytest.mark.parametrize("raw", [
        b'{"version": 1, "field": "r\xe9al"}',  # not UTF-8
        b'{"version": 1' + b"1" * 5000 + b"}",  # over Python's int-string limit
        b'{"A": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # beyond the recursion limit
        # Well-formed keys, so the schema checks reach the nested entry.
        json.dumps(base_doc()).replace("2.0", "[" * 100_000 + "]" * 100_000).encode(),
        json.dumps(base_doc()).encode("utf-16"),  # with a byte order mark
        json.dumps(base_doc()).encode("utf-8-sig"),
    ], ids=["not-utf8", "long-integer", "deep-nesting", "deep-entry", "utf16-bom", "utf8-bom"])
    def test_undecodable_input_rejected(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(rf.ParseError, match="invalid JSON"):
            rf.read_problem_file(path)

    @pytest.mark.parametrize("raw, match", [
        (b'{"version": 1, "field": "r\xe9al"}',  # Latin-1
         "'utf-8' codec can't decode byte 0xe9 in position 26: invalid continuation byte"),
        (json.dumps(base_doc()).encode("utf-16"),
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        # Valid UTF-8 keeps orjson's own message.
        (json.dumps(base_doc()).encode("utf-8-sig"), "byte order mark"),
        (b'{"version": 1, "field": "\\ud800"}', "surrogate"),
    ], ids=["latin1", "utf16-bom", "utf8-bom", "lone-surrogate-escape"])
    def test_undecodable_input_message(self, tmp_path, raw, match):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(rf.ParseError, match=f"^invalid JSON in {re.escape(str(path))}: ") as exc:
            rf.read_problem_file(path)
        assert match in str(exc.value)
        if b"\xe9" in raw or b"\xff" in raw:
            assert "surrogates" not in str(exc.value)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_rejection_walks_only_the_bad_row(self, tmp_path, monkeypatch, field):
        # A bad first entry in the last row: the bad row is found at C
        # speed, so only its entries are walked to name it.
        n = 40
        p = rf.generate(rf.GeneratorSpec(n=n, k=2, seed=1, field=field))
        path = tmp_path / "p.json"
        rf.write_problem_file(path, p, dense_inverse=np.eye(n))
        doc = json.loads(path.read_text())
        doc["inverse"][-1][0] = "1.0" if field == "real" else ["1.0", 0.0]
        path.write_text(json.dumps(doc))
        calls = []
        check_entry = rf.io._check_entry
        monkeypatch.setattr(rf.io, "_check_entry",
                            lambda *args: calls.append(args) or check_entry(*args))
        kind = "a real number" if field == "real" else r"an \[re, im\] pair"
        with pytest.raises(rf.ParseError, match=rf"inverse\[{n - 1}\]\[0\]: expected {kind}"):
            rf.read_problem_file(path)
        assert 1 <= len(calls) <= n

    def test_brackets_inside_strings_are_not_nesting(self, tmp_path):
        doc = base_doc()
        doc['"[[[[[[[[\\'] = 1  # printed with an escaped quote and backslash
        with pytest.raises(rf.ParseError, match="unknown keys"):
            rf.read_problem_file(self.write(tmp_path, doc))

    def test_nesting_deeper_than_a_document_rejected(self, tmp_path):
        # A later duplicate key would replace the deep value, but no file
        # nested deeper than an RMP document is ever parsed.
        raw = '{"A": [[[[[1.0]]]]], ' + json.dumps(base_doc())[1:]
        with pytest.raises(rf.ParseError, match="nested more than 4 levels deep"):
            rf.read_problem_file(self.write(tmp_path, {}, raw=raw))

    @pytest.mark.parametrize("raw", [
        b'{"A": ' + b"[" * 10**7 + b"]" * 10**7 + b"}",
        # Every four levels hide four closing brackets inside a string.
        b'[[[["]]]]",' * 10**6 + b"1" + b"]]]]" * 10**6,
        b'[[[["\\"]]]]",' * 10**6 + b"1" + b"]]]]" * 10**6,  # after an escaped quote
    ], ids=["deep", "hidden-in-strings", "hidden-after-escape"])
    def test_nesting_deep_enough_to_overflow_a_native_stack_exits_2(self, tmp_path, raw):
        # In a child process: a stack overflow would kill the interpreter.
        path = tmp_path / "deep.json"
        path.write_bytes(raw)
        proc = subprocess.run(
            [sys.executable, "-m", "rankfill.cli", "det", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "invalid JSON" in proc.stderr

    @pytest.mark.parametrize("name, value, match", [
        ("D", [["2.0"]], r"D\[0\]\[0\]: expected a real number"),
        ("A", [[1.0, [0.0]], [0.0, 0.0]], r"A\[0\]\[1\]: expected a real number"),
    ])
    def test_non_number_real_entry_rejected(self, tmp_path, name, value, match):
        doc = base_doc()
        doc[name] = value
        with pytest.raises(rf.ParseError, match=match):
            rf.read_problem_file(self.write(tmp_path, doc))

    @pytest.mark.parametrize("entry", [[1.0, True], [1.0], [1.0, 0.0, 0.0], 1.0])
    def test_malformed_complex_pair_rejected(self, tmp_path, entry):
        doc = base_doc()
        doc["field"] = "complex"
        for name in "AeDf":
            doc[name] = [[[v, 0.0] for v in row] for row in doc[name]]
        doc["D"] = [[entry]]
        with pytest.raises(rf.ParseError, match=r"D\[0\]\[0\]: expected an \[re, im\] pair"):
            rf.read_problem_file(self.write(tmp_path, doc))

    def test_bool_entry_rejected(self, tmp_path):
        doc = base_doc()
        doc["D"] = [[True]]
        with pytest.raises(rf.ParseError, match="real number"):
            rf.read_problem_file(self.write(tmp_path, doc))

    def test_complex_field_requires_pairs(self, tmp_path):
        doc = base_doc()
        doc["field"] = "complex"
        with pytest.raises(rf.ParseError, match="pair"):
            rf.read_problem_file(self.write(tmp_path, doc))

    def test_bad_dimensions(self, tmp_path):
        doc = base_doc()
        doc["n"] = 0
        with pytest.raises(rf.ParseError, match="positive integers"):
            rf.read_problem_file(self.write(tmp_path, doc))

    @pytest.mark.parametrize("present", ["G", "x", "y", "Gx", "Gy", "xy"])
    def test_partial_stored_inverse_rejected(self, tmp_path, present):
        doc = base_doc()
        shapes = {"G": (2, 2), "x": (2, 1), "y": (2, 1)}
        for name in present:
            doc[name] = np.zeros(shapes[name]).tolist()
        with pytest.raises(rf.ParseError, match="G, x and y must be stored together"):
            rf.read_problem_file(self.write(tmp_path, doc))

    @pytest.mark.parametrize("orjson_result, match", [
        (orjson.JSONDecodeError("orjson refuses", "", 0), "invalid JSON in .*orjson refuses"),
        ({}, "missing keys"),
    ], ids=["decode-error", "schema-error"])
    def test_rejection_is_never_overturned(self, tmp_path, monkeypatch, orjson_result, match):
        # The file is valid, yet a rejection by orjson (faked here) or by the
        # schema checks is final: nothing reads the file again to overturn it.
        path = self.write(tmp_path, base_doc())
        rf.read_problem_file(path)

        def fake_loads(raw):
            if isinstance(orjson_result, Exception):
                raise orjson_result
            return orjson_result

        monkeypatch.setattr(orjson, "loads", fake_loads)
        with pytest.raises(rf.ParseError, match=match):
            rf.read_problem_file(path)

    @pytest.mark.parametrize("raw", [
        json.dumps(base_doc()).replace("2.0", "NaN"),
        json.dumps(base_doc()).replace("2.0", '"1.0"'),
        '{"A": [[[[[1.0]]]]], ' + json.dumps(base_doc())[1:],
    ], ids=["nan-token", "string-entry", "nested-5-deep"])
    def test_rejection_needs_no_second_decoder(self, tmp_path, monkeypatch, raw):
        def no_stdlib_decoder(*args, **kwargs):
            raise AssertionError("json.loads called")

        monkeypatch.setattr(json, "loads", no_stdlib_decoder)
        with pytest.raises(rf.ParseError):
            rf.read_problem_file(self.write(tmp_path, {}, raw=raw))

    def test_invalid_json(self, tmp_path):
        with pytest.raises(rf.ParseError, match="invalid JSON"):
            rf.read_problem_file(self.write(tmp_path, {}, raw="{nope"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(rf.ParseError, match="cannot read"):
            rf.read_problem_file(tmp_path / "absent.json")

    def test_non_object_top_level(self, tmp_path):
        with pytest.raises(rf.ParseError, match="object"):
            rf.read_problem_file(self.write(tmp_path, {}, raw="[1, 2]"))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("name", ["A", "D"])
    def test_decoded_non_finite_entry_rejected(self, name, value):
        # orjson never yields one, so the guard is driven with a document
        # as a decoder that did would hand it on.
        doc = base_doc()
        doc[name][0][0] = value
        with pytest.raises(rf.ParseError, match=rf"^{name}: non-finite entries$"):
            rf.io._parse(doc)


# Entries that break a matrix of each field, the depth limit aside: a
# complex entry has no room for a nested list, so a list of another
# length than a pair stands in for one.
BAD_ENTRIES = {
    "real": [True, None, "1.0", {}, [1.0], [1.0, 0.0]],
    "complex": [True, None, "1.0", {}, [1.0], [1.0, 0.0, 0.0], 1.0,
                [True, 0.0], [0.0, None], ["1.0", 0.0]],
}


class TestPlainDecoding:
    """A file whose arrays hold only numbers and arrays is converted
    without per-entry type checks; any other file gets the full checks,
    and a bad entry is named as they name it."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_writer_output_needs_no_type_pass(self, tmp_path, monkeypatch, field):
        p = rf.generate(rf.GeneratorSpec(n=12, k=2, seed=4, field=field))
        inv = rf.structured_inverse_svd(p)
        dense = rf.reassemble_inverse(inv, p.D)
        path = tmp_path / "p.json"
        rf.write_problem_file(path, p, inverse=inv, dense_inverse=dense)

        def no_type_pass(*args):
            raise AssertionError("per-entry type pass")

        monkeypatch.setattr(rf.io, "_check_matrix", no_type_pass)
        monkeypatch.setattr(rf.io, "_numeric_row", no_type_pass)
        monkeypatch.setattr(rf.io, "_check_entry", no_type_pass)
        doc = rf.read_problem_file(path)
        for name in "AeDf":
            assert_bits_equal(getattr(doc, name), getattr(p, name))
        for name in "Gxy":
            assert_bits_equal(getattr(doc, name), np.asarray(getattr(inv, name)))
        assert_bits_equal(doc.inverse, dense)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_valid_document_without_the_verdict_reads_as_its_plain_twin(self, tmp_path, field):
        # orjson keeps the last value of a repeated key, so a leading
        # "version": true costs the verdict and nothing else: every matrix
        # is checked, then converted as the plain twin's is.
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=5, field=field))
        inv = rf.structured_inverse_svd(p)
        twin = tmp_path / "twin.json"
        rf.write_problem_file(twin, p, inverse=inv, dense_inverse=rf.reassemble_inverse(inv, p.D))
        raw = twin.read_bytes()
        assert raw.startswith(b'{\n  "version": 1,') and rf.io._scan(raw) == (False, True)
        repeated = b'{\n  "version": true,' + raw[1:]
        assert rf.io._scan(repeated) == (False, False)
        path = tmp_path / "repeated.json"
        path.write_bytes(repeated)
        got, want = rf.read_problem_file(path), rf.read_problem_file(twin)
        assert (got.field, got.n, got.k) == (want.field, want.n, want.k)
        for name in ("A", "e", "D", "f", "G", "x", "y", "inverse"):
            assert_bits_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("chunk", [None, 1, 2, 5])
    def test_keys_with_literal_letters_keep_the_verdict(self, monkeypatch, chunk):
        # "field", "inverse" and "n" spell f and n inside strings only.
        if chunk is not None:
            monkeypatch.setattr(rf.io, "_SCAN_CHUNK", chunk)
        doc = base_doc()
        doc["inverse"] = [[1.0, -0.0], [0.0, 0.5]]
        assert rf.io._scan(json.dumps(doc).encode()) == (False, True)

    @pytest.mark.parametrize("chunk", [None, 1, 2, 5])
    @pytest.mark.parametrize("text", ["true", '"2.0"', "{}"],
                             ids=["bare-true", "string-in-matrix", "second-object"])
    def test_what_sends_a_read_to_the_full_checks(self, monkeypatch, chunk, text):
        if chunk is not None:
            monkeypatch.setattr(rf.io, "_SCAN_CHUNK", chunk)
        assert rf.io._scan(doc_with_d_text(text).encode()) == (False, False)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_one_bad_entry_is_worded_as_the_full_checks_word_it(self, field, tmp_path_factory):
        p = rf.generate(rf.GeneratorSpec(n=5, k=2, seed=7, field=field))
        inv = rf.structured_inverse_svd(p)
        path = tmp_path_factory.mktemp("bad-entry") / "p.json"
        rf.write_problem_file(path, p, inverse=inv, dense_inverse=rf.reassemble_inverse(inv, p.D))
        written = path.read_bytes()
        shapes = rf.io._shapes(p.n, p.k)

        @settings(max_examples=100, deadline=None)
        @given(st.sampled_from(sorted(shapes)).flatmap(lambda name: st.tuples(
            st.just(name), st.integers(0, shapes[name][0] - 1),
            st.integers(0, shapes[name][1] - 1), st.sampled_from(BAD_ENTRIES[field]))))
        def worded_alike(drawn):
            name, i, j, bad = drawn
            doc = orjson.loads(written)
            doc[name][i][j] = bad
            raw = orjson.dumps(doc)
            path.write_bytes(raw)
            with pytest.raises(rf.ParseError) as want:
                rf.io._parse(orjson.loads(raw))
            with pytest.raises(rf.ParseError) as got:
                rf.read_problem_file(path)
            assert str(got.value) == str(want.value)

        worded_alike()


class TestCollectorPause:
    """The cyclic collector is off while orjson decodes, and comes back
    as the caller had it, however the read ends."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def write(self, tmp_path, raw):
        path = tmp_path / "p.json"
        path.write_text(raw)
        return path

    @pytest.mark.parametrize("raw, error", [
        (json.dumps(base_doc()), None),
        ("{nope", "invalid JSON"),
        (json.dumps({**base_doc(), "version": 2}), "unsupported version"),
    ], ids=["good", "orjson-error", "schema-error"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_state_is_restored(self, tmp_path, raw, error, enabled):
        path = self.write(tmp_path, raw)
        if enabled:
            gc.enable()
        else:
            gc.disable()
        if error is None:
            rf.read_problem_file(path)
        else:
            with pytest.raises(rf.ParseError, match=error):
                rf.read_problem_file(path)
        assert gc.isenabled() is enabled

    def test_off_while_orjson_decodes(self, tmp_path, monkeypatch):
        seen = []
        loads = orjson.loads
        monkeypatch.setattr(rf.io.orjson, "loads",
                            lambda raw: seen.append(gc.isenabled()) or loads(raw))
        gc.enable()
        rf.read_problem_file(self.write(tmp_path, json.dumps(base_doc())))
        assert seen and not any(seen)
        assert gc.isenabled()


def whole_document(path):
    """What the reader gives when it decodes ``path`` whole: the oracle of
    the member-wise read.  A ParseError is returned as its message."""
    raw = path.read_bytes()
    try:
        return rf.io._parse(rf.io._loads(raw, path), rf.io._scan(raw)[1])
    except rf.ParseError as exc:
        return str(exc)


def read_or_message(path):
    try:
        return rf.read_problem_file(path)
    except rf.ParseError as exc:
        return str(exc)


def json_rows(m):
    """Matrix ``m`` as nested lists, complex entries as [re, im] pairs."""
    return (m.view(np.float64).reshape(m.shape + (2,)) if np.iscomplexobj(m) else m).tolist()


def escaped(key):
    """``key`` as a JSON string with every character escaped as \\uXXXX."""
    return '"' + "".join(f"\\u{ord(c):04x}" for c in key) + '"'


# Edits that the member-wise read must word, or read, as the whole
# document does: a repeated key (before or after the first, with a
# matrix, a negative number that a placeholder could be mistaken for, or
# a string), a value moved under another key, keys and strings holding
# brackets and quotes, and a version given as a string.
EDITS = st.sampled_from([
    "repeat", "replace", "unknown-bracket-key", "field-with-brackets", "version-string",
    "key-with-quote", "negative-n",
])


@st.composite
def rmp_texts(draw, field):
    """(JSON text of an RMP document in a drawn layout, with some edits;
    whether a syntax error was put inside a matrix)."""
    problem, inverse, dense = draw(problem_and_inverse(field))
    pairs = [("version", 1), ("field", field), ("n", problem.n), ("k", problem.k)]
    matrices = {"A": problem.A, "e": problem.e, "D": problem.D, "f": problem.f}
    if draw(st.booleans()):
        matrices.update(G=inverse.G, x=inverse.x, y=inverse.y, inverse=dense)
    pairs += [(name, json_rows(m)) for name, m in matrices.items()]
    pairs = draw(st.permutations(pairs))
    keys = [key for key, _ in pairs]
    values = [value for _, value in pairs] + [-1, -2, 0, 99, "x", [[1.0]]]
    for edit in draw(st.lists(EDITS, max_size=3)):
        at = draw(st.integers(0, len(pairs)))
        if edit == "repeat":
            pairs.insert(at, (draw(st.sampled_from(keys)), draw(st.sampled_from(values))))
        elif edit == "replace" and at < len(pairs):
            pairs[at] = (pairs[at][0], draw(st.sampled_from(values)))
        elif edit == "unknown-bracket-key":
            pairs.insert(at, (draw(st.sampled_from(["a[b]", "]", "[[", "A]"])),
                              draw(st.sampled_from(values))))
        elif edit == "field-with-brackets":
            pairs.insert(at, ("field", draw(st.sampled_from(["re[al]", "[", "]]"]))))
        elif edit == "version-string":
            pairs.insert(at, ("version", "1"))
        elif edit == "key-with-quote":
            pairs.insert(at, ('q"[', 1))
        elif edit == "negative-n":
            pairs.insert(at, ("n", -1))
    indent = draw(st.sampled_from([None, 0, 2, "\t"]))
    colon = draw(st.sampled_from([":", ": ", " :\n "]))
    comma = draw(st.sampled_from([",", ", ", "\n ,\r\n\t"]))
    texts = [json.dumps(value, indent=indent) for _, value in pairs]
    matrices = [i for i, (_, value) in enumerate(pairs) if isinstance(value, list)]
    if draw(st.booleans()):
        # A number glued to a matrix, which only a space keeps apart.
        texts[draw(st.sampled_from(matrices))] += draw(st.sampled_from(["5", "0", ".5"]))
    broken = draw(st.booleans())
    if broken:
        # A syntax error inside a matrix (a repeated key may hide it from
        # the schema, not from the decoder), perhaps with an unknown key.
        at = draw(st.sampled_from(matrices))
        texts[at] = texts[at].replace("[", "[+", 1)
        if draw(st.booleans()):
            pairs.append(("extra", 1))
            texts.append("1")
    spellings = draw(st.lists(st.sampled_from([json.dumps, escaped]),
                              min_size=len(pairs), max_size=len(pairs)))
    members = [f"{spell(key)}{colon}{text}"
               for spell, (key, _), text in zip(spellings, pairs, texts)]
    ends = draw(st.sampled_from([("{", "}"), (" \n{\n", "\n}\n"), ("{", "  }  ")]))
    return ends[0] + comma.join(members) + ends[1], broken


class TestMemberwiseRead:
    """A plain file is decoded one matrix at a time; the read accepts the
    same files, gives the same bits and words every rejection as decoding
    the whole document does."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_reads_as_the_whole_document(self, field, tmp_path_factory):
        path = tmp_path_factory.mktemp("memberwise") / "p.json"

        @settings(max_examples=300, deadline=None)
        @given(rmp_texts(field))
        def reads_alike(drawn):
            text, broken = drawn
            path.write_text(text)
            want, got = whole_document(path), read_or_message(path)
            if isinstance(want, str):
                assert got == want
                if broken:
                    assert want.startswith("invalid JSON in ")
                return
            assert isinstance(got, rf.RmpDocument)
            assert (got.field, got.n, got.k) == (want.field, want.n, want.k)
            for name in ("A", "e", "D", "f", "G", "x", "y", "inverse"):
                if getattr(want, name) is None:
                    assert getattr(got, name) is None
                else:
                    assert_bits_equal(getattr(got, name), getattr(want, name))

        reads_alike()

    @pytest.mark.parametrize("raw", [
        '{"A": [[+1.0, 0.0], [0.0, 0.0]], ' + json.dumps(base_doc())[1:],
        json.dumps(base_doc())[:-1] + ', "D": [[2.0]]0, "k": 1}',
        json.dumps(base_doc())[:-1] + ', "D": 99}',
        # -2 is the placeholder of e, which has f's shape.
        json.dumps(base_doc())[:-1] + ', "f": -2}',
    ], ids=["syntax-error-under-a-repeated-key", "number-after-a-matrix", "number-for-a-matrix",
            "placeholder-under-a-repeated-key"])
    def test_rejected_as_the_whole_document(self, tmp_path, raw):
        path = tmp_path / "p.json"
        path.write_text(raw)
        assert rf.io._scan(raw.encode()) == (False, True)
        want = whole_document(path)
        assert isinstance(want, str) and read_or_message(path) == want

    @pytest.mark.parametrize("layout", [
        "writer-real", "writer-complex", "compact", "indented-scalars-last", "escaped-keys",
        "repeated-field-with-escapes",
    ])
    def test_no_decode_sees_the_whole_document(self, tmp_path, monkeypatch, layout):
        field = "complex" if layout == "writer-complex" else "real"
        p = rf.generate(rf.GeneratorSpec(n=6, k=2, seed=3, field=field))
        inv = rf.structured_inverse_direct(p)
        path = tmp_path / "p.json"
        rf.write_problem_file(path, p, inverse=inv, dense_inverse=rf.reassemble_inverse(inv, p.D))
        doc = json.loads(path.read_text())
        if layout == "compact":
            path.write_text(json.dumps(doc, separators=(",", ":")))
        elif layout == "indented-scalars-last":
            path.write_text(json.dumps(dict(reversed(doc.items())), indent=2))
        elif layout == "escaped-keys":
            path.write_text("{" + ", ".join(f"{escaped(key)}: {json.dumps(value)}"
                                            for key, value in doc.items()) + "}")
        elif layout == "repeated-field-with-escapes":
            # orjson keeps the last "field"; the first holds an escaped quote.
            path.write_text('{"field": "]\\"[\\\\", ' + json.dumps(doc)[1:])
        sizes = []
        loads = orjson.loads
        monkeypatch.setattr(rf.io.orjson, "loads", lambda raw: sizes.append(len(raw)) or loads(raw))
        got = rf.read_problem_file(path)
        assert_bits_equal(got.inverse, rf.reassemble_inverse(inv, p.D))
        # The skeleton, then one decode per matrix, each well under the whole.
        assert len(sizes) == 9
        assert max(sizes) < path.stat().st_size / 2

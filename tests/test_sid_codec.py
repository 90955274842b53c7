"""Codec tests: packing exactness, exhaustive and property-based
roundtrips, SIDE recovery, hashing, and the SID file format."""

import os
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidekit import sid_codec as sc
from sidekit.quantizers import dpca_encode
from oracles import line_read_sid


class TestPack:
    def test_all_zero_digits(self):
        scheme = sc.SidScheme(base=3, ngram=2)
        assert sc.pack_all(scheme, [[-1, -1]]).tolist() == [[0]]

    def test_hand_cases(self):
        two = sc.SidScheme(base=3, ngram=2)
        assert sc.pack_all(two, [[1, 1]]).tolist() == [[24]]        # 3*2 + 9*2
        three = sc.SidScheme(base=3, ngram=3)
        # 3*1 + 9*2 + 27*0
        assert sc.pack_all(three, [[0, 1, -1]]).tolist() == [[21]]

    def test_every_sid_divisible_by_base(self):
        scheme = sc.SidScheme(base=3, ngram=3)
        rng = np.random.default_rng(0)
        digits = rng.integers(-1, 2, size=(100, 3))
        sids = sc.pack_all(scheme, digits)
        assert np.all(sids % 3 == 0)

    def test_digit_out_of_range(self):
        scheme = sc.SidScheme(base=3, ngram=2)
        with pytest.raises(sc.SidError, match="out of range"):
            sc.pack_all(scheme, [[2, 0]])

    def test_injective_small_scheme(self):
        scheme = sc.SidScheme(base=3, ngram=3)
        from itertools import product
        seen = set()
        for digits in product((-1, 0, 1), repeat=3):
            s = int(sc.pack_all(scheme, [digits])[0, 0])
            assert s not in seen
            seen.add(s)
        assert len(seen) == 27


class TestUnpack:
    def test_zero(self):
        scheme = sc.SidScheme(base=3, ngram=2)
        assert sc.unpack_all(scheme, [[0]]).tolist() == [[-1, -1]]

    def test_inverse_of_pack_example(self):
        scheme = sc.SidScheme(base=3, ngram=2)
        assert sc.unpack_all(scheme, [[24]]).tolist() == [[1, 1]]

    def test_exhaustive_ternary_trigram(self):
        scheme = sc.SidScheme(base=3, ngram=3)
        from itertools import product
        for digits in product((-1, 0, 1), repeat=3):
            s = sc.pack_all(scheme, [digits])
            assert sc.unpack_all(scheme, s).tolist() == [list(digits)]

    def test_above_maximum_rejected(self):
        scheme = sc.SidScheme(base=3, ngram=2)
        with pytest.raises(sc.SidError, match="maximum"):
            sc.unpack_all(scheme, [[scheme.max_sid + 3]])

    def test_non_multiple_rejected(self):
        scheme = sc.SidScheme(base=3, ngram=2)
        with pytest.raises(sc.SidError, match="divisible"):
            sc.unpack_all(scheme, [[7]])


@given(base=st.integers(min_value=2, max_value=64),
       ngram=st.integers(min_value=1, max_value=4),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_roundtrip_property(base, ngram, data):
    scheme = sc.SidScheme(base=base, ngram=ngram)
    digits = data.draw(st.lists(
        st.integers(min_value=scheme.digit_lo, max_value=scheme.digit_hi),
        min_size=ngram, max_size=ngram))
    sids = sc.pack_all(scheme, [digits])
    assert 0 <= int(sids[0, 0]) <= scheme.max_sid
    assert sc.unpack_all(scheme, sids).tolist() == [digits]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "one.sid")
        sc.write_sid_file(path, scheme, sids)
        read_scheme, sids = sc.read_sid_file(path)
    assert read_scheme == scheme
    assert sc.unpack_all(read_scheme, sids)[0].tolist() == digits


class TestWholeRecords:
    def test_matches_per_digit_formula(self):
        # gram g of a record is sum_k L^k * (offset + c_{g,k}), in Python ints
        scheme = sc.SidScheme(base=5, ngram=3, grams=3)
        rng = np.random.default_rng(4)
        digits = rng.integers(-2, 3, size=(40, 8))
        sids = sc.pack_all(scheme, digits)
        padded = np.pad(digits, ((0, 0), (0, 1)))
        for row, record in zip(padded.tolist(), sids):
            want = [sum(5 ** (k + 1) * (2 + row[g * 3 + k]) for k in range(3))
                    for g in range(3)]
            assert record.tolist() == want
        np.testing.assert_array_equal(sc.unpack_all(scheme, sids), padded)

    def test_zero_rows_of_the_widest_scheme(self, tmp_path):
        scheme = sc.SidScheme(base=3, ngram=1, grams=2**60 - 1)
        path = tmp_path / "wide.sid"
        path.write_text(scheme.header() + "\n")
        _, sids = sc.read_sid_file(path)
        assert sids.shape == sc.unpack_all(scheme, sids).shape == (0, 2**60 - 1)

    def test_zero_rows(self, tmp_path):
        scheme = sc.SidScheme(base=3, ngram=2, grams=2)
        sids = sc.pack_all(scheme, np.zeros((0, 3), dtype=np.int64))
        assert sids.shape == (0, 2) and sids.dtype == np.uint64
        assert sc.unpack_all(scheme, sids).shape == (0, 4)
        path = tmp_path / "empty.sid"
        sc.write_sid_file(path, scheme, sids)
        assert path.read_text() == scheme.header() + "\n"
        again, records = sc.read_sid_file(path)
        assert again == scheme and records.shape == (0, 2)

    def test_bad_value_in_a_later_gram(self):
        scheme = sc.SidScheme(base=3, ngram=2, grams=2)
        with pytest.raises(sc.SidError, match="out of range"):
            sc.pack_all(scheme, [[0, 0, 0, 2]])
        with pytest.raises(sc.SidError, match="maximum"):
            sc.unpack_all(scheme, [[0, scheme.max_sid + 3]])
        with pytest.raises(sc.SidError, match="divisible"):
            sc.unpack_all(scheme, [[0, 7]])


class TestScheme:
    def test_overflow_guard(self):
        with pytest.raises(sc.SidError, match="overflow"):
            sc.SidScheme(base=64, ngram=11)  # 64**12 > 2**64
        sc.SidScheme(base=64, ngram=9)       # 64**10 < 2**64
        with pytest.raises(sc.SidError, match="overflow"):
            sc.SidScheme(base=2, ngram=64)
        assert sc.SidScheme(base=2, ngram=63).max_sid == 2**64 - 2

    @pytest.mark.parametrize("make", [
        lambda: sc.SidScheme(3, 10**12),
        lambda: sc.SidScheme.from_header(
            "#SIDv1 base=3 ngram=99999999999999999999 grams=1")],
        ids=["constructor", "header"])
    def test_a_huge_ngram_is_refused_at_once(self, make):
        # 2**(n+1) overflows u64 from n = 64; L^(n+1) is never computed
        start = time.perf_counter()
        with pytest.raises(sc.SidError, match="overflows u64"):
            make()
        assert time.perf_counter() - start < 1.0

    def test_default_offset_centers(self):
        assert sc.SidScheme(base=3, ngram=1).offset == 1
        assert sc.SidScheme(base=64, ngram=1).offset == 31

    def test_for_digits_pads_last_gram(self):
        scheme = sc.SidScheme.for_digits(8, base=3, ngram=3)
        assert scheme.grams == 3
        digits = np.arange(8) % 3 - 1
        sids = sc.pack_all(scheme, digits[None, :])
        back = sc.unpack_all(scheme, sids)[0]
        assert back[:8].tolist() == digits.tolist()
        assert back[8] == 0  # centered-zero padding

    def test_header_roundtrip(self):
        scheme = sc.SidScheme(base=3, ngram=4, grams=5)
        again = sc.SidScheme.from_header(scheme.header())
        assert again == scheme


class TestSideEmbed:
    def test_single_gram_all_low(self):
        scheme = sc.SidScheme(base=3, ngram=3, grams=1)
        out = sc.side_embed(scheme, np.array([[0]], dtype=np.uint64))
        assert out.tolist() == [[-1.0, -1.0, -1.0]]

    def test_equals_unpacked_digits(self):
        scheme = sc.SidScheme(base=3, ngram=3, grams=2)
        rng = np.random.default_rng(1)
        digits = rng.integers(-1, 2, size=(20, 6))
        sids = sc.pack_all(scheme, digits)
        out = sc.side_embed(scheme, sids)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, digits.astype(np.float32))

    def test_pipeline_identity_with_dpca(self):
        # digits recovered from SIDs equal the digits the encoder produced
        comps = np.random.default_rng(5).normal(0.0, 0.5, size=(2, 4, 6))
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 12)).astype(np.float32)
        codes = dpca_encode(comps, np.zeros_like(comps), x)
        scheme = sc.SidScheme.for_digits(8, base=3, ngram=4)
        sids = sc.pack_all(scheme, codes)
        side = sc.side_embed(scheme, sids)
        np.testing.assert_array_equal(side[:, :8],
                                      codes.astype(np.float32))


class TestSidHash:
    def test_table_size_one(self):
        sids = np.array([[12345, 7]], dtype=np.uint64)
        assert sc.sid_hash(sids, 1).tolist() == [[0, 0]]

    def test_injective_when_table_covers(self):
        scheme = sc.SidScheme(base=3, ngram=3)
        from itertools import product
        sids = sc.pack_all(scheme, list(product((-1, 0, 1), repeat=3)))
        hashed = {int(h) for h in sc.sid_hash(sids, scheme.max_sid + 1)[:, 0]}
        assert len(hashed) == len(sids)

    def test_collision_prone_when_small(self):
        scheme = sc.SidScheme(base=3, ngram=3)
        from itertools import product
        sids = sc.pack_all(scheme, list(product((-1, 0, 1), repeat=3)))
        hashed = {int(h) for h in sc.sid_hash(sids, 5)[:, 0]}
        assert len(hashed) <= 5

    def test_sixty_four_level_trigram_cardinality(self):
        # 64-level digits in 3-grams: 64**3 = 262,144 distinct values
        scheme = sc.SidScheme(base=64, ngram=3)
        assert 64 ** 3 == 262_144
        # the scheme addresses them all without overflow
        top = sc.pack_all(scheme, [[scheme.digit_hi] * 3])
        assert top.tolist() == [[scheme.max_sid]]
        assert sc.unpack_all(scheme, top).shape == (1, 3)


NOT_CANONICAL = "SID header: expected '#SIDv1 base=L ngram=n grams=g', got "


class TestSidFile:
    def test_roundtrip(self, tmp_path):
        scheme = sc.SidScheme(base=3, ngram=3, grams=2)
        rng = np.random.default_rng(2)
        digits = rng.integers(-1, 2, size=(50, 6))
        sids = sc.pack_all(scheme, digits)
        path = tmp_path / "out.sids"
        sc.write_sid_file(path, scheme, sids)
        scheme2, sids2 = sc.read_sid_file(path)
        assert scheme2 == scheme
        np.testing.assert_array_equal(sids2, sids)

    def test_header_written(self, tmp_path):
        scheme = sc.SidScheme(base=3, ngram=2, grams=1)
        path = tmp_path / "h.sids"
        sc.write_sid_file(path, scheme, np.array([[0], [24]], dtype=np.uint64))
        first = path.read_text().splitlines()[0]
        assert first == "#SIDv1 base=3 ngram=2 grams=1"

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.sids"
        path.write_text("not a header\n0 0\n")
        with pytest.raises(sc.SidError, match="header"):
            sc.read_sid_file(path)

    def test_wrong_record_width(self, tmp_path):
        path = tmp_path / "w.sids"
        path.write_text("#SIDv1 base=3 ngram=2 grams=2\n0\n")
        with pytest.raises(sc.SidError, match="expected 2"):
            sc.read_sid_file(path)

    def test_invalid_sid_value(self, tmp_path):
        path = tmp_path / "v.sids"
        path.write_text("#SIDv1 base=3 ngram=2 grams=1\n7\n")
        with pytest.raises(sc.SidError, match="divisible"):
            sc.read_sid_file(path)

    @pytest.mark.parametrize("field, message", [
        ("-3", "unexpected byte 0x2d at column 3"),
        (str(2**64), "expected a decimal u64 at column 3"),
        (str(2**70), "expected a decimal u64 at column 3"),
        ("1_2", "unexpected byte 0x5f at column 4"),
        ("+12", "unexpected byte 0x2b at column 3"),
        ("12.0", "unexpected byte 0x2e at column 5"),
        ("0x1b", "unexpected byte 0x78 at column 4"),
        ("9" * 5000, "expected a decimal u64 at column 3")],
        ids=["negative", "2**64", "2**70", "underscore", "plus", "point",
             "hex", "5000-digits"])
    def test_malformed_sid_field_names_its_line(self, tmp_path, field,
                                                message):
        path = tmp_path / "f.sids"
        path.write_text(f"#SIDv1 base=3 ngram=2 grams=2\n3 3\n3 {field}\n")
        with pytest.raises(sc.SidError) as exc:
            sc.read_sid_file(path)
        assert str(exc.value) == f"line 3: {message}"

    def test_u64_bounds_are_parsed(self, tmp_path):
        # base 2, ngram 63: the largest SID is 2**64 - 2; 2**64 - 1 parses
        # and then fails the scheme's range check, not the field check
        path = tmp_path / "b.sids"
        path.write_text(f"#SIDv1 base=2 ngram=63 grams=1\n{2**64 - 2}\n")
        assert sc.read_sid_file(path)[1].tolist() == [[2**64 - 2]]
        path.write_text(f"#SIDv1 base=2 ngram=63 grams=1\n{2**64 - 1}\n")
        with pytest.raises(sc.SidError, match="exceeds scheme maximum"):
            sc.read_sid_file(path)

    @pytest.mark.parametrize("header, message", [
        ("#SIDv1 base=3 ngram2 grams=1", NOT_CANONICAL),
        ("#SIDv1 base=+3 ngram=2 grams=1", NOT_CANONICAL),
        ("#SIDv1 base=3 ngram=1_2 grams=1", NOT_CANONICAL),
        ("#SIDv1 base=3 ngram=2 grams=-1", NOT_CANONICAL),
        ("#SIDv1 base=\u0663 ngram=2 grams=1", NOT_CANONICAL),
        ("#SIDv1 base=3 grams=1", NOT_CANONICAL),
        ("#SIDv1 base=3 grams=1 ngram=2", NOT_CANONICAL),
        ("#SIDv1 base=1 ngram=2 grams=1", "SID header: base must be >= 2"),
        ("#SIDv1 base=3 ngram=0 grams=1", "SID header: ngram must be >= 1"),
        ("#SIDv1 base=3 ngram=3 grams=1 base=5 colour=red", NOT_CANONICAL),
        ("#SIDv1 base=3 ngram=3 grams=1 colour=red", NOT_CANONICAL),
        ("#SIDv1 base=3 ngram=3 grams=\u0661", NOT_CANONICAL),
        ("#SIDv1 base=3 ngram=3 grams=1 ", NOT_CANONICAL),
        ("#SIDv1  base=3 ngram=3 grams=1", NOT_CANONICAL),
        ("#SIDv1 base=3\tngram=3 grams=1", NOT_CANONICAL),
        ("#SIDv1 base=3 ngram=3 grams=1\r", NOT_CANONICAL),
        ("#SIDv1 base=3 ngram=3 grams=100000000000000000000", NOT_CANONICAL),
        ("#SIDv1 base=3 ngram=3 grams=99999999999999999999",
         "SID header: grams=99999999999999999999 x ngram=3 digits do not fit"),
        ("#SIDv1 base=3 ngram=1 grams=1152921504606846976",
         "SID header: grams=1152921504606846976 x ngram=1 digits do not fit")])
    def test_malformed_header_field_is_named(self, header, message):
        with pytest.raises(sc.SidError) as exc:
            sc.SidScheme.from_header(header)
        assert str(exc.value).startswith(message)

    def test_non_ascii_record_names_its_line(self, tmp_path):
        path = tmp_path / "u.sids"
        path.write_bytes(b"#SIDv1 base=3 ngram=2 grams=2\n3 3\n3 \xd9\xa1\n")
        with pytest.raises(sc.SidError) as exc:
            sc.read_sid_file(path)
        assert str(exc.value) == "line 3: unexpected byte 0xd9 at column 3"

    def test_non_ascii_header_is_named(self, tmp_path):
        path = tmp_path / "h.sids"
        path.write_bytes(b"#SIDv1 base=\xd9\xa3 ngram=2 grams=1\n3\n")
        with pytest.raises(sc.SidError) as exc:
            sc.read_sid_file(path)
        assert str(exc.value) == (
            f"{NOT_CANONICAL}'#SIDv1 base=\\xd9\\xa3 ngram=2 grams=1'")


# ---------------------------------------------------------------------------
# The one-pass reader against the line-by-line reference


BODY_BYTES = st.sampled_from(
    [b"0", b"3", b"9", b"27", b" ", b"  ", b"\t", b"\r", b"\n", b"\r\n",
     b"\x0b", b"\x1c", b"a", b"-", b"+", b"\xd9", b"18446744073709551615",
     b"18446744073709551616", b"000000000000000000003",
     b"\x00", b"\x0c", b"\x1f", b"\x7f", b"\x85", b"\xa0",
     b"18446744073709551614", b"99999999999999999999"])
RECORDS = st.lists(st.sampled_from([b"0", b"3", b"9", b"27", b"78"]),
                   min_size=1, max_size=3).map(lambda f: b" ".join(f) + b"\n")


@settings(max_examples=1000, deadline=None)
@given(scheme=st.sampled_from([sc.SidScheme(3, 3, 1), sc.SidScheme(3, 3, 2),
                               sc.SidScheme(3, 3, 3), sc.SidScheme(2, 63, 1)]),
       header_end=st.sampled_from([b"\n", b"\n", b"\r\n", b""]),
       body=st.lists(st.one_of(BODY_BYTES, RECORDS), max_size=24)
       .map(b"".join),
       end=st.sampled_from([b"", b"\n", b"\r\n"]))
def test_read_equals_the_line_reader(tmp_path_factory, scheme, header_end,
                                     body, end):
    """Same SIDs or the same message as `oracles.line_read_sid`, for
    bodies of decimal fields, ASCII whitespace, stray bytes and
    terminated or unterminated last lines."""
    data = scheme.header().encode("ascii") + header_end + body + end
    assert_reads_like_the_line_reader(tmp_path_factory, data)


def assert_reads_like_the_line_reader(tmp_path_factory, data):
    """read_sid_file of `data` gives the SIDs of `oracles.line_read_sid`,
    or raises its message."""
    path = tmp_path_factory.getbasetemp() / "read.sid"
    path.write_bytes(data)
    try:
        expected_scheme, expected = line_read_sid(data)
    except sc.SidError as exc:
        with pytest.raises(sc.SidError) as got:
            sc.read_sid_file(path)
        assert str(got.value) == str(exc)
        return
    read_scheme, read = sc.read_sid_file(path)
    assert read_scheme == expected_scheme
    assert read.dtype == np.uint64 and read.shape == expected.shape
    np.testing.assert_array_equal(read, expected)


@settings(max_examples=400, deadline=None)
@given(grams=st.integers(1, 3),
       body=st.lists(BODY_BYTES, max_size=24).map(b"".join))
def test_bulk_parse_equals_the_line_reader_or_defers_to_it(tmp_path_factory,
                                                           grams, body):
    """A body of loose bytes under a valid header reads as the line
    reader reads it: the same SIDs, or the same message naming the line."""
    header = sc.SidScheme(base=3, ngram=3, grams=grams).header()
    assert_reads_like_the_line_reader(
        tmp_path_factory, header.encode("ascii") + b"\n" + body)


# (prefix, field separator, suffix) of a decorated record line
DECORATIONS = {"tab": ("", "\t", "\t"), "crlf": ("", " ", "\r"),
               "blank line": ("\n", " ", ""), "leading pad": (" ", " ", ""),
               "trailing pad": ("", " ", " "),
               "double space": ("", "  ", "  ")}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), grams=st.integers(1, 4), rows=st.integers(1, 12),
       decoration=st.sampled_from(sorted(DECORATIONS)))
def test_decorated_files_are_rejected_naming_their_line(
        tmp_path_factory, data, grams, rows, decoration):
    """A tab, CR, blank line or padding in one record of a written file
    is rejected with the message of the line reader, naming that line."""
    scheme = sc.SidScheme(base=3, ngram=3, grams=grams)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sids = sc.pack_all(scheme, rng.integers(-1, 2, size=(rows, 3 * grams)))
    row = data.draw(st.integers(0, rows - 1))
    lines = [" ".join(map(str, record)) + "\n" for record in sids.tolist()]
    prefix, sep, suffix = DECORATIONS[decoration]
    lines[row] = prefix + lines[row][:-1].replace(" ", sep) + suffix + "\n"
    file_bytes = (scheme.header() + "\n" + "".join(lines)).encode("ascii")
    with pytest.raises(sc.SidError) as expected:
        line_read_sid(file_bytes)
    path = tmp_path_factory.mktemp("sid") / "d.sid"
    path.write_bytes(file_bytes)
    with pytest.raises(sc.SidError) as got:
        sc.read_sid_file(path)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(f"line {row + 2}: ")


@settings(max_examples=400, deadline=None)
@given(scheme=st.sampled_from([sc.SidScheme(3, 3, 1), sc.SidScheme(3, 3, 3),
                               sc.SidScheme(5, 2, 2), sc.SidScheme(2, 63, 2)]),
       rows=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       edits=st.lists(st.tuples(
           st.sampled_from(["replace", "insert", "delete"]),
           st.integers(0, 2**16), st.sampled_from(b"0123456789 \n\t\r+x\xd9")),
           min_size=0, max_size=3))
def test_edited_files_read_like_the_line_reader(tmp_path_factory, scheme,
                                                rows, seed, edits):
    """A written file with up to three bytes replaced, inserted or deleted
    in its body reads as the line reader reads it: the same SIDs, or the
    same message naming the line of the first bad byte."""
    rng = np.random.default_rng(seed)
    sids = sc.pack_all(scheme, rng.integers(
        scheme.digit_lo, scheme.digit_hi + 1, size=(rows, scheme.digits)))
    path = tmp_path_factory.mktemp("sid") / "e.sid"
    sc.write_sid_file(path, scheme, sids)
    data = bytearray(path.read_bytes())
    body_at = data.index(b"\n") + 1
    for op, at, byte in edits:
        at = body_at + at % (len(data) - body_at + 1)
        if op == "insert":
            data[at:at] = bytes([byte])
        elif at < len(data):
            data[at:at + 1] = b"" if op == "delete" else bytes([byte])
    assert_reads_like_the_line_reader(tmp_path_factory, bytes(data))


def test_read_peak_memory_is_a_few_times_the_sids(tmp_path):
    """Reading a 200k-row, 5-gram file of 2.85 MB holds the file, a few
    8-byte offsets per separator and the parsed SIDs: under five times the
    bytes of the SIDs it returns."""
    scheme = sc.SidScheme(base=3, ngram=3, grams=5)
    rng = np.random.default_rng(12)
    sids = sc.pack_all(scheme, rng.integers(-1, 2, size=(200_000, 15)))
    path = tmp_path / "big.sid"
    sc.write_sid_file(path, scheme, sids)
    tracemalloc.start()
    try:
        _, read = sc.read_sid_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(read, sids)
    assert peak < 5 * sids.nbytes


def test_write_matches_per_value_formatting(tmp_path):
    scheme = sc.SidScheme(base=2, ngram=63, grams=2)
    sids = np.array([[0, 2**64 - 2], [2, 12]], dtype=np.uint64)
    path = tmp_path / "w.sid"
    sc.write_sid_file(path, scheme, sids)
    expected = [scheme.header()] + [" ".join(str(int(v)) for v in row)
                                   for row in sids]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("ascii")


@pytest.mark.parametrize("body, message", [
    (b"3\n16\n", "line 3: SID not divisible by the base"),
    (b"3\n84\n", "line 3: SID 84 exceeds scheme maximum 78"),
    (b"3 3\n", "line 2: expected 1 SIDs, got 2"),
    (b"3\n3 3 \n", "line 3: expected 1 SIDs, got 3"),
    (b"3\n\n7\n", "line 3: no SID before the line end at column 1"),
    (b"3\n 3\n", "line 3: no SID before the space at column 1"),
    (b"3\r\n84\n", "line 2: unexpected byte 0x0d at column 2"),
    (b"3\n\x0b5a\n", "line 3: unexpected byte 0x0b at column 1"),
    (b"3\n000000000000000000003\n",
     "line 3: expected a decimal u64 at column 1"),
    (b"3\n18446744073709551616\n",
     "line 3: expected a decimal u64 at column 1"),
    (b"3\n1844674407370955161x\n",
     "line 3: unexpected byte 0x78 at column 20"),
    (b"3\n3", "line 3: no line end"),
])
def test_a_bad_record_names_its_line(tmp_path, body, message):
    path = tmp_path / "bad.sid"
    path.write_bytes(b"#SIDv1 base=3 ngram=3 grams=1\n" + body)
    with pytest.raises(sc.SidError) as exc:
        sc.read_sid_file(path)
    assert str(exc.value).startswith(message)

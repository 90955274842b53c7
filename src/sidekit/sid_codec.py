"""Semantic ID packing and the table-free SID-to-embedding conversion.

A semantic ID packs an n-gram of centered codeword digits into one
unsigned integer: s = sum_{k=1..n} L^k * (offset + c_k). The radix index
starts at 1, so every valid SID is divisible by the base L (s / L is the
plain base-L reading of the digits). Unpacking is exact via floor-divide
and modulo, which is what makes SID embeddings (SIDE) possible: the latent
digits are recovered from the integer alone, with no lookup table and no
learned parameters.

Every function takes batches: digits and SID records are 2-D arrays with
one sample per row, packed and unpacked whole. A single sample is a batch
of one row; zero rows are a valid batch. Any other ndim raises SidError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .nn_core import DTYPE, _atomic_write

_U64_MAX = 2**64 - 1


class SidError(ValueError):
    pass


@dataclass(frozen=True)
class SidScheme:
    """Packing layout: base L, n digits per gram, number of grams.

    `offset` is the centering shift applied to digits before packing:
    (L-1)//2, so 1 for ternary digits in {-1, 0, +1}. The codeword vector
    is partitioned into `grams` contiguous n-grams; a short final gram is
    padded with the centered-zero digit.
    """

    base: int = 3
    ngram: int = 3
    grams: int = 1

    def __post_init__(self):
        if self.base < 2:
            raise SidError(f"base must be >= 2, got {self.base}")
        if self.ngram < 1:
            raise SidError(f"ngram must be >= 1, got {self.ngram}")
        if self.grams < 1:
            raise SidError(f"grams must be >= 1, got {self.grams}")
        if self.max_sid > _U64_MAX:
            raise SidError(
                f"scheme overflows u64: base={self.base} ngram={self.ngram} "
                f"needs {self.max_sid.bit_length()} bits")

    @property
    def offset(self):
        return (self.base - 1) // 2

    @property
    def max_sid(self):
        """Largest packable value (all digits at base-1): L^(n+1) - L."""
        return self.base ** (self.ngram + 1) - self.base

    @property
    def digits(self):
        return self.ngram * self.grams

    @property
    def digit_lo(self):
        return -self.offset

    @property
    def digit_hi(self):
        return self.base - 1 - self.offset

    def header(self):
        return f"#SIDv1 base={self.base} ngram={self.ngram} grams={self.grams}"

    @classmethod
    def from_header(cls, line):
        parts = line.strip().split()
        if not parts or parts[0] != "#SIDv1":
            raise SidError(f"bad SID file header: {line!r}")
        kv = {}
        for part in parts[1:]:
            key, sep, value = part.partition("=")
            if not sep:
                raise SidError(f"SID header field {part!r} is not key=value")
            kv[key] = value
        try:
            fields = {k: _u64s([kv[k]], f"SID header field {k}")[0]
                      for k in ("base", "ngram", "grams")}
        except KeyError as exc:
            raise SidError(f"SID header missing field {exc}") from None
        try:
            return cls(**fields)
        except SidError as exc:
            raise SidError(f"SID header: {exc}") from None

    @classmethod
    def for_digits(cls, total_digits, base=3, ngram=3):
        """Scheme covering `total_digits` codeword digits (last gram padded)."""
        grams = -(-total_digits // ngram)
        return cls(base=base, ngram=ngram, grams=grams)


def _u64s(texts, where):
    """`texts` as ints if each is plain ASCII decimal digits no larger than
    the u64 maximum; otherwise a SidError naming `where` and the first bad
    text. One check covers the whole list when all are valid."""
    joined = "".join(texts)
    if joined.isascii() and joined.isdigit() and max(map(len, texts)) <= 20:
        values = [int(t) for t in texts]
        if max(values) <= _U64_MAX:
            return values
    bad = next(t for t in texts
               if not (t.isascii() and t.isdigit() and len(t) <= 20)
               or int(t) > _U64_MAX)
    raise SidError(f"{where}: expected a decimal u64, got {bad!r}")


def _array(x, dtype):
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 2:
        raise SidError(f"expected a 2-D array, got ndim={arr.ndim}")
    return arr


def _powers(scheme):
    # L^1 .. L^n as u64; safe because the scheme bound was checked.
    return (scheme.base ** np.arange(1, scheme.ngram + 1)).astype(np.uint64)


def pack_all(scheme, digits):
    """Pack each row of an (m, digits) codeword matrix into its `grams` SIDs.

    The row width may fall short of grams*ngram; the tail is padded with
    centered-zero digits. Returns an (m, grams) u64 matrix.
    """
    arr = _array(digits, np.int64)
    total = scheme.digits
    if arr.shape[1] > total:
        raise SidError(
            f"codeword has {arr.shape[1]} digits; scheme holds {total}")
    if arr.size and (arr.min() < scheme.digit_lo or arr.max() > scheme.digit_hi):
        raise SidError(
            f"digit out of range [{scheme.digit_lo}, {scheme.digit_hi}]")
    shifted = np.pad(arr, ((0, 0), (0, total - arr.shape[1]))) + scheme.offset
    grouped = shifted.astype(np.uint64).reshape(-1, scheme.grams, scheme.ngram)
    return (grouped * _powers(scheme)).sum(axis=2, dtype=np.uint64)


def _records(scheme, sids):
    arr = _array(sids, np.uint64)
    if arr.shape[1] != scheme.grams:
        raise SidError(f"expected {scheme.grams} SIDs per record, got {arr.shape[1]}")
    return arr


def unpack_all(scheme, sids):
    """Recover the (m, grams * ngram) digit matrix, padding included, from
    (m, grams) SID records: floor-divide and modulo, exact for every valid
    SID."""
    arr = _records(scheme, sids)
    if arr.size and int(arr.max()) > scheme.max_sid:
        raise SidError(
            f"SID {int(arr.max())} exceeds scheme maximum {scheme.max_sid}")
    base = np.uint64(scheme.base)
    if np.any(arr % base != 0):
        raise SidError("SID not divisible by the base; not a packed value")
    digits = (arr[:, :, None] // _powers(scheme) % base).astype(np.int64)
    return digits.reshape(arr.shape[0], scheme.digits) - scheme.offset


def side_embed(scheme, sids):
    """Deterministically recover latent vectors from (m, grams) SID records.

    Returns the centered digits as float32, concatenated across grams.
    This is a pure function of (scheme, sids): no model, no table, no
    learned state, so the memory cost is independent of how many distinct
    SIDs exist.
    """
    return unpack_all(scheme, sids).astype(DTYPE)


def sid_hash(sids, table_size):
    """Baseline hashed-sparse-feature index: s mod table_size.

    Deliberately collision-prone whenever table_size is smaller than the
    SID cardinality; that failure mode is the thing the ranking harness
    measures.
    """
    if table_size < 1:
        raise SidError(f"table_size must be >= 1, got {table_size}")
    return (_array(sids, np.uint64) % np.uint64(table_size)).astype(np.int64)


# ---------------------------------------------------------------------------
# SID file format: one header line, then one whitespace-separated record of
# decimal u64 SIDs per sample.


def write_sid_file(path, scheme, sids):
    arr = _records(scheme, sids)
    record = " ".join(["%d"] * scheme.grams) + "\n"
    body = (record * arr.shape[0]) % tuple(arr.ravel().tolist())
    _atomic_write(path, [f"{scheme.header()}\n{body}".encode("ascii")])


def _ascii(raw, lineno):
    """SID file line `lineno`, bytes `raw`, as text; else a SidError."""
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        where = "SID header" if lineno == 1 else f"line {lineno}"
        raise SidError(f"{where}: non-ASCII byte 0x{raw[exc.start]:02x} "
                       f"at column {exc.start + 1}") from None


_SPACES = bytes.maketrans(b"\t\r", b"  ")
_U64_MAX_TEXT = str(_U64_MAX).encode("ascii")


def _parse_body(body, grams):
    """The (m, grams) SIDs of a SID file body in one pass, or None when a
    byte, a field or a line would make `_parse_lines` raise, or when the
    body holds whitespace other than spaces, tabs and line breaks."""
    if body.translate(None, b"0123456789 \t\r\n"):
        return None
    text = body.translate(_SPACES)
    chars = np.frombuffer(text, dtype=np.uint8)
    # only digits, spaces and newlines remain: a field is a run of bytes > 32
    edges = np.diff((chars > 32).view(np.int8), prepend=0, append=0)
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    if not starts.size:
        return np.empty((0, grams), dtype=np.uint64)
    widths = ends - starts
    if widths.max() > len(_U64_MAX_TEXT) or any(
            text[lo:lo + len(_U64_MAX_TEXT)] > _U64_MAX_TEXT
            for lo in starts[widths == len(_U64_MAX_TEXT)]):
        return None
    fields_per_line = np.bincount(np.cumsum(chars == 10)[starts])
    if not np.isin(fields_per_line, (0, grams)).all():
        return None
    sids = np.fromstring(text, dtype=np.uint64, sep=" ")
    return sids.reshape(-1, grams) if sids.size == starts.size else None


def _parse_lines(body, grams):
    """The SIDs of a SID file body line by line; a bad line raises a
    SidError naming it."""
    rows = []
    for lineno, raw in enumerate(body.split(b"\n"), start=2):
        line = _ascii(raw, lineno).strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != grams:
            raise SidError(
                f"line {lineno}: expected {grams} SIDs, got {len(fields)}")
        rows.append(_u64s(fields, f"line {lineno}"))
    return np.asarray(rows, dtype=np.uint64).reshape(len(rows), grams)


def read_sid_file(path):
    with open(path, "rb") as fh:
        data = fh.read()
    body_at = data.find(b"\n") + 1 or len(data)
    scheme = SidScheme.from_header(_ascii(data[:body_at], 1))
    body = data[body_at:]
    sids = _parse_body(body, scheme.grams)
    if sids is None:
        sids = _parse_lines(body, scheme.grams)
    try:
        unpack_all(scheme, sids)  # validates range and divisibility
    except SidError:
        # name the line of the first bad record, with that record's error
        bad = ((sids > np.uint64(scheme.max_sid))
               | (sids % np.uint64(scheme.base) != 0)).any(axis=1)
        row = int(np.flatnonzero(bad)[0])
        try:
            unpack_all(scheme, sids[row:row + 1])
        except SidError as exc:
            raise SidError(f"line {_record_line(body, row)}: {exc}") from None
    return scheme, sids


def _record_line(body, row):
    """File line number of record `row` (0-based) of a SID file body that
    parsed: the row-th line that is not blank."""
    lines = (n for n, raw in enumerate(body.split(b"\n"), start=2)
             if raw.decode("ascii").strip())
    return next(itertools.islice(lines, row, None))

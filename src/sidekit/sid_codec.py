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

A SID file holds exactly the bytes `write_sid_file` writes, save that
a decimal field may carry leading zeros. Its first line is the header
`#SIDv1 base=L ngram=n grams=g`; each later line is one record of g SIDs
separated by single spaces. Every line, the header's too, ends with one
"\n". A field, in the header or a record, is 1 to 20 ASCII digits; a
SID is at most 2**64 - 1, the scheme's max_sid and divisible by L. No
other byte may appear: no blank line, tab, CR or padding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .nn_core import DTYPE, _atomic_write

_U64_MAX = 2**64 - 1
_HEADER = re.compile(
    r"#SIDv1 base=([0-9]{1,20}) ngram=([0-9]{1,20}) grams=([0-9]{1,20})")


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
        # L >= 2 makes any ngram >= 64 overflow; checking it first spares
        # computing L^(n+1), which for a huge n does not finish
        if self.ngram >= 64 or self.max_sid > _U64_MAX:
            raise SidError(
                f"scheme overflows u64: base={self.base} ngram={self.ngram} "
                "has a largest SID above 2**64 - 1")
        if self.digits > np.iinfo(np.intp).max // 8:  # an int64 digit row
            raise SidError(f"grams={self.grams} x ngram={self.ngram} digits "
                           "do not fit in an array")

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
        """The scheme of header `line`, its line end excluded."""
        match = _HEADER.fullmatch(line)
        if not match:
            raise SidError("SID header: expected '#SIDv1 base=L ngram=n "
                           f"grams=g', got {ascii(line[:80])}")
        try:
            return cls(*map(int, match.groups()))
        except SidError as exc:
            raise SidError(f"SID header: {exc}") from None

    @classmethod
    def for_digits(cls, total_digits, base=3, ngram=3):
        """Scheme covering `total_digits` codeword digits (last gram padded)."""
        grams = -(-total_digits // ngram)
        return cls(base=base, ngram=ngram, grams=grams)


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
# SID file format; the grammar is in the module docstring.


def write_sid_file(path, scheme, sids):
    arr = _records(scheme, sids)
    record = " ".join(["%d"] * scheme.grams) + "\n"
    body = (record * arr.shape[0]) % tuple(arr.ravel().tolist())
    _atomic_write(path, [f"{scheme.header()}\n{body}".encode("ascii")])


def _first_bad_byte(body, grams):
    """(offset, tie rank, check) of the first byte of SID file body
    `body` that breaks the record grammar, or None: a byte other than a
    digit, space or line end; a separator after an empty field, or a
    space where a record of `grams` SIDs ends (a line end where it does
    not); the 20th byte of a field wider than 20 bytes or above
    2**64 - 1; else len(body) for a last line with no line end. Found in
    one pass over the separators; a tie goes to the earlier check."""
    chars = np.frombuffer(body, dtype=np.uint8)
    is_sep = (chars == ord(" ")) | (chars == ord("\n"))
    seps = np.flatnonzero(is_sep)
    ends = np.zeros(seps.size, dtype=bool)  # separators that end a record
    ends[grams - 1::grams] = True
    unended = body[-1:] not in (b"", b"\n")
    stops = np.append(seps, chars.size) if unended else seps
    widths = np.diff(stops, prepend=-1)
    widths -= 1  # of the field before each stop
    wide = widths >= 20
    starts = stops[wide] - widths[wide]  # of the fields of 20 bytes or more
    top = chars[starts[:, None] + np.arange(20)].view("S20").ravel()
    checks = {  # u8 arithmetic: a byte below "0" wraps above 9
        "byte": np.flatnonzero(~is_sep & (chars - ord("0") > 9)),
        "empty": seps[widths[:seps.size] == 0],
        "count": seps[(chars[seps] == ord("\n")) != ends],
        "u64": starts[(widths[wide] > 20) | (top > b"%d" % _U64_MAX)] + 19,
        "end": [chars.size] if unended else []}
    return min(((int(at[0]), rank, kind)
                for rank, (kind, at) in enumerate(checks.items()) if len(at)),
               default=None)


def _body_error(body, at, kind, grams):
    """The SidError of SID file body `body` whose first bad byte, at
    offset `at`, fails the check `kind`; its message names the file
    line."""
    start = body.rfind(b"\n", 0, at) + 1
    column = at - start + 1
    if kind == "byte":
        what = f"unexpected byte 0x{body[at]:02x} at column {column}"
    elif kind == "empty":
        sep = "line end" if body[at] == ord("\n") else "space"
        what = f"no SID before the {sep} at column {column}"
    elif kind == "count":
        stop = body.find(b"\n", start)
        fields = body.count(b" ", start, stop if stop >= 0 else len(body)) + 1
        what = f"expected {grams} SIDs, got {fields}"
    elif kind == "u64":
        what = f"expected a decimal u64 at column {column - 19}"
    else:
        what = "no line end"
    line = body.count(b"\n", 0, at) + 2
    return SidError(f"line {line}: {what}")


def read_sid_file(path):
    """(scheme, (m, grams) u64 SIDs) of the SID file at `path`.

    A file that breaks the grammar raises a SidError naming the header or
    the line of its first bad byte, else the first record holding a SID
    the scheme cannot have packed. The file holds no record count: a file
    cut exactly at a line end reads as a valid shorter file, and any other
    cut leaves a last line with no line end, which is rejected."""
    with open(path, "rb") as fh:
        head, line_end, body = fh.read().partition(b"\n")
    scheme = SidScheme.from_header(head.decode("latin-1"))
    if not line_end:
        raise SidError("SID header: no line end")
    bad = _first_bad_byte(body, scheme.grams)
    if bad:
        at, _, kind = bad
        raise _body_error(body, at, kind, scheme.grams)
    sids = np.fromstring(body, dtype=np.uint64, sep=" ")
    sids = sids.reshape(-1, scheme.grams)
    bad = ((sids > np.uint64(scheme.max_sid))
           | (sids % np.uint64(scheme.base) != 0)).any(axis=1)
    if bad.any():  # the first bad record's own message, with its line
        row = int(bad.argmax())
        try:
            unpack_all(scheme, sids[row:row + 1])
        except SidError as exc:
            raise SidError(f"line {row + 2}: {exc}") from None
    return scheme, sids

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

A SID file is ASCII text. Its first line is the header
`#SIDv1 base=L ngram=n grams=g`, each key once and no other key; each
later line is one record of g SIDs, or blank. Within a line, runs of
ASCII whitespace other than the line feed (space, \t, \x0b, \x0c, \r,
\x1c-\x1f) separate fields and may lead or trail, and a line of only
such whitespace is blank. A SID is 1 to 20 decimal digits, at most the
scheme's max_sid and divisible by L. Every line, the header's too, ends
with "\n". `write_sid_file` writes single spaces and no blank lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn_core import DTYPE, _atomic_write

_U64_MAX = 2**64 - 1
_HEADER_KEYS = ("base", "ngram", "grams")  # each exactly once, nothing else


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
            if key in kv:
                raise SidError(f"SID header repeats {key!r}")
            if key not in _HEADER_KEYS:
                raise SidError(f"SID header has unknown field {key!r}")
            kv[key] = value
        try:
            fields = {k: _u64s([kv[k]], f"SID header field {k}")[0]
                      for k in _HEADER_KEYS}
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
    """`texts` as ints if each is ASCII decimal digits no larger than the
    u64 maximum; otherwise a SidError naming `where` and the first bad
    text."""
    for text in texts:
        if not (text.isascii() and text.isdigit() and len(text) <= 20
                and int(text) <= _U64_MAX):
            raise SidError(f"{where}: expected a decimal u64, got {text!r}")
    return [int(text) for text in texts]


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


def _ascii(raw, lineno):
    """SID file line `lineno`, bytes `raw`, as text; else a SidError."""
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        where = "SID header" if lineno == 1 else f"line {lineno}"
        raise SidError(f"{where}: non-ASCII byte 0x{raw[exc.start]:02x} "
                       f"at column {exc.start + 1}") from None


# a body as read_sid_file reads it: line feeds and digits kept, any other
# ASCII byte that str.split() splits on a space, and every other byte "_"
_TEXT = bytes(ord("_") if c > 127 else c if chr(c) in "\n0123456789"
              else ord(" ") if chr(c).isspace() else ord("_")
              for c in range(256))
_U64_MAX_TEXT = str(_U64_MAX).encode("ascii")


def _raise_for_line(body, line_ends, index, grams):
    """Raise the SidError of body line `index` (0-based): its bytes must be
    ASCII, then its fields `grams` decimal u64s, then it must end."""
    lineno = index + 2
    lo = line_ends[index - 1] + 1 if index else 0
    hi = line_ends[index] if index < line_ends.size else len(body)
    fields = _ascii(body[lo:hi], lineno).split()
    if fields and len(fields) != grams:
        raise SidError(
            f"line {lineno}: expected {grams} SIDs, got {len(fields)}")
    _u64s(fields, f"line {lineno}")
    raise SidError(f"line {lineno}: no line end")


def read_sid_file(path):
    """(scheme, (m, grams) u64 SIDs) of the SID file at `path`, its body
    read in one pass over its bytes.

    A file that breaks the grammar raises a SidError naming the header or
    a line: the first line that is neither blank nor a record, else a last
    line with no line end, else the first record holding a SID the scheme
    cannot have packed. The file holds no record count: a file cut exactly
    at a line end reads as a valid shorter file, and any other cut leaves
    a last line with no line end, which is rejected."""
    with open(path, "rb") as fh:
        head, line_end, body = fh.read().partition(b"\n")
    scheme = SidScheme.from_header(_ascii(head, 1))
    if not line_end:
        raise SidError("SID header: no line end")
    text = body.translate(_TEXT)
    chars = np.frombuffer(text, dtype=np.uint8)
    line_ends = np.flatnonzero(chars == ord("\n"))
    edges = np.diff((chars > ord(" ")).view(np.int8), prepend=0, append=0)
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    per_line = np.bincount(np.searchsorted(line_ends, starts),
                           minlength=line_ends.size + 1)
    bad = (per_line != 0) & (per_line != scheme.grams)
    widths = stops - starts
    wide = starts[widths == 20]
    top = chars[wide[:, None] + np.arange(20)].view("S20").ravel()
    for at in (np.flatnonzero(chars == ord("_")), starts[widths > 20],
               wide[top > _U64_MAX_TEXT]):
        bad[np.searchsorted(line_ends, at)] = True
    bad[-1] |= body[-1:] not in (b"", b"\n")  # a last line with no end
    if bad.any():
        _raise_for_line(body, line_ends, int(bad.argmax()), scheme.grams)
    # one value per field: np.fromstring reads a text of spaces as [0]
    sids = np.fromstring(text, dtype=np.uint64, sep=" ")[:starts.size]
    sids = sids.reshape(-1, scheme.grams)
    bad = ((sids > np.uint64(scheme.max_sid))
           | (sids % np.uint64(scheme.base) != 0)).any(axis=1)
    if bad.any():  # the first bad record's own message, with its line
        row = int(bad.argmax())
        try:
            unpack_all(scheme, sids[row:row + 1])
        except SidError as exc:
            line = np.flatnonzero(per_line)[row] + 2
            raise SidError(f"line {line}: {exc}") from None
    return scheme, sids

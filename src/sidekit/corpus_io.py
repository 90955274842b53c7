"""The one module that knows how sidekit's files are laid out and written.

Every file goes through `_atomic_write`, a per-process temp file renamed
onto the target: a failed write leaves the target as it was and no temp
file. A file its writer cannot have written raises FormatError, naming the
byte offset where the format can. The module keeps the name `corpus_io`,
which the benchmark's per-layer spans use.

All binary fields are little-endian. A corpus is magic "SIDE", version
u32, rows u32, dim u32, then rows*dim float32. A checkpoint (models and
codebooks) is magic "SIDK", version u32, then records to the end of the
file: name length u32, UTF-8 name, rows u32, cols u32, float32 payload.
An engagement set is `np.savez`'s zip, `train --history` a CSV, and a SID
file text in `sid_codec`'s grammar.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import struct
import zipfile

import numpy as np

from .nn_core import DTYPE

CORPUS_MAGIC = b"SIDE"
CORPUS_VERSION = 1
_HEADER = struct.Struct("<4sIII")

CHECKPOINT_MAGIC = b"SIDK"
CHECKPOINT_VERSION = 1


class FormatError(ValueError):
    """A file its writer cannot have written, at byte `offset` if known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


def _atomic_write(path, write):
    """Call `write(fh)` on a per-process temp file opened "wb" beside
    `path`, then rename the file onto `path`. If anything raises, the temp
    file is removed and an existing `path` is left untouched."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def corpus_write(path, corpus):
    arr = np.ascontiguousarray(corpus, dtype=DTYPE)
    if arr.ndim != 2:
        raise FormatError(f"corpus must be 2-D, got ndim={arr.ndim}")

    def write(fh):
        fh.write(_HEADER.pack(CORPUS_MAGIC, CORPUS_VERSION, *arr.shape))
        fh.write(arr.astype("<f4", copy=False))
    _atomic_write(path, write)


def corpus_read(path):
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise FormatError(
                f"file too short for header: {size} bytes", offset=size)
        magic, version, rows, dim = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != CORPUS_MAGIC:
            raise FormatError(f"bad magic {magic!r}", offset=0)
        if version != CORPUS_VERSION:
            raise FormatError(f"unsupported version {version}", offset=4)
        expected = rows * dim * 4
        actual = size - _HEADER.size
        if actual != expected:
            raise FormatError(
                f"payload length mismatch: expected {expected} bytes "
                f"({rows}x{dim} f32), got {actual}", offset=_HEADER.size)
        payload = np.fromfile(fh, dtype="<f4", count=rows * dim)
    return payload.reshape(rows, dim).astype(DTYPE, copy=False)


def generate_clustered_corpus(rows, dim, clusters, noise, seed):
    """Unit-norm vectors around random cluster centers."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assign = rng.integers(0, clusters, size=rows)
    x = centers[assign] + noise * rng.normal(size=(rows, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x.astype(DTYPE)


def save_checkpoint(path, arrays):
    """Write named 2-D float32 arrays; the write is atomic via rename."""
    def write(fh):
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype=DTYPE)
            if arr.ndim != 2:
                raise FormatError(f"tensor '{name}' is not 2-D")
            if not name or not name.isprintable():
                raise FormatError(f"tensor name {name!r} is empty or "
                                  f"not printable")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)) + encoded
                     + struct.pack("<II", arr.shape[0], arr.shape[1]))
            fh.write(arr.astype("<f4", copy=False))
    _atomic_write(path, write)


def load_checkpoint(path):
    """Read a checkpoint back into an ordered name -> array dict.

    Anything save_checkpoint cannot have written raises FormatError with
    its byte offset: a short header or record, a name that is not
    printable UTF-8 or repeats an earlier one. Records run to the end of
    the file, so a file cut exactly at a record boundary reads as the
    records before the cut; callers check for the names they need.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != CHECKPOINT_MAGIC[:len(data)]:
        raise FormatError(f"bad magic {data[:4]!r}", offset=0)
    if len(data) < 8:
        raise FormatError("truncated header", offset=len(data))
    (version,) = struct.unpack_from("<I", data, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    arrays = {}
    pos = 8
    while pos < len(data):
        if pos + 4 > len(data):
            raise FormatError("truncated record header", offset=pos)
        (name_len,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if pos + name_len + 8 > len(data):
            raise FormatError("truncated record", offset=pos)
        raw_name = data[pos:pos + name_len]
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            name = ""
        if not name or not name.isprintable():
            raise FormatError(f"bad tensor name {raw_name[:64]!r}",
                              offset=pos)
        if name in arrays:
            raise FormatError(f"duplicate tensor '{name}'", offset=pos)
        pos += name_len
        rows, cols = struct.unpack_from("<II", data, pos)
        pos += 8
        nbytes = rows * cols * 4
        if pos + nbytes > len(data):
            raise FormatError(
                f"truncated payload for '{name}': expected {nbytes} bytes, "
                f"have {len(data) - pos}", offset=pos)
        arr = np.frombuffer(data, dtype="<f4", count=rows * cols, offset=pos)
        arrays[name] = arr.reshape(rows, cols).astype(DTYPE)
        pos += nbytes
    return arrays


def npz_write(path, arrays):
    """Write the named arrays to exactly `path`; np.savez streams them."""
    _atomic_write(path, lambda fh: np.savez(fh, **arrays))


def npz_read(path):
    """The arrays of the `.npz` at `path` by name. Each member is read
    whole, which checks its CRC, before it is parsed; pickles are refused.
    A file that is not such a zip raises FormatError naming `path`."""
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as zf:
                arrays = {}
                for info in zf.infolist():
                    # np.savez writes no comments: one is an entry whose
                    # comment length ran over the entries after it
                    if info.comment:
                        raise zipfile.BadZipFile(
                            f"comment on member {info.filename!r}")
                    arrays[info.filename.removesuffix(".npy")] = \
                        np.lib.format.read_array(io.BytesIO(zf.read(info)),
                                                 allow_pickle=False)
        except (zipfile.BadZipFile, EOFError, NotImplementedError, OSError,
                RuntimeError, ValueError) as exc:
            raise FormatError(
                f"{path}: {str(exc) or 'unexpected end of data'}") from None
    return arrays


def history_write(path, rows):
    """Write per-epoch rows as CSV: a header of the first row's keys, then
    each row's values, every line ended by "\\r\\n"."""
    text = io.StringIO()
    writer = csv.DictWriter(text, list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    _atomic_write(path, lambda fh: fh.write(text.getvalue().encode()))

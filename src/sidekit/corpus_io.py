"""The one module that knows how sidekit's files are laid out and written.

Every file goes through `_atomic_write`, a per-process temp file renamed
onto the target: a failed write leaves the target as it was and no temp
file. A file its writer cannot have written raises FormatError, naming the
byte offset where the format can. The module keeps the name `corpus_io`,
which the benchmark's per-layer spans use.

All binary fields are little-endian. A corpus is magic "SIDE", version
u32, rows u32, dim u32, then rows*dim float32. A checkpoint (models and
codebooks) and an engagement set are `.npz` files, `np.savez`'s zip of
one `.npy` member per named array, each member's CRC checked on read;
every checkpoint member is a 2-D `<f4` array. `train --history` is a
CSV, and a SID file text in `sid_codec`'s grammar.
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


def _check_tensor(name, arr, where=""):
    if not name or not name.isprintable():
        raise FormatError(f"{where}tensor name {name!r} is not printable")
    if arr.ndim != 2 or arr.dtype.str != "<f4":
        raise FormatError(f"{where}tensor '{name}' is {arr.dtype.str} of "
                          f"shape {arr.shape}, not 2-D <f4")


def save_checkpoint(path, arrays):
    """Write named 2-D arrays to `path` as an `.npz` of `<f4` members, in
    order. A name that is empty or not printable, or an array that is not
    2-D, raises FormatError before anything is written."""
    members = {name: np.ascontiguousarray(arr, dtype="<f4")
               for name, arr in arrays.items()}
    for name, arr in members.items():
        _check_tensor(name, arr)
    npz_write(path, members)


def load_checkpoint(path):
    """Read a checkpoint back into an ordered name -> array dict. A file
    that is not such an `.npz`, or a member that save_checkpoint would
    refuse or cannot have written, raises FormatError naming `path`."""
    arrays = npz_read(path)
    for name, arr in arrays.items():
        _check_tensor(name, arr, f"{path}: ")
    return arrays


def npz_write(path, arrays):
    """Write the named arrays to exactly `path` as `np.savez` lays them
    out, one `<name>.npy` member each, in order; pickles are refused."""
    def write(fh):
        with zipfile.ZipFile(fh, "w") as zf:
            for name, arr in arrays.items():
                with zf.open(f"{name}.npy", "w", force_zip64=True) as out:
                    np.lib.format.write_array(out, np.asanyarray(arr),
                                              allow_pickle=False)
    _atomic_write(path, write)


def npz_read(path):
    """The arrays of the `.npz` at `path` by name, in member order. Each
    member is read whole, which checks its CRC, before it is parsed;
    pickles are refused. A file that is not such a zip, or that repeats a
    member, raises FormatError naming `path`."""
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
                    name = info.filename.removesuffix(".npy")
                    if name in arrays:
                        raise zipfile.BadZipFile(
                            f"repeated member {info.filename!r}")
                    arrays[name] = np.lib.format.read_array(
                        io.BytesIO(zf.read(info)), allow_pickle=False)
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

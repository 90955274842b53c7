"""The one module that knows how sidekit's files are laid out and written.

Every file goes through `_atomic_write`, a per-process temp file renamed
onto the target: a failed write leaves the target as it was and no temp
file. A file its writer cannot have written raises FormatError, naming the
byte offset where the format can. The module keeps the name `corpus_io`,
which the benchmark's per-layer spans use.

All binary fields are little-endian. A corpus is magic "SIDE", version
u32, rows u32, dim u32, then rows*dim float32. A checkpoint (models and
codebooks) and an engagement set are `.npz` files, `np.savez`'s zip of
one `.npy` member per named array. On read zipfile parses the zip's
directory, after its end records are checked against the file size;
each member's local header, extent and CRC are checked as it is read.
Every checkpoint member is a 2-D `<f4` array. `train --history` is a
CSV, and a SID file text in `sid_codec`'s grammar.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import struct
import zipfile
import zlib

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


class _ZipError(Exception):
    """(message, offset): a zip that `npz_write` cannot have written."""


# zipfile's records: end of central directory, zip64 locator and record,
# local header
_END = struct.Struct(zipfile.structEndArchive)
_LOCATOR = struct.Struct(zipfile.structEndArchive64Locator)
_END64 = struct.Struct(zipfile.structEndArchive64)
_LOCAL = struct.Struct(zipfile.structFileHeader)


def _read_at(fd, offset, size):
    """`size` bytes at byte `offset` of the file `fd`; fewer where the
    file ends first."""
    return os.pread(fd, size, offset) if offset >= 0 else b""


def _central_directory(fd, size):
    """The offset of the central directory of the zip in `fd`, `size`
    bytes long, checked against its end records: the end-of-central-
    directory record ends the file (np.savez writes no archive comment);
    a zip64 locator just before it points at the zip64 record just
    before the locator, whose values then count; and the directory ends
    where these records begin. A mismatch raises _ZipError at the record
    found wrong."""
    end = size - _END.size
    raw = _read_at(fd, end, _END.size)
    if raw[:4] != zipfile.stringEndArchive or len(raw) < _END.size:
        raise _ZipError("not a zip: no end-of-central-directory record in "
                        "its last 22 bytes", max(0, end))
    _, disk, cd_disk, here, count, cd_size, cd_at, comment = _END.unpack(raw)
    locator = end - _LOCATOR.size
    raw = _read_at(fd, locator, _LOCATOR.size)
    if raw[:4] == zipfile.stringEndArchive64Locator:
        _, rec_disk, rec_at, disks = _LOCATOR.unpack(raw)
        end = locator - _END64.size
        raw = _read_at(fd, end, _END64.size)
        if (rec_disk or disks != 1 or rec_at != end
                or raw[:4] != zipfile.stringEndArchive64):
            raise _ZipError("zip64 locator with no zip64 record just "
                            "before it", locator)
        _, _, _, _, disk, cd_disk, here, count, cd_size, cd_at = \
            _END64.unpack(raw)
    if comment or disk or cd_disk or here != count:
        raise _ZipError("end of a commented or multi-disk zip", end)
    if cd_at + cd_size != end:
        raise _ZipError(f"central directory of {cd_size} bytes at byte "
                        f"{cd_at} does not end here", end)
    return cd_at


def _member_bytes(fd, info, stop):
    """The uncompressed bytes of the member `info`, read from after its
    local header. The header must bear its signature and the member's
    name, the data must end before byte `stop`, where the next member's
    header or the central directory begins, and the bytes must match the
    directory's size and CRC; else _ZipError at the header."""
    at = info.header_offset
    name = info.orig_filename.encode(
        "utf-8" if info.flag_bits & 0x800 else "cp437")
    head = _read_at(fd, at, _LOCAL.size + len(name))
    fields = _LOCAL.unpack_from(head) if len(head) >= _LOCAL.size else None
    if (fields is None or fields[0] != zipfile.stringFileHeader
            or fields[10] != len(name) or head[_LOCAL.size:] != name):
        raise _ZipError(f"no local header of {info.filename!r}", at)
    start = at + len(head) + fields[11]  # after the name and extra field
    if start + info.compress_size > stop:
        raise _ZipError(f"{info.filename!r} runs past byte {stop}", at)
    data = _read_at(fd, start, info.compress_size)
    if info.compress_type == zipfile.ZIP_DEFLATED:  # np.savez_compressed
        data = zlib.decompressobj(-15).decompress(data)
    elif info.compress_type != zipfile.ZIP_STORED:
        raise _ZipError(f"{info.filename!r} is compressed with method "
                        f"{info.compress_type}", at)
    if len(data) != info.file_size or zlib.crc32(data) != info.CRC:
        raise _ZipError(f"Bad CRC-32 for file {info.filename!r}", at)
    return data


def npz_read(path):
    """The arrays of the `.npz` at `path` by name, in member order;
    pickles are refused. zipfile parses the central directory, which
    `_central_directory` first checks against the file size; each member
    is read whole and its CRC checked before it is parsed. A file that
    `npz_write` cannot have written, or that repeats a member, raises
    FormatError naming `path` and a byte offset: that of the end record
    found wrong, of the central directory if zipfile cannot parse it, or
    of the member's local header."""
    offset = None
    with open(path, "rb") as fh:
        fd = fh.fileno()
        try:
            offset = _central_directory(fd, os.fstat(fd).st_size)
            with zipfile.ZipFile(fh) as zf:
                infos = zf.infolist()
            by_offset = sorted(infos, key=lambda info: info.header_offset)
            stops = dict(zip(by_offset, [info.header_offset for info in
                                         by_offset[1:]] + [offset]))
            arrays = {}
            for info in infos:
                offset = info.header_offset
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
                    io.BytesIO(_member_bytes(fd, info, stops[info])),
                    allow_pickle=False)
            return arrays
        except _ZipError as exc:
            message, offset = exc.args
        except (zipfile.BadZipFile, EOFError, NotImplementedError, OSError,
                RuntimeError, ValueError, zlib.error) as exc:
            message = str(exc) or "unexpected end of data"
    raise FormatError(f"{path}: {message}", offset=offset)


def history_write(path, rows):
    """Write per-epoch rows as CSV: a header of the first row's keys, then
    each row's values, every line ended by "\\r\\n"."""
    text = io.StringIO()
    writer = csv.DictWriter(text, list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    _atomic_write(path, lambda fh: fh.write(text.getvalue().encode()))

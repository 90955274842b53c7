"""Embedding corpus file format and synthetic data generators.

Corpus files are little-endian binary: magic "SIDE", version u32, rows
u32, dim u32, then rows*dim float32 payload. Writes go through a
temporary file and an atomic rename. Reads check the header against the
file size, report the byte offset of any problem, and read the payload
once, straight into the array.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .nn_core import DTYPE, _atomic_write

CORPUS_MAGIC = b"SIDE"
CORPUS_VERSION = 1
_HEADER = struct.Struct("<4sIII")


class CorpusFormatError(ValueError):
    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


def corpus_write(path, corpus):
    arr = np.ascontiguousarray(corpus, dtype=DTYPE)
    if arr.ndim != 2:
        raise CorpusFormatError(f"corpus must be 2-D, got ndim={arr.ndim}")
    _atomic_write(path, [_HEADER.pack(CORPUS_MAGIC, CORPUS_VERSION,
                                      arr.shape[0], arr.shape[1]),
                         arr.astype("<f4").tobytes()])


def corpus_read(path):
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise CorpusFormatError(
                f"file too short for header: {size} bytes", offset=size)
        magic, version, rows, dim = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != CORPUS_MAGIC:
            raise CorpusFormatError(f"bad magic {magic!r}", offset=0)
        if version != CORPUS_VERSION:
            raise CorpusFormatError(f"unsupported version {version}", offset=4)
        expected = rows * dim * 4
        actual = size - _HEADER.size
        if actual != expected:
            raise CorpusFormatError(
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

"""Output checks and health counts, written apart from the package.

Nothing here imports `sidekit`: the corpus reader, the SID file parser and
the base-L unpacker are independent re-implementations of the formats,
so a defect in the package's own readers cannot hide a defect in its
writers.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

_CORPUS_HEADER = struct.Struct("<4sIII")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_corpus(path):
    """Rows of a corpus file ("SIDE" magic, version 1) as float64."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, version, rows, dim = _CORPUS_HEADER.unpack_from(data, 0)
    if magic != b"SIDE" or version != 1:
        raise ValueError(f"{path}: not a version-1 corpus file")
    if len(data) != _CORPUS_HEADER.size + rows * dim * 4:
        raise ValueError(f"{path}: payload is not {rows}x{dim} float32")
    x = np.frombuffer(data, dtype="<f4", offset=_CORPUS_HEADER.size)
    return x.reshape(rows, dim).astype(np.float64)


def read_sid_file(path):
    """(base, ngram, grams, SIDs as a rows x grams uint64 array)."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        if not header or header[0] != "#SIDv1":
            raise ValueError(f"{path}: bad header {header}")
        fields = dict(item.split("=", 1) for item in header[1:])
        base, ngram, grams = (int(fields[k]) for k in ("base", "ngram", "grams"))
        rows = [[int(v) for v in line.split()] for line in fh if line.strip()]
    sids = np.array(rows, dtype=np.uint64).reshape(len(rows), grams)
    return base, ngram, grams, sids


def unpack_digits(base, ngram, sids):
    """Centered digits of packed SIDs, grams concatenated in order.

    A SID is sum_{k=1..n} L^k * (offset + c_k): it must be divisible by L,
    and after dividing by L its base-L digits, least significant first,
    are offset + c_1 .. offset + c_n.
    """
    offset = (base - 1) // 2
    s = np.asarray(sids, dtype=np.uint64)
    big_l = np.uint64(base)
    if np.any(s % big_l != 0):
        raise ValueError("SID not divisible by the base")
    s = s // big_l
    digits = np.empty(s.shape + (ngram,), dtype=np.int64)
    for k in range(ngram):
        digits[..., k] = (s % big_l).astype(np.int64) - offset
        s = s // big_l
    if np.any(s != 0):
        raise ValueError("SID has more than ngram base-L digits")
    return digits.reshape(s.shape[0], -1)


def recon_loss(x, x_hat):
    """Mean over rows of 1 - cos(x_i, x_hat_i), in float64."""
    xn = x / np.linalg.norm(x, axis=1, keepdims=True)
    rn = x_hat / np.linalg.norm(x_hat, axis=1, keepdims=True)
    return float(np.mean(1.0 - np.sum(xn * rn, axis=1)))


def distinct_ratio(rows):
    """Distinct full records divided by records."""
    return np.unique(np.asarray(rows), axis=0).shape[0] / len(rows)


def min_digit_utilization(digits, base, used):
    """Smallest share of the L levels taken by any of the first `used`
    digit positions (later positions are the packing pad)."""
    return min(np.unique(digits[:, j]).size / base for j in range(used))


def hash_collision_rates(sids, table_size):
    """Per gram: share of the distinct SIDs whose `s mod table_size`
    bucket also holds another distinct SID."""
    rates = []
    for g in range(sids.shape[1]):
        distinct = np.unique(sids[:, g])
        _, per_bucket = np.unique(distinct % np.uint64(table_size),
                                  return_counts=True)
        rates.append(float(per_bucket[per_bucket > 1].sum() / distinct.size))
    return rates


def recall_sane(recalls, ks, corpus_rows):
    """Recall within [0, 1], non-decreasing in k, above random k/(n-1)."""
    problems = []
    values = [recalls[f"recall@{k}"] for k in ks]
    for k, r in zip(ks, values):
        if not 0.0 <= r <= 1.0:
            problems.append(f"recall@{k}={r} outside [0, 1]")
        if not r > k / (corpus_rows - 1):
            problems.append(f"recall@{k}={r} does not beat random "
                            f"{k / (corpus_rows - 1):.6f}")
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append(f"recall not monotone in k: {values}")
    return problems

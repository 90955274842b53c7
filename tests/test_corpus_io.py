"""Corpus file tests: round trip, every rejected header or payload with
its byte offset, and a read whose peak memory is one payload."""

import tracemalloc

import numpy as np
import pytest

from sidekit.corpus_io import CorpusFormatError, corpus_read, corpus_write


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "x.emb"
    corpus_write(path, np.ones((7, 3), dtype=np.float32))
    return path


@pytest.mark.parametrize("rows, dim", [(7, 3), (0, 5), (4, 0)])
def test_round_trip(tmp_path, rows, dim):
    x = np.arange(rows * dim, dtype=np.float32).reshape(rows, dim)
    path = tmp_path / "x.emb"
    corpus_write(path, x)
    y = corpus_read(path)
    assert y.dtype == np.float32 and y.flags.writeable
    np.testing.assert_array_equal(y, x)


@pytest.mark.parametrize("edit, message, offset", [
    (lambda raw: raw[:10], "file too short for header: 10 bytes", 10),
    (lambda raw: b"", "file too short for header: 0 bytes", 0),
    (lambda raw: b"XXXX" + raw[4:], "bad magic b'XXXX'", 0),
    (lambda raw: raw[:4] + b"\x02\0\0\0" + raw[8:], "unsupported version 2",
     4),
    (lambda raw: raw[:-4], "payload length mismatch: expected 84 bytes "
     "(7x3 f32), got 80", 16),
    (lambda raw: raw + b"\0" * 8, "payload length mismatch: expected 84 "
     "bytes (7x3 f32), got 92", 16),
], ids=["short", "empty", "magic", "version", "truncated", "trailing"])
def test_bad_file_names_the_byte(saved, edit, message, offset):
    saved.write_bytes(edit(saved.read_bytes()))
    with pytest.raises(CorpusFormatError) as exc:
        corpus_read(saved)
    assert str(exc.value) == f"{message} (at byte {offset})"
    assert exc.value.offset == offset


def test_read_peak_memory_is_one_payload(tmp_path):
    """Reading the file into bytes and then copying the payload into an
    array holds it twice; reading straight into the array holds it once."""
    x = np.ones((8_192, 128), dtype=np.float32)  # 4 MB
    path = tmp_path / "big.emb"
    corpus_write(path, x)
    tracemalloc.start()
    try:
        corpus_read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * x.nbytes

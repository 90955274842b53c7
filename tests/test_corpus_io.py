"""File layer tests: corpus round trip, every rejected corpus header or
payload with its byte offset, a corpus read whose peak memory is one
payload, the checkpoint `.npz` and the members it rejects, and the one
atomic writer that every file kind goes through."""

import struct
import tracemalloc

import numpy as np
import pytest

from sidekit import ranking as rk
from sidekit.corpus_io import (FormatError, _atomic_write, corpus_read,
                               corpus_write, history_write, load_checkpoint,
                               npz_write, save_checkpoint)
from sidekit.sid_codec import SidScheme, write_sid_file


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
    with pytest.raises(FormatError) as exc:
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


def without_path(exc, path):
    """A FormatError's message with its leading "<path>: " removed."""
    message = str(exc)
    assert message.startswith(f"{path}: ")
    return message.removeprefix(f"{path}: ")


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        # "file" and "allow_pickle" name np.savez's own parameters
        arrays = {"enc.w": rng.normal(size=(3, 5)).astype(np.float32),
                  "dpca.g0.d0.u": rng.normal(size=(1, 7)).astype(np.float32),
                  "empty": np.zeros((0, 2), dtype=np.float32),
                  "file": np.ones((1, 1), dtype=np.float32),
                  "allow_pickle": np.zeros((2, 1), dtype=np.float32)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(arrays)
        for k in arrays:
            assert loaded[k].shape == arrays[k].shape
            np.testing.assert_array_equal(loaded[k], arrays[k])

    def test_an_old_sidk_file_is_rejected(self, tmp_path):
        path = tmp_path / "old.ckpt"
        # magic, version 1, then one record: name length, "x", 1 x 1, 1.0
        path.write_bytes(b"SIDK" + struct.pack("<II", 1, 1) + b"x"
                         + struct.pack("<IIf", 1, 1, 1.0))
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert without_path(exc.value, path) == "File is not a zip file"

    def test_truncated_file_is_rejected_naming_its_path(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(path, {"w": np.ones((4, 4), dtype=np.float32)})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert without_path(exc.value, path) == "File is not a zip file"

    def test_format_is_little_endian(self, tmp_path):
        path = tmp_path / "le.ckpt"
        save_checkpoint(path, {"x": np.array([[1.0]], dtype=">f8"),
                               "y": np.ones((2, 3), dtype=np.float32)})
        with np.load(path) as members:
            assert members.files == ["x", "y"]
            for name in members.files:
                assert members[name].dtype.str == "<f4"
                assert members[name].ndim == 2
            assert members["x"].tobytes() == np.float32(1.0).tobytes()

    @pytest.mark.parametrize("name, array, message", [
        ("w", np.ones(3, dtype="<f4"), "tensor 'w' is <f4 of shape (3,), "
         "not 2-D <f4"),
        ("w", np.ones((1, 1), dtype="<f8"), "tensor 'w' is <f8 of shape "
         "(1, 1), not 2-D <f4"),
        ("w", np.ones((1, 1), dtype=">f4"), "tensor 'w' is >f4 of shape "
         "(1, 1), not 2-D <f4"),
        ("w", np.ones((1, 1), dtype="<i4"), "tensor 'w' is <i4 of shape "
         "(1, 1), not 2-D <f4"),
        ("", np.ones((1, 1), dtype="<f4"), "tensor name '' is not printable"),
        ("tab\there", np.ones((1, 1), dtype="<f4"), "tensor name "
         "'tab\\there' is not printable"),
    ], ids=["1-D", "f8", "big-endian", "int", "empty-name", "tab-name"])
    def test_members_a_save_cannot_write_are_rejected(self, tmp_path, name,
                                                      array, message):
        path = tmp_path / "odd.ckpt"
        npz_write(path, {"ok": np.ones((1, 1), dtype="<f4"), name: array})
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert without_path(exc.value, path) == message


def ragged_engagement_set():
    """A valid set whose last array was then made ragged: npz_write fails
    on it after writing every other array."""
    ds = rk.generate_engagement(rk.EngagementConfig(users=4, items=3,
                                                    seq_len=2, seed=0))
    ds.dense = [[0.0], [0.0, 1.0]]
    return ds


REJECTED_WRITES = {
    "checkpoint": lambda path: save_checkpoint(
        path, {"w": np.zeros((2, 2)), "t": np.zeros((2, 2, 2))}),
    "corpus": lambda path: corpus_write(path, np.zeros((2, 2, 2))),
    "sid_file": lambda path: write_sid_file(path, SidScheme(grams=1),
                                            [[0, 3]]),
    "engagement": lambda path: ragged_engagement_set().save(path),
    "history": lambda path: history_write(
        path, [{"epoch": 0, "total": 1.0},
               {"epoch": 1, "total": 0.5, "recon": 0.2}]),
}


@pytest.mark.parametrize("kind", sorted(REJECTED_WRITES))
def test_rejected_write_leaves_target_and_no_temp(tmp_path, kind):
    path = tmp_path / "target"
    path.write_bytes(b"old")
    with pytest.raises(ValueError):
        REJECTED_WRITES[kind](path)
    assert path.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]


def test_atomic_write_failure_removes_temp(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")

    def write(fh):
        fh.write(b"new")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic_write(path, write)
    assert path.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
    _atomic_write(path, lambda fh: fh.write(b"new"))
    assert path.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]

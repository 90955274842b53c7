"""Corrupt corpus, checkpoint, SID and engagement files: a truncation at
any offset and a flipped bit in a header, name-length or shape field, or
any flipped byte of an engagement file.

Every rejection names the byte offset (binary files) or the line (SID
files). What a format cannot tell from a valid file is pinned exactly:
checkpoint records and SID lines run to the end of the file with no
count, so a cut at a record boundary or at a line end reads as the
records before it (`FusionModel.load` still rejects it: it needs every
parameter), and an empty array's other dimension is not checked against
anything. Every SID line ends with a line feed, so a SID file cut
anywhere else is rejected. An engagement file is a zip whose members carry
CRCs, so it reads back as saved or not at all.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidekit import fusion_vae as fv
from sidekit import sid_codec as sc
from sidekit import ranking as rk
from sidekit.corpus_io import (FormatError, corpus_read, corpus_write,
                               load_checkpoint, save_checkpoint)

SETTINGS = settings(max_examples=150, deadline=None)


def names_its_byte(exc):
    return (exc.offset is not None
            and str(exc).endswith(f"(at byte {exc.offset})"))


def flip(raw, byte, bit):
    out = bytearray(raw)
    out[byte] ^= 1 << bit
    return bytes(out)


# ---------------------------------------------------------------------------
# Corpus: magic, version, rows, dim (u32 each), then the payload


def corpus_bytes(tmp_path_factory, rows, dim, seed):
    path = tmp_path_factory.mktemp("corpus") / "x.emb"
    corpus_write(path, np.random.default_rng(seed).normal(size=(rows, dim)))
    return path, path.read_bytes()


@SETTINGS
@given(rows=st.integers(0, 5), dim=st.integers(0, 5),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_truncated_corpus_names_its_byte(tmp_path_factory, rows, dim, seed,
                                         data):
    path, raw = corpus_bytes(tmp_path_factory, rows, dim, seed)
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(FormatError) as exc:
        corpus_read(path)
    assert names_its_byte(exc.value)


@SETTINGS
@given(rows=st.integers(0, 5), dim=st.integers(0, 5),
       seed=st.integers(0, 2**32 - 1), byte=st.integers(0, 15),
       bit=st.integers(0, 7))
def test_corpus_header_bit_flip_names_its_byte(tmp_path_factory, rows, dim,
                                               seed, byte, bit):
    path, raw = corpus_bytes(tmp_path_factory, rows, dim, seed)
    path.write_bytes(flip(raw, byte, bit))
    try:
        arr = corpus_read(path)
    except FormatError as exc:
        assert names_its_byte(exc)
        return
    # only an empty payload's other dimension can change unnoticed
    assert rows * dim == 0 and arr.size == 0 and byte >= 8


# ---------------------------------------------------------------------------
# Checkpoint: magic, version, then per record name length u32, name,
# rows u32, cols u32, payload


NAMES = ["enc.sig0.w1", "b", "dpca.g0.d1.u", "meta.latent", "kmeans.l0.centroids"]


@st.composite
def checkpoints(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4,
                          unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {name: rng.normal(size=(draw(st.integers(0, 3)),
                                   draw(st.integers(0, 3))))
            .astype(np.float32) for name in names}


def layout(arrays):
    """(record end offsets, [(name-length offset, shape offset, rows*cols)])."""
    pos, ends, fields = 8, [8], []
    for name, arr in arrays.items():
        shape_at = pos + 4 + len(name.encode())
        fields.append((pos, shape_at, arr.size))
        pos = shape_at + 8 + 4 * arr.size
        ends.append(pos)
    return ends, fields


def saved(tmp_path_factory, arrays):
    path = tmp_path_factory.mktemp("ckpt") / "c.ckpt"
    save_checkpoint(path, arrays)
    return path, path.read_bytes()


@SETTINGS
@given(arrays=checkpoints(), data=st.data())
def test_truncated_checkpoint_names_its_byte(tmp_path_factory, arrays, data):
    path, raw = saved(tmp_path_factory, arrays)
    cut = data.draw(st.integers(0, len(raw) - 1))
    path.write_bytes(raw[:cut])
    ends, _ = layout(arrays)
    try:
        loaded = load_checkpoint(path)
    except FormatError as exc:
        assert names_its_byte(exc)
        return
    kept = ends.index(cut)  # accepted only at a record boundary
    assert list(loaded) == list(arrays)[:kept]


@SETTINGS
@given(arrays=checkpoints(), data=st.data())
def test_checkpoint_field_bit_flip_names_its_byte(tmp_path_factory, arrays,
                                                  data):
    path, raw = saved(tmp_path_factory, arrays)
    _, fields = layout(arrays)
    record = data.draw(st.integers(0, len(fields) - 1))
    name_at, shape_at, size = fields[record]
    byte = data.draw(st.sampled_from(
        [*range(8), *range(name_at, name_at + 4),
         *range(shape_at, shape_at + 8)]))
    path.write_bytes(flip(raw, byte, data.draw(st.integers(0, 7))))
    try:
        loaded = load_checkpoint(path)
    except FormatError as exc:
        assert names_its_byte(exc)
        return
    # only the other dimension of an empty array can change unnoticed
    name = list(arrays)[record]
    assert shape_at <= byte < shape_at + 8 and size == 0
    assert list(loaded) == list(arrays) and loaded[name].size == 0


@pytest.fixture(scope="module")
def model_checkpoint(tmp_path_factory):
    spec = fv.FusionSpec((3,), 2, 2, "dpca", 3, 2, 1)
    path = tmp_path_factory.mktemp("model") / "m.ckpt"
    fv.FusionModel(spec, seed=0).save(path)
    return spec, path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_model_load_rejects_every_truncation(tmp_path_factory,
                                             model_checkpoint, data):
    spec, raw = model_checkpoint
    path = tmp_path_factory.mktemp("cut") / "m.ckpt"
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises((FormatError, fv.FusionError)) as exc:
        fv.FusionModel(spec, seed=1).load(path)
    if isinstance(exc.value, FormatError):
        assert names_its_byte(exc.value)
    else:
        assert re.search(r"missing (parameter )?'[\w.]+'", str(exc.value))


def test_model_load_rejects_a_cut_at_every_record_boundary(tmp_path,
                                                           model_checkpoint):
    spec, raw = model_checkpoint
    path = tmp_path / "m.ckpt"
    path.write_bytes(raw)
    ends, _ = layout(load_checkpoint(path))
    assert ends[-1] == len(raw)
    for cut in ends[:-1]:  # the last record, meta.latent, included
        path.write_bytes(raw[:cut])
        with pytest.raises(fv.FusionError, match="missing"):
            fv.FusionModel(spec, seed=1).load(path)


@pytest.mark.parametrize("name", ["", "tab\there", "nul\0"])
def test_names_a_load_would_refuse_are_not_saved(tmp_path, name):
    path = tmp_path / "n.ckpt"
    with pytest.raises(FormatError, match="not printable"):
        save_checkpoint(path, {name: np.ones((1, 1))})
    assert not path.exists()


def test_undecodable_or_repeated_names_name_their_byte(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"ab": np.ones((1, 1)), "cd": np.ones((1, 1))})
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"ab", b"\xff\xfe"))
    with pytest.raises(FormatError, match=r"bad tensor name .*at byte 12"):
        load_checkpoint(path)
    path.write_bytes(raw.replace(b"cd", b"ab"))
    with pytest.raises(FormatError,
                       match=r"duplicate tensor 'ab' \(at byte 30\)"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# Engagement sets: an np.savez zip, one .npy member per array, then the zip
# directory


@pytest.fixture(scope="module")
def engagement_file(tmp_path_factory):
    ds = rk.generate_engagement(rk.EngagementConfig(users=20, items=6,
                                                    seq_len=3, seed=1))
    path = tmp_path_factory.mktemp("eng") / "e.npz"
    ds.save(path)
    return ds, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_engagement_load_returns_the_set_or_a_format_error(
        tmp_path_factory, engagement_file, data):
    ds, raw = engagement_file
    # most bytes are array payload: draw half the edits in the directory
    lo = data.draw(st.sampled_from([0, raw.index(b"PK\x01\x02")]))
    at = data.draw(st.integers(lo, len(raw) - 1))
    if data.draw(st.booleans()):
        edited = raw[:at]
    else:
        edited = bytearray(raw)
        edited[at] ^= data.draw(st.integers(1, 255))
    path = tmp_path_factory.mktemp("bad") / "e.npz"
    path.write_bytes(edited)
    try:
        back = rk.SyntheticEngagementSet.load(path)
    except FormatError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert back.config == ds.config
    for name in ("item_latents", "item_digits", "item_sids", "history",
                 "candidates", "labels", "segments", "dense"):
        got, want = getattr(back, name), getattr(ds, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# SID files: a text header, then one line of decimal SIDs per record


@st.composite
def sid_files(draw):
    scheme = sc.SidScheme(base=3, ngram=3, grams=draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    digits = rng.integers(-1, 2, size=(draw(st.integers(1, 8)),
                                       scheme.digits))
    return scheme, sc.pack_all(scheme, digits)


def sid_raw(tmp_path_factory, scheme, sids):
    path = tmp_path_factory.mktemp("sid") / "s.sid"
    sc.write_sid_file(path, scheme, sids)
    return path, path.read_bytes()


def names_header_or_line(exc):
    return str(exc).startswith(("line ", "SID header: "))


@SETTINGS
@given(sid_file=sid_files(), data=st.data())
def test_truncated_sid_file_names_its_line(tmp_path_factory, sid_file, data):
    scheme, sids = sid_file
    path, raw = sid_raw(tmp_path_factory, scheme, sids)
    cut = data.draw(st.integers(0, len(raw) - 1))
    path.write_bytes(raw[:cut])
    whole = raw[:cut].count(b"\n")  # whole lines, the header's included
    if not raw[:cut].endswith(b"\n"):
        with pytest.raises(sc.SidError) as exc:
            sc.read_sid_file(path)  # naming the cut line
        if whole:
            assert str(exc.value).startswith(f"line {whole + 1}: ")
        else:
            assert names_header_or_line(exc.value)
        return
    # a cut at a line end leaves whole lines, which read back as they were
    read_scheme, read = sc.read_sid_file(path)
    assert read_scheme == scheme
    np.testing.assert_array_equal(read, sids[:whole - 1])


@SETTINGS
@given(sid_file=sid_files(), data=st.data())
def test_sid_header_bit_flip_names_header_or_line(tmp_path_factory, sid_file,
                                                  data):
    scheme, sids = sid_file
    path, raw = sid_raw(tmp_path_factory, scheme, sids)
    byte = data.draw(st.integers(0, raw.index(b"\n")))
    path.write_bytes(flip(raw, byte, data.draw(st.integers(0, 7))))
    try:
        read_scheme, read = sc.read_sid_file(path)
    except sc.SidError as exc:
        assert names_header_or_line(exc)
        return
    # a flip that leaves a valid header under which every record is
    # still a valid SID is indistinguishable from a valid file
    assert read_scheme != scheme or np.array_equal(read, sids)
    sc.unpack_all(read_scheme, read)

"""Corrupt corpus, SID, checkpoint and engagement files.

A corpus truncated at any offset, or with a flipped header bit, is
rejected naming the byte offset; a SID file, naming the line. What those
two formats cannot tell from a valid file is pinned exactly: an empty
corpus's other dimension is checked against nothing, and SID lines run
to the end of the file with no count, so a cut at a line end reads as the
lines before it. A cut anywhere else in a SID file is rejected, since
every line ends with a line feed.

Checkpoints and engagement sets are `.npz` zips whose members carry
CRCs. Any cut or flipped byte reads back exactly the saved arrays or
raises a FormatError naming the file, and so does every cut and every
single-bit flip of one small checkpoint, tried exhaustively. A repeated
member is rejected by name.
"""

import io
import warnings
import zipfile
from dataclasses import asdict, fields

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
# Checkpoints and engagement sets: an np.savez zip, one .npy member per
# array, then the zip directory


def same_arrays(got, want):
    """The same names in the same order, each of the same dtype, shape
    and bits."""
    return list(got) == list(want) and all(
        got[k].dtype == want[k].dtype and got[k].shape == want[k].shape
        and got[k].tobytes() == want[k].tobytes() for k in want)


def engagement_arrays(ds):
    return {**{f.name: getattr(ds, f.name) for f in fields(ds)[1:]},
            **{k: np.array(v) for k, v in asdict(ds.config).items()}}


@pytest.fixture(scope="module")
def model_checkpoint(tmp_path_factory):
    spec = fv.FusionSpec((3,), 2, 2, "dpca", 3, 2, 1)
    path = tmp_path_factory.mktemp("model") / "m.ckpt"
    model = fv.FusionModel(spec, seed=0)
    model.save(path)
    arrays = {**dict(model.params.items()),
              "meta.latent": np.array([[spec.latent]], dtype=np.float32)}
    return spec, arrays, path.read_bytes()


@pytest.fixture(scope="module", params=["engagement", "checkpoint"])
def zip_file(request, tmp_path_factory, model_checkpoint):
    """(saved bytes, a loader giving name -> array, what it must give)."""
    if request.param == "checkpoint":
        _, arrays, raw = model_checkpoint
        return raw, load_checkpoint, arrays
    ds = rk.generate_engagement(rk.EngagementConfig(users=20, items=6,
                                                    seq_len=3, seed=1))
    path = tmp_path_factory.mktemp("eng") / "e.npz"
    ds.save(path)
    return (path.read_bytes(),
            lambda p: engagement_arrays(rk.SyntheticEngagementSet.load(p)),
            engagement_arrays(ds))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_returns_what_was_saved_or_a_format_error(tmp_path_factory,
                                                       zip_file, data):
    raw, load, want = zip_file
    # most bytes are array payload: draw half the edits in the directory
    lo = data.draw(st.sampled_from([0, raw.index(b"PK\x01\x02")]))
    at = data.draw(st.integers(lo, len(raw) - 1))
    if data.draw(st.booleans()):
        edited = raw[:at]
    else:
        edited = bytearray(raw)
        edited[at] ^= data.draw(st.integers(1, 255))
    path = tmp_path_factory.mktemp("bad") / "f"
    path.write_bytes(edited)
    try:
        back = load(path)
    except FormatError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert same_arrays(back, want)


def test_every_cut_or_bit_flip_of_a_checkpoint_reads_as_saved_or_raises(
        tmp_path):
    """Every truncation and every single-bit flip of one small checkpoint.
    Its first array has one row and another array follows it: a format
    with no array count or checksum reads a flip of that row count, or a
    cut between arrays, as a valid file of other arrays."""
    rng = np.random.default_rng(0)
    arrays = {name: rng.normal(size=shape).astype(np.float32)
              for name, shape in [("enc.sig0.w1", (1, 3)),
                                  ("dpca.g0.d1.u", (2, 3)),
                                  ("meta.latent", (1, 1))]}
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, arrays)
    raw = path.read_bytes()
    edits = {f"cut at {cut}": raw[:cut] for cut in range(len(raw))}
    edits.update({f"bit {bit} of byte {byte}": flip(raw, byte, bit)
                  for byte in range(len(raw)) for bit in range(8)})
    wrong = []
    for edit, edited in edits.items():
        path.write_bytes(edited)
        try:
            back = load_checkpoint(path)
        except FormatError:
            continue
        if not same_arrays(back, arrays):
            wrong.append(edit)
    assert wrong == []


def with_a_repeated_member(raw):
    """The zip `raw` with a second copy of its first member appended, and
    that member's name."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(raw)) as src, \
            zipfile.ZipFile(out, "w") as dst, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zipfile warns of the repeat
        for info in src.infolist():
            dst.writestr(info, src.read(info))
        first = src.infolist()[0]
        dst.writestr(first, src.read(first))
    return out.getvalue(), first.filename


def test_a_repeated_member_is_rejected_by_name(tmp_path, zip_file):
    raw, load, _ = zip_file
    path = tmp_path / "f"
    edited, member = with_a_repeated_member(raw)
    path.write_bytes(edited)
    with pytest.raises(FormatError) as exc:
        load(path)
    assert str(exc.value) == f"{path}: repeated member {member!r}"


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_model_load_rejects_every_truncation(tmp_path_factory,
                                             model_checkpoint, data):
    spec, _, raw = model_checkpoint
    path = tmp_path_factory.mktemp("cut") / "m.ckpt"
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(FormatError) as exc:
        fv.FusionModel(spec, seed=1).load(path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name", ["", "tab\there", "nul\0"])
def test_names_a_load_would_refuse_are_not_saved(tmp_path, name):
    path = tmp_path / "n.ckpt"
    with pytest.raises(FormatError, match="not printable"):
        save_checkpoint(path, {name: np.ones((1, 1))})
    assert not path.exists()


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

"""CLI tests at toy sizes: gen-corpus -> train -> encode -> decode ->
eval-recon for every quantizer kind, a zero-row corpus, rejected configs,
checkpoints and engagement files, training divergence, rank-ab from a
gen-engagement file, eval-recall and eval-ne."""

import importlib.util
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from sidekit import cli, metrics, sid_codec
from sidekit import fusion_vae as fv
from sidekit import nn_core as nn
from sidekit import ranking as rk
from sidekit.corpus_io import (corpus_read, corpus_write, load_checkpoint,
                               save_checkpoint)
from sidekit.quantizers import load_codebooks
from sidekit.sid_codec import read_sid_file

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = {
    "kmeans": "levels=4",
    "rq": "levels=4\ndepth=2",
    "pq": "levels=4\ngroups=2",
    "fsq": "latent=4\nhidden=8\nepochs=2\nbatch_size=32",
    "dpca": "latent=4\nhidden=8\ndepth=2\ngroups=2\nepochs=2\nbatch_size=32",
    "none": "latent=4\nhidden=8\nepochs=1\nbatch_size=32",
}


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "x.emb"
    assert run("gen-corpus", "--rows", 64, "--dim", 8, "--clusters", 5,
               "--seed", 1, "--out", path) == 0
    return path


def config(tmp_path, kind):
    path = tmp_path / f"{kind}.cfg"
    path.write_text(f"quantizer={kind}\n{CONFIGS[kind]}\n")
    return path


@pytest.mark.parametrize("kind", ["kmeans", "rq", "pq", "fsq", "dpca"])
def test_round_trip(tmp_path, corpus, kind, capsys):
    cfg = config(tmp_path, kind)
    ckpt, sids, out = tmp_path / "q.ckpt", tmp_path / "x.sid", tmp_path / "rec"
    assert run("train", "--corpus", corpus, "--config", cfg,
               "--out", ckpt) == 0
    assert run("encode", "--corpus", corpus, "--config", cfg, "--ckpt", ckpt,
               "--out", sids) == 0
    assert run("decode", "--sids", sids, "--config", cfg, "--ckpt", ckpt,
               "--dims", 8, "--out", out) == 0
    capsys.readouterr()
    assert run("eval-recon", "--original", corpus, "--reconstruction",
               f"{out}.sig0.emb", "--json") == 0
    loss = json.loads(capsys.readouterr().out)["cosine_reconstruction_loss"]
    assert 0.0 <= loss < 2.0

    scheme, records = read_sid_file(sids)
    assert records.shape == (64, scheme.grams)
    assert corpus_read(f"{out}.sig0.emb").shape == (64, 8)
    if kind in ("kmeans", "rq", "pq"):
        books = load_codebooks(ckpt)
        assert len(books) == {"kmeans": 1, "rq": 2, "pq": 2}[kind]


@pytest.mark.parametrize("kind", ["kmeans", "fsq"])
def test_decode_unpacks_each_sid_once(tmp_path, corpus, kind, monkeypatch):
    cfg = config(tmp_path, kind)
    ckpt, sids = tmp_path / "q.ckpt", tmp_path / "x.sid"
    assert run("train", "--corpus", corpus, "--config", cfg,
               "--out", ckpt) == 0
    assert run("encode", "--corpus", corpus, "--config", cfg, "--ckpt", ckpt,
               "--out", sids) == 0
    unpacked, unpack_all = [], sid_codec.unpack_all

    def counting_unpack_all(scheme, records):
        unpacked.append(len(records))
        return unpack_all(scheme, records)

    monkeypatch.setattr(cli, "unpack_all", counting_unpack_all)
    monkeypatch.setattr(sid_codec, "unpack_all", counting_unpack_all)
    assert run("decode", "--sids", sids, "--config", cfg, "--ckpt", ckpt,
               "--dims", 8, "--out", tmp_path / "rec") == 0
    assert unpacked == [64]


def test_sid_file_reads_back_through_the_bench_reader(tmp_path, corpus,
                                                      monkeypatch):
    """The benchmark parses SID files with its own reader
    (bench/checks.py), loaded here without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location(
        "bench_checks", os.path.join(ROOT, "bench", "checks.py"))
    checks = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(checks)
    cfg = config(tmp_path, "rq")
    ckpt, sids = tmp_path / "q.ckpt", tmp_path / "x.sid"
    assert run("train", "--corpus", corpus, "--config", cfg,
               "--out", ckpt) == 0
    assert run("encode", "--corpus", corpus, "--config", cfg, "--ckpt", ckpt,
               "--out", sids) == 0
    scheme, records = read_sid_file(sids)
    base, ngram, grams, bench_records = checks.read_sid_file(sids)
    assert (base, ngram, grams) == (scheme.base, scheme.ngram, scheme.grams)
    assert bench_records.dtype == records.dtype
    np.testing.assert_array_equal(bench_records, records)


@pytest.mark.parametrize("kind", ["kmeans", "rq", "pq", "fsq"])
def test_history_is_refused_for_classical_kinds(tmp_path, corpus, kind,
                                                capsys):
    ckpt, history = tmp_path / "q.ckpt", tmp_path / "h.csv"
    code = run("train", "--corpus", corpus, "--config", config(tmp_path, kind),
               "--history", history, "--out", ckpt)
    if kind == "fsq":  # one CSV row per epoch
        assert code == 0 and ckpt.exists()
        lines = history.read_text().splitlines()
        assert lines[0].startswith("epoch,") and len(lines) == 1 + 2
        return
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --history ") and kind in err
    assert not ckpt.exists() and not history.exists()


@pytest.mark.parametrize("kind, header", [
    ("fsq", "epoch,recon.sig0,recon.sig1,total"),
    ("dpca", "epoch,recon.sig0,recon.sig1,commitment,codebook,total")])
def test_history_csv_holds_the_rows_training_returns(tmp_path, corpus, kind,
                                                     header):
    """One CSV line per epoch, `\r\n`-ended: the epoch, then fit's terms in
    fit's order, each value as str gives it."""
    other = tmp_path / "y.emb"
    assert run("gen-corpus", "--rows", 64, "--dim", 5, "--clusters", 3,
               "--seed", 2, "--out", other) == 0
    cfg, history = config(tmp_path, kind), tmp_path / "h.csv"
    assert run("train", "--corpus", corpus, "--corpus", other, "--config",
               cfg, "--history", history, "--out", tmp_path / "q.ckpt") == 0
    pipeline = cli.load_config(cfg)
    bundle, dims = cli._load_bundle(pipeline, [corpus, other])
    rows, _ = fv.train(cli._build_fusion(pipeline, dims), bundle,
                       pipeline.fit_config())
    assert [list(row) for row in rows] == [header.split(",")] * 2
    lines = [header] + [",".join(str(v) for v in row.values()) for row in rows]
    assert history.read_bytes() == "".join(
        f"{line}\r\n" for line in lines).encode()


@pytest.mark.parametrize("kind", ["rq", "fsq"])
def test_zero_row_corpus_round_trips(tmp_path, corpus, kind, capsys):
    cfg = config(tmp_path, kind)
    empty, ckpt = tmp_path / "empty.emb", tmp_path / "q.ckpt"
    sids, out = tmp_path / "e.sid", tmp_path / "rec"
    corpus_write(empty, np.zeros((0, 8), dtype=np.float32))
    assert run("train", "--corpus", corpus, "--config", cfg,
               "--out", ckpt) == 0
    assert run("encode", "--corpus", empty, "--config", cfg, "--ckpt", ckpt,
               "--out", sids) == 0
    scheme, records = read_sid_file(sids)
    assert sids.read_text() == scheme.header() + "\n"
    assert records.shape == (0, scheme.grams)
    assert run("decode", "--sids", sids, "--config", cfg, "--ckpt", ckpt,
               "--dims", 8, "--out", out) == 0
    assert corpus_read(f"{out}.sig0.emb").shape == (0, 8)
    capsys.readouterr()
    assert run("eval-recon", "--original", empty, "--reconstruction",
               f"{out}.sig0.emb", "--json") == 1
    assert capsys.readouterr() == ("", "error: need at least one row\n")


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_fusion_training_on_zero_rows_is_an_error(tmp_path, capsys, command):
    empty = tmp_path / "empty.emb"
    corpus_write(empty, np.zeros((0, 8), dtype=np.float32))
    outputs = {"train": ("--history", tmp_path / "h.csv",
                         "--out", tmp_path / "q.ckpt"), "sweep": ()}
    assert run(command, "--corpus", empty, "--config",
               config(tmp_path, "fsq"), *outputs[command]) == 1
    assert capsys.readouterr() == ("", "error: no rows to train on\n")
    assert not (tmp_path / "q.ckpt").exists()
    assert not (tmp_path / "h.csv").exists()


def test_divergence_in_the_first_epoch_is_an_error(tmp_path, corpus, capsys):
    cfg = tmp_path / "wild.cfg"
    cfg.write_text(f"quantizer=fsq\n{CONFIGS['fsq']}\nlr=1e30\n")
    with np.errstate(over="ignore"):
        assert run("train", "--corpus", corpus, "--config", cfg,
                   "--out", tmp_path / "q.ckpt") == 1
    assert capsys.readouterr().err.startswith(
        "error: diverged in epoch 0: node ")
    assert not (tmp_path / "q.ckpt").exists()


@pytest.mark.parametrize("epochs", [1, 3])
def test_an_epoch_ending_in_non_finite_parameters_is_an_error(
        tmp_path, corpus, capsys, epochs):
    # one batch per epoch, and an lr that is finite but overflows float32:
    # the epoch's one step makes every parameter non-finite, and no
    # forward pass follows it to see that
    cfg = tmp_path / "wild.cfg"
    cfg.write_text(f"quantizer=fsq\nlatent=4\nhidden=8\nepochs={epochs}\n"
                   "batch_size=64\nlr=1e39\n")
    with np.errstate(over="ignore"):
        assert run("train", "--corpus", corpus, "--config", cfg,
                   "--out", tmp_path / "q.ckpt") == 1
    assert capsys.readouterr() == ("", (
        "error: diverged in epoch 0: node 'enc.sig0.w1': non-finite "
        "parameter at epoch end\n"))
    assert not (tmp_path / "q.ckpt").exists()


def test_divergence_prints_only_the_error_line(tmp_path, corpus):
    # a fresh process, so numpy's warnings reach stderr as a user sees them
    cfg = tmp_path / "wild.cfg"
    cfg.write_text(f"quantizer=fsq\n{CONFIGS['fsq']}\nlr=1e30\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "sidekit.cli", "train", "--corpus", str(corpus),
         "--config", str(cfg), "--out", str(tmp_path / "q.ckpt")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "error: diverged in epoch 0: node "), proc.stderr


@pytest.mark.parametrize("dims", [None, "8,a"])
def test_fusion_decode_names_missing_dims(tmp_path, corpus, capsys, dims):
    cfg = config(tmp_path, "fsq")
    ckpt, sids = tmp_path / "q.ckpt", tmp_path / "x.sid"
    assert run("train", "--corpus", corpus, "--config", cfg,
               "--out", ckpt) == 0
    assert run("encode", "--corpus", corpus, "--config", cfg, "--ckpt", ckpt,
               "--out", sids) == 0
    capsys.readouterr()
    extra = () if dims is None else ("--dims", dims)
    assert run("decode", "--sids", sids, "--config", cfg, "--ckpt", ckpt,
               *extra, "--out", tmp_path / "rec") == 1
    assert "needs --dims" in capsys.readouterr().err


def test_identity_quantizer_fails_at_encode(tmp_path, corpus, capsys):
    cfg = config(tmp_path, "none")
    ckpt = tmp_path / "q.ckpt"
    assert run("train", "--corpus", corpus, "--config", cfg,
               "--out", ckpt) == 0
    assert run("encode", "--corpus", corpus, "--config", cfg, "--ckpt", ckpt,
               "--out", tmp_path / "x.sid") == 1
    assert "no codes" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["kmeans", "rq", "pq"])
@pytest.mark.parametrize("command", ["train", "encode"])
def test_kmeans_kinds_take_one_corpus(tmp_path, corpus, capsys, kind,
                                      command):
    # the second corpus has another row count and is never read
    cfg, ckpt, out = config(tmp_path, kind), tmp_path / "q.ckpt", tmp_path / "o"
    other = tmp_path / "y.emb"
    assert run("gen-corpus", "--rows", 32, "--dim", 8, "--out", other) == 0
    assert run("train", "--corpus", corpus, "--config", cfg,
               "--out", ckpt) == 0
    capsys.readouterr()
    extra = ("--ckpt", ckpt) if command == "encode" else ()
    reads = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "corpus_read", lambda path: reads.append(path))
        assert run(command, "--corpus", corpus, "--corpus", other,
                   "--config", cfg, *extra, "--out", out) == 1
    assert reads == []
    assert capsys.readouterr().err == f"error: {kind} takes one corpus, got 2\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["kmeans", "rq", "pq"])
@pytest.mark.parametrize("command", ["train", "encode"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kmeans_kinds_name_a_non_finite_row(tmp_path, corpus, capsys, kind,
                                            command, bad):
    cfg, ckpt, out = config(tmp_path, kind), tmp_path / "q.ckpt", tmp_path / "o"
    assert run("train", "--corpus", corpus, "--config", cfg,
               "--out", ckpt) == 0
    x = corpus_read(corpus)
    x[[9, 40], 3] = bad
    poisoned = tmp_path / "bad.emb"
    corpus_write(poisoned, x)
    capsys.readouterr()
    extra = ("--ckpt", ckpt) if command == "encode" else ()
    assert run(command, "--corpus", poisoned, "--config", cfg, *extra,
               "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: non-finite row 9 in {poisoned}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_a_non_finite_dpca_component_is_an_error(tmp_path, corpus, capsys,
                                                 command):
    cfg, ckpt, sids = config(tmp_path, "dpca"), tmp_path / "q.ckpt", \
        tmp_path / "x.sid"
    assert run("train", "--corpus", corpus, "--config", cfg,
               "--out", ckpt) == 0
    assert run("encode", "--corpus", corpus, "--config", cfg, "--ckpt", ckpt,
               "--out", sids) == 0
    arrays = load_checkpoint(ckpt)
    arrays["dpca.g1.d0.u"][0, 1] = np.nan
    save_checkpoint(ckpt, arrays)
    capsys.readouterr()
    if command == "encode":
        argv = ("--corpus", corpus, "--out", tmp_path / "y.sid")
    else:
        argv = ("--sids", sids, "--dims", 8, "--out", tmp_path / "rec")
    assert run(command, "--config", cfg, "--ckpt", ckpt, *argv) == 1
    assert capsys.readouterr().err == "error: non-finite component vector\n"


def test_kmeans_config_rejects_a_fusion_checkpoint(tmp_path, corpus, capsys):
    ckpt = tmp_path / "q.ckpt"
    assert run("train", "--corpus", corpus, "--config",
               config(tmp_path, "fsq"), "--out", ckpt) == 0
    assert run("encode", "--corpus", corpus, "--config",
               config(tmp_path, "kmeans"), "--ckpt", ckpt,
               "--out", tmp_path / "x.sid") == 1
    assert "no k-means codebooks" in capsys.readouterr().err


@pytest.mark.parametrize("body, unknown", [
    ("quantizer=fsq\nlatent=4\nhidden=8", "dpca.g0.d0.u"),
    ("quantizer=dpca\nlatent=4\nhidden=8\ndepth=1\ngroups=2", "dpca.g0.d1.u")])
def test_fusion_encode_rejects_parameters_the_config_lacks(tmp_path, corpus,
                                                           capsys, body,
                                                           unknown):
    # a depth-2, 2-group DPCA checkpoint under an fsq or a depth-1 config
    ckpt, sids = tmp_path / "q.ckpt", tmp_path / "x.sid"
    assert run("train", "--corpus", corpus, "--config",
               config(tmp_path, "dpca"), "--out", ckpt) == 0
    other = tmp_path / "other.cfg"
    other.write_text(body + "\n")
    capsys.readouterr()
    assert run("encode", "--corpus", corpus, "--config", other,
               "--ckpt", ckpt, "--out", sids) == 1
    assert capsys.readouterr().err == (
        f"error: checkpoint parameter '{unknown}' is not in the spec\n")
    assert not sids.exists()


@pytest.mark.parametrize("kind, body, need", [("rq", "levels=4\ndepth=3", 3),
                                              ("kmeans", "levels=4", 1)])
def test_codebook_count_must_match_config(tmp_path, corpus, capsys, kind,
                                          body, need):
    trained = config(tmp_path, "rq")  # depth=2: two codebooks
    ckpt, sids = tmp_path / "q.ckpt", tmp_path / "x.sid"
    assert run("train", "--corpus", corpus, "--config", trained,
               "--out", ckpt) == 0
    assert run("encode", "--corpus", corpus, "--config", trained,
               "--ckpt", ckpt, "--out", sids) == 0
    other = tmp_path / "other.cfg"
    other.write_text(f"quantizer={kind}\n{body}\n")
    capsys.readouterr()
    assert run("encode", "--corpus", corpus, "--config", other, "--ckpt", ckpt,
               "--out", tmp_path / "y.sid") == 1
    err = capsys.readouterr().err
    assert "holds 2 k-means codebooks" in err and f"needs {need}" in err
    assert run("decode", "--sids", sids, "--config", other, "--ckpt", ckpt,
               "--out", tmp_path / "rec") == 1
    assert f"needs {need}" in capsys.readouterr().err


@pytest.mark.parametrize("sid_levels, ckpt_levels", [(16, 4), (4, 16)])
def test_decode_rejects_a_sid_base_other_than_k(tmp_path, corpus, capsys,
                                                sid_levels, ckpt_levels):
    paths = {}
    for levels in (sid_levels, ckpt_levels):
        cfg = tmp_path / f"rq{levels}.cfg"
        cfg.write_text(f"quantizer=rq\nlevels={levels}\ndepth=2\n")
        ckpt, sids = tmp_path / f"{levels}.ckpt", tmp_path / f"{levels}.sid"
        assert run("train", "--corpus", corpus, "--config", cfg,
                   "--out", ckpt) == 0
        assert run("encode", "--corpus", corpus, "--config", cfg,
                   "--ckpt", ckpt, "--out", sids) == 0
        paths[levels] = cfg, ckpt, sids
    capsys.readouterr()
    cfg, ckpt, _ = paths[ckpt_levels]
    assert run("decode", "--sids", paths[sid_levels][2], "--config", cfg,
               "--ckpt", ckpt, "--out", tmp_path / "rec") == 1
    err = capsys.readouterr().err
    assert f"holds base-{sid_levels} SIDs" in err
    assert f"needs base {ckpt_levels} and 2 digits" in err
    assert not (tmp_path / "rec.sig0.emb").exists()


FUSION = "hidden=8\nepochs=1\nbatch_size=32"


@pytest.mark.parametrize("sid_body, body, message", [
    ("quantizer=fsq\nlevels=5\nlatent=4", "quantizer=fsq\nlevels=3\nlatent=4",
     "x.sid holds base-5 SIDs of 6 digits, the fsq model of {cfg} needs "
     "base 3 and 4 digits"),
    ("quantizer=fsq\nlevels=5\nlatent=4",
     "quantizer=dpca\nlatent=4\ndepth=2\ngroups=2",
     "x.sid holds base-5 SIDs of 6 digits, the dpca model of {cfg} needs "
     "base 3 and 4 digits"),
    ("quantizer=fsq\nlatent=3", "quantizer=fsq\nlatent=6",
     "x.sid holds base-3 SIDs of 3 digits, the fsq model of {cfg} needs "
     "base 3 and 6 digits")],
    ids=["fsq-levels", "dpca", "fewer-digits"])
def test_fusion_decode_checks_the_sid_file_against_the_config(
        tmp_path, corpus, capsys, sid_body, body, message):
    written, cfg = tmp_path / "written.cfg", tmp_path / "decode.cfg"
    written.write_text(f"{sid_body}\n{FUSION}\n")
    cfg.write_text(f"{body}\n{FUSION}\n")
    sids, ckpt = tmp_path / "x.sid", tmp_path / "decode.ckpt"
    assert run("train", "--corpus", corpus, "--config", written,
               "--out", tmp_path / "written.ckpt") == 0
    assert run("encode", "--corpus", corpus, "--config", written,
               "--ckpt", tmp_path / "written.ckpt", "--out", sids) == 0
    assert run("train", "--corpus", corpus, "--config", cfg,
               "--out", ckpt) == 0
    capsys.readouterr()
    assert run("decode", "--sids", sids, "--config", cfg, "--ckpt", ckpt,
               "--dims", 8, "--out", tmp_path / "rec") == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path}/{message.format(cfg=cfg)}\n"
    assert not (tmp_path / "rec.sig0.emb").exists()


@pytest.mark.parametrize("kind, written, body, need", [
    ("rq", "levels=8\ndepth=3", "levels=8\ndepth=2", 2),
    ("fsq", f"latent=6\n{FUSION}", f"latent=4\n{FUSION}", 4)],
    ids=["rq", "fsq"])
def test_decode_rejects_digits_the_model_does_not_decode(
        tmp_path, corpus, capsys, kind, written, body, need):
    """Every SID holds enough digits, but some hold a nonzero digit past
    the model's last; decoding them would drop it without a word."""
    paths = {}
    for name, text in (("written", written), ("decode", body)):
        cfg, ckpt = tmp_path / f"{name}.cfg", tmp_path / f"{name}.ckpt"
        cfg.write_text(f"quantizer={kind}\n{text}\n")
        assert run("train", "--corpus", corpus, "--config", cfg,
                   "--out", ckpt) == 0
        paths[name] = cfg, ckpt
    sids = tmp_path / "x.sid"
    assert run("encode", "--corpus", corpus, "--config", paths["written"][0],
               "--ckpt", paths["written"][1], "--out", sids) == 0
    scheme, records = read_sid_file(sids)
    row = int(np.flatnonzero(
        sid_codec.unpack_all(scheme, records)[:, need:].any(axis=1))[0])
    cfg, ckpt = paths["decode"]
    capsys.readouterr()
    assert run("decode", "--sids", sids, "--config", cfg, "--ckpt", ckpt,
               "--dims", 8, "--out", tmp_path / "rec") == 1
    assert capsys.readouterr().err == (
        f"error: {sids} line {row + 2}: a nonzero digit after the {need} "
        f"that the {kind} model of {cfg} decodes\n")
    assert not (tmp_path / "rec.sig0.emb").exists()


@pytest.mark.parametrize("levels", [16, 2])
def test_encode_rejects_levels_other_than_k(tmp_path, corpus, capsys, levels):
    trained = tmp_path / "rq4.cfg"
    trained.write_text("quantizer=rq\nlevels=4\ndepth=2\n")
    ckpt, sids = tmp_path / "q.ckpt", tmp_path / "x.sid"
    assert run("train", "--corpus", corpus, "--config", trained,
               "--out", ckpt) == 0
    other = tmp_path / "other.cfg"
    other.write_text(f"quantizer=rq\nlevels={levels}\ndepth=2\n")
    capsys.readouterr()
    assert run("encode", "--corpus", corpus, "--config", other,
               "--ckpt", ckpt, "--out", sids) == 1
    err = capsys.readouterr().err
    assert f"levels={levels}" in err and "k=4" in err
    assert not sids.exists()


def test_decode_rejects_levels_other_than_k(tmp_path, corpus, capsys):
    trained = tmp_path / "rq4.cfg"
    trained.write_text("quantizer=rq\nlevels=4\ndepth=2\n")
    ckpt, sids = tmp_path / "q.ckpt", tmp_path / "x.sid"
    assert run("train", "--corpus", corpus, "--config", trained,
               "--out", ckpt) == 0
    assert run("encode", "--corpus", corpus, "--config", trained,
               "--ckpt", ckpt, "--out", sids) == 0
    other = tmp_path / "other.cfg"
    other.write_text("quantizer=rq\nlevels=16\ndepth=2\n")
    capsys.readouterr()
    assert run("decode", "--sids", sids, "--config", other, "--ckpt", ckpt,
               "--out", tmp_path / "rec") == 1
    assert capsys.readouterr().err == (
        f"error: the rq config sets levels=16, the codebooks in {ckpt} have "
        f"k=4 centroids\n")
    assert not (tmp_path / "rec.sig0.emb").exists()


def test_encode_refuses_a_huge_ngram_at_once(tmp_path, corpus, capsys):
    cfg = config(tmp_path, "kmeans")
    ckpt, sids = tmp_path / "q.ckpt", tmp_path / "x.sid"
    assert run("train", "--corpus", corpus, "--config", cfg,
               "--out", ckpt) == 0
    huge = tmp_path / "huge.cfg"
    huge.write_text(f"quantizer=kmeans\nlevels=4\nngram={10**12}\n")
    capsys.readouterr()
    start = time.perf_counter()
    assert run("encode", "--corpus", corpus, "--config", huge,
               "--ckpt", ckpt, "--out", sids) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith(
        f"error: scheme overflows u64: base=4 ngram={10**12} ")
    assert not sids.exists()


@pytest.mark.parametrize("kind, grid", [("fsq", ("--levels", "3,5")),
                                        ("dpca", ("--depths", "1,2"))])
def test_sweep_trains_once_per_grid_point_for_all_ngrams(
        tmp_path, corpus, capsys, monkeypatch, kind, grid):
    train, trained = fv.train, []

    def counted(*args):
        trained.append(args)
        return train(*args)

    monkeypatch.setattr(fv, "train", counted)
    assert run("sweep", "--corpus", corpus, "--config",
               config(tmp_path, kind), *grid, "--ngrams", "2,3") == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "quantizer,L,D,P,n,bits,sids_per_item,loss.sig0"
    rows = [line.split(",") for line in lines]
    assert len(rows) == 4 and len(trained) == 2
    assert [row[4] for row in rows] == ["2", "3", "2", "3"]
    for n2, n3 in (rows[0], rows[1]), (rows[2], rows[3]):
        assert n2[:4] == n3[:4] and n2[-1] == n3[-1]


def test_sweep_warns_when_a_grid_point_rolls_back(tmp_path, corpus, capsys,
                                                  monkeypatch):
    loss, steps = fv.fusion_loss, []

    def poisoned(model, batch, result):
        total, terms = loss(model, batch, result)
        steps.append(model.spec.levels)
        # 64 rows in batches of 32: the third L=5 step opens epoch 1
        if steps.count(5) == 3:
            total = nn.scale(total, float("nan"))
        return total, terms

    monkeypatch.setattr(fv, "fusion_loss", poisoned)
    assert run("sweep", "--corpus", corpus, "--config",
               config(tmp_path, "fsq"), "--levels", "3,5") == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: fsq training at L=5 D=1 P=1 diverged "
                            "at epoch 1; kept last good checkpoint\n")
    header, *lines = captured.out.splitlines()
    assert header == "quantizer,L,D,P,n,bits,sids_per_item,loss.sig0"
    assert [line.split(",")[1] for line in lines] == ["3", "5"]


def test_sweep_reports_no_code_size_for_the_identity_quantizer(
        tmp_path, corpus, capsys):
    assert run("sweep", "--corpus", corpus, "--config",
               config(tmp_path, "none"), "--ngrams", "2,3") == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "quantizer,L,D,P,n,bits,sids_per_item,loss.sig0"
    rows = [line.split(",") for line in lines]
    assert [row[:7] for row in rows] == [["none", "3", "1", "1", n, "", ""]
                                         for n in ("2", "3")]


@pytest.mark.parametrize("flag", ["--levels", "--depths", "--groups",
                                  "--ngrams"])
def test_sweep_malformed_list_names_its_flag(tmp_path, corpus, capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        run("sweep", "--corpus", corpus, "--config", config(tmp_path, "fsq"),
            flag, "3,a")
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: invalid" in captured.err and "'3,a'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, value, least", [
    ("--ngrams", "0", 1), ("--ngrams", "2,0", 1), ("--depths", "0", 1),
    ("--groups", "1,-1", 1), ("--levels", "1", 2)])
def test_sweep_value_below_its_least_names_its_flag(
        tmp_path, corpus, capsys, monkeypatch, flag, value, least):
    monkeypatch.setattr(fv, "train", None)  # rejected before any training
    assert run("sweep", "--corpus", corpus, "--config",
               config(tmp_path, "fsq"), flag, value) == 1
    captured = capsys.readouterr()
    bad = value.split(",")[-1]
    assert captured.err == f"error: {flag} must be >= {least}, got {bad}\n"
    assert captured.out == ""


def test_sweep_rejects_classical_quantizers(tmp_path, corpus, capsys):
    assert run("sweep", "--corpus", corpus, "--config",
               config(tmp_path, "rq"), "--depths", "1,2") == 1
    assert "fusion models only" in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    (("--depths", "1,2"), "depth only applies to rq/dpca, got 2"),
    (("--groups", "1,2"), "groups only applies to pq/dpca, got 2"),
    (("--levels", "3,5"), "none quantizes nothing; levels must be 3")])
def test_sweep_rejects_a_grid_the_identity_quantizer_ignores(
        tmp_path, corpus, capsys, monkeypatch, grid, message):
    monkeypatch.setattr(fv, "train", None)  # rejected before any training
    assert run("sweep", "--corpus", corpus, "--config",
               config(tmp_path, "none"), *grid) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_bad_config_value_names_its_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("quantizer=fsq\n# levels next\nlevels=abc\nlr=0.5\n")
    with pytest.raises(cli.PipelineError, match=r"bad\.cfg:3: levels"):
        cli.load_config(path)
    path.write_text("lr=0.5\nlatent=7\n")
    cfg = cli.load_config(path)
    assert (cfg.lr, cfg.latent) == (0.5, 7)
    assert type(cfg.latent) is int and type(cfg.lr) is float


@pytest.mark.parametrize("kind, line, message", [
    ("kmeans", "levels=1", "levels must be >= 2, got 1"),
    ("rq", "depth=0", "depth must be >= 1, got 0"),
    ("pq", "groups=0", "groups must be >= 1, got 0"),
    ("dpca", "groups=0", "groups must be >= 1, got 0"),
    ("fsq", "latent=0", "latent must be >= 1, got 0"),
    ("fsq", "hidden=0", "hidden must be >= 1, got 0"),
    ("fsq", "ngram=0", "ngram must be >= 1, got 0"),
    ("fsq", "batch_size=-5", "batch_size must be >= 1, got -5"),
    ("fsq", "epochs=0", "epochs must be >= 1, got 0"),
    ("rq", "kmeans_iters=0", "kmeans_iters must be >= 1, got 0"),
    ("fsq", "lr=0", "lr must be > 0, got 0.0"),
    ("fsq", "lr=nan", "lr must be > 0, got nan"),
    ("fsq", "epochs=1\nlr=inf", "lr must be finite, got inf"),
    ("fsq", "epochs=3\nlr=inf", "lr must be finite, got inf"),
    ("fsq", "seed=-3", "seed must be >= 0, got -3")])
def test_config_rejects_sizes_below_one(tmp_path, corpus, capsys, kind, line,
                                        message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"quantizer={kind}\n{line}\n")
    assert run("train", "--corpus", corpus, "--config", cfg,
               "--out", tmp_path / "q.ckpt") == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "q.ckpt").exists()


@pytest.mark.parametrize("kind, line, message", [
    ("fsq", "depth=2", "depth only applies to rq/dpca, got 2"),
    ("fsq", "groups=2", "groups only applies to pq/dpca, got 2"),
    ("dpca", "levels=5", "dpca uses the ternary codebook; levels must be 3"),
    ("none", "depth=4", "depth only applies to rq/dpca, got 4"),
    ("none", "groups=2", "groups only applies to pq/dpca, got 2"),
    ("none", "levels=7", "none quantizes nothing; levels must be 3")])
def test_config_rejects_settings_its_quantizer_ignores(
        tmp_path, corpus, capsys, kind, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"quantizer={kind}\n{line}\n")
    assert run("train", "--corpus", corpus, "--config", cfg,
               "--out", tmp_path / "q.ckpt") == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "q.ckpt").exists()


ENGAGEMENT = ("--users", 300, "--items", 60, "--seq-len", 6, "--seed", 2)


@pytest.fixture
def engagement(tmp_path):
    """rank-ab's --data and --seed arguments: the gen-engagement file of
    ENGAGEMENT and its seed."""
    path = tmp_path / "eng.npz"
    assert run("gen-engagement", *ENGAGEMENT, "--out", path) == 0
    return "--data", path, "--seed", 2


def test_engagement_file_is_written_to_the_path_given(tmp_path, capsys):
    path = tmp_path / "eng"  # no .npz is added
    assert run("gen-engagement", *ENGAGEMENT, "--out", path) == 0
    assert capsys.readouterr().out.endswith(f"to {path}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eng"]
    assert run("rank-ab", "--data", path, "--epochs", 1, "--json") == 0
    assert json.loads(capsys.readouterr().out)["none"]["ne"]["n"] == 60


def test_rank_ab_needs_a_data_file(capsys):
    with pytest.raises(SystemExit) as info:
        run("rank-ab", "--epochs", 1, "--json")
    assert info.value.code == 2
    assert "--data" in capsys.readouterr().err


def test_rank_ab_reports_the_feature_rows_trained(capsys, engagement):
    capsys.readouterr()
    assert run("rank-ab", *engagement, "--epochs", 1, "--hash-size", 61,
               "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"none", "sid", "side", "hash_size"}
    assert report["none"]["feature_rows_trained"] is None
    assert report["side"]["feature_rows_trained"] is None
    # at most 2 grams x 61 rows, and at most one row per item and gram
    assert 0 < report["sid"]["feature_rows_trained"] <= 2 * 60


@pytest.mark.parametrize("size", [0, -4])
def test_rank_ab_rejects_hash_size_below_one(capsys, engagement, size):
    capsys.readouterr()
    assert run("rank-ab", *engagement, "--epochs", 1, "--hash-size", size,
               "--json") == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --hash-size must be >= 1, got {size}\n"
    assert captured.out == ""


def test_rank_ab_rejects_hash_size_above_the_collision_free_size(
        monkeypatch, capsys, engagement):
    # the engagement file's SIDs reach 19,681 rows per gram
    import multiprocessing

    def forbidden(*args, **kwargs):
        raise AssertionError("trained or forked before checking hash_size")

    monkeypatch.setenv("SIDEKIT_THREADS", "2")
    monkeypatch.setattr(rk, "_fit_ranker", forbidden)
    monkeypatch.setattr(multiprocessing, "get_context", forbidden)
    capsys.readouterr()
    assert run("rank-ab", *engagement, "--hash-size", 19682, "--json") == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: hash_size 19682 exceeds the data's "
                            "collision-free size 19681; no SID hashes to a "
                            "row past it\n")
    assert captured.out == ""


@pytest.mark.parametrize("command, flag, value, least", [
    ("rank-ab", "--epochs", "0", ">= 1"),
    ("rank-ab", "--feature-dim", "0", ">= 1"),
    ("rank-ab", "--lr", "nan", "> 0"),
    ("rank-ab", "--lr", "0.0", "> 0"),
    ("rank-ab", "--lr", "inf", "finite"),
    ("rank-ab", "--seed", "-1", ">= 0"),
    ("gen-engagement", "--seed", "-2", ">= 0"),
    ("eval-recall", "--seed", "-1", ">= 0"),
    ("gen-corpus", "--seed", "-1", ">= 0"),
    ("gen-engagement", "--users", "0", ">= 1"),
    ("gen-engagement", "--items", "0", ">= 1"),
    ("gen-engagement", "--seq-len", "0", ">= 1"),
    ("eval-recall", "--queries", "0", ">= 1"),
    ("eval-recall", "--ks", "0", ">= 1"),
    ("eval-recall", "--ks", "5,0,20", ">= 1"),
    ("gen-corpus", "--rows", "0", ">= 1"),
    ("gen-corpus", "--rows", "-5", ">= 1"),
    ("gen-corpus", "--dim", "0", ">= 1"),
    ("gen-corpus", "--clusters", "0", ">= 1"),
    ("gen-corpus", "--noise", "nan", "finite"),
    ("gen-corpus", "--noise", "inf", "finite")])
def test_flags_reject_values_below_their_least(tmp_path, corpus, capsys,
                                               command, flag, value, least):
    out = tmp_path / "out.npz"
    args = {"rank-ab": ("--data", out, "--json"),
            "gen-engagement": ("--out", out),
            "eval-recall": ("--corpus", corpus, "--candidates", corpus),
            "gen-corpus": ("--rows", 10, "--dim", 8, "--out", out)}
    assert run(command, *args[command], flag, value) == 1
    captured = capsys.readouterr()
    bad = "0" if flag == "--ks" else value
    assert captured.err == f"error: {flag} must be {least}, got {bad}\n"
    assert captured.out == "" and not out.exists()


def test_rank_ab_uses_the_hash_size_given(capsys, engagement):
    capsys.readouterr()
    assert run("rank-ab", *engagement, "--epochs", 1, "--hash-size", 1,
               "--json") == 0
    assert json.loads(capsys.readouterr().out)["hash_size"] == 1


def test_rank_ab_json_is_byte_identical_in_worker_processes(monkeypatch,
                                                           capsys, engagement):
    capsys.readouterr()
    outputs = []
    for threads in (1, 2, 3):
        monkeypatch.setenv("SIDEKIT_THREADS", str(threads))
        assert run("rank-ab", *engagement, "--epochs", 2, "--json") == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out and outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("threads", ["abc", "1.5"])
def test_rank_ab_names_a_sidekit_threads_that_is_no_integer(
        monkeypatch, capsys, engagement, threads):
    capsys.readouterr()
    monkeypatch.setenv("SIDEKIT_THREADS", threads)
    assert run("rank-ab", *engagement, "--epochs", 1, "--json") == 1
    assert capsys.readouterr() == ("", (
        f"error: SIDEKIT_THREADS must be an integer, got '{threads}'\n"))


def _flip_a_byte_at_a_third(raw):
    out = bytearray(raw)
    out[len(raw) // 3] ^= 0xFF
    return bytes(out)


def _flip_first_digit(digits):
    out = digits.copy()
    out[0, 0] = 1 if out[0, 0] != 1 else -1
    return out


@pytest.mark.parametrize("key, corrupt, message", [
    ("item_digits", lambda a: a[:, :12],  # the SIDs still pack 16 digits
     "item_digits has shape (60, 12), expected (60, 16)"),
    ("history", lambda a: a[:, :5],
     "history has shape (300, 5), expected (300, 6)"),
    ("labels", lambda a: a[:-1], "labels has shape (299,), expected (300,)"),
    ("candidates", lambda a: np.concatenate([[60], a[1:]]),
     "history/candidates: id outside [0, 60)"),
    ("item_sids", lambda a: a + np.uint64(1),
     "item_sids: SID not divisible by the base"),
    ("item_digits", _flip_first_digit, "item_sids do not unpack to item_digits"),
    ("segments", None, "lacks segments"),
    ("users", lambda a: np.array([300, 1]),
     "users has shape (2,) and dtype int64, expected one integer"),
    ("history", lambda a: a.astype(np.float64),
     "history has dtype float64, expected integers"),
    ("labels", lambda a: a * 2, "labels: label outside {0, 1}"),
    ("segments", lambda a: a + 100, "segments: id outside [0, 16)"),
    # no key: the edit is of the file's bytes
    (None, lambda raw: raw[:len(raw) // 12],
     "bad.npz: File is not a zip file"),
    (None, _flip_a_byte_at_a_third,
     "bad.npz: Bad CRC-32 for file 'history.npy'"),
    (None, lambda raw: b"garbage", "bad.npz: File is not a zip file"),
], ids=["digits-cut", "history-cut", "labels-short", "candidate-id",
        "sids-unpacked", "digits-flipped", "segments-missing", "users-array",
        "history-float", "labels-doubled", "segments-shifted", "file-cut",
        "byte-flipped", "not-a-zip"])
def test_rank_ab_rejects_an_inconsistent_data_file(tmp_path, capsys, key,
                                                   corrupt, message):
    data, bad = tmp_path / "eng.npz", tmp_path / "bad.npz"
    assert run("gen-engagement", *ENGAGEMENT, "--out", data) == 0
    if key is None:
        bad.write_bytes(corrupt(data.read_bytes()))
    else:
        with np.load(data) as loaded:
            arrays = dict(loaded)
        if corrupt is None:
            del arrays[key]
        else:
            arrays[key] = corrupt(arrays[key])
        np.savez(bad, **arrays)
    capsys.readouterr()
    assert run("rank-ab", "--data", bad, "--epochs", 1, "--json") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_rank_ab_warns_when_a_ranker_rolls_back(monkeypatch, capsys,
                                                engagement):
    logits = rk.ToyRankingModel.logits
    calls = []

    def poisoned(self, rows):
        # 240 training rows make one batch per epoch: epoch 1 of "none"
        # goes NaN. Counted per variant, as arms may train in separate
        # worker processes, each with its own copy of `calls`.
        calls.append(self.variant)
        if self.variant == "none" and calls.count("none") == 2:
            self.params.get("head.w")[0, 0] = np.nan
        return logits(self, rows)

    monkeypatch.setattr(rk.ToyRankingModel, "logits", poisoned)
    capsys.readouterr()
    assert run("rank-ab", *engagement, "--epochs", 2, "--json") == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["none"]["ne"]["n"] == 60
    assert captured.err == ("warning: none ranker training diverged at "
                            "epoch 1; kept last good checkpoint\n")


def test_eval_recall_is_a_monotone_fraction(tmp_path, corpus, capsys):
    cands = tmp_path / "c.emb"
    assert run("gen-corpus", "--rows", 64, "--dim", 8, "--clusters", 5,
               "--noise", 0.3, "--seed", 1, "--out", cands) == 0
    capsys.readouterr()
    assert run("eval-recall", "--corpus", corpus, "--candidates", cands,
               "--queries", 16, "--depth", 5, "--ks", "5,10,20",
               "--json") == 0
    report = json.loads(capsys.readouterr().out)
    recalls = [report[f"recall@{k}"] for k in (5, 10, 20)]
    assert all(0.0 <= r <= 1.0 for r in recalls)
    assert recalls == sorted(recalls)
    assert (report["queries"], report["corpus"]) == (16, 64)


@pytest.mark.parametrize("preds, message", [
    ("0.2 nan 0.6 0.4", "prediction nan at index 1"),
    ("0.2 1.7 0.6 -0.4", "prediction 1.7 at index 1"),
    ("0.2 0.5 0.6 -0.4", "prediction -0.4 at index 3"),
], ids=["nan", "above-one", "below-zero"])
def test_eval_ne_rejects_predictions_that_are_not_probabilities(
        tmp_path, capsys, preds, message):
    labels, predictions = tmp_path / "y.txt", tmp_path / "p.txt"
    labels.write_text("0\n1\n1\n0\n")
    predictions.write_text("".join(f"{p}\n" for p in preds.split()))
    assert run("eval-ne", "--labels", labels, "--predictions",
               predictions) == 1
    assert capsys.readouterr() == (
        "", f"error: {message} is not a probability in [0, 1]\n")


@pytest.mark.parametrize("text, message", [
    ("0.2\nx\n0.6\n", "line 2: 'x' is not a number"),
    ("# scores\n\n0.2\n0.5 0.6\n", "line 4 holds 2 values, expected one"),
    ("0.2 # one\n1_0\n", "line 2: '1_0' is not a number"),
    ("0.2\n\u0661\n", "line 2: '\u0661' is not a number"),
], ids=["not-a-number", "two-values", "underscore", "non-ascii-digit"])
def test_eval_ne_names_the_file_and_line_of_a_bad_value(
        tmp_path, capsys, text, message):
    labels, predictions = tmp_path / "y.txt", tmp_path / "p.txt"
    labels.write_text("0\n1\n1\n")
    predictions.write_text(text, encoding="utf-8")
    assert run("eval-ne", "--labels", labels, "--predictions",
               predictions) == 1
    assert capsys.readouterr() == ("", f"error: {predictions}: {message}\n")


def test_eval_ne_rejects_an_empty_file_without_warnings(tmp_path, capfd):
    labels, predictions = tmp_path / "y.txt", tmp_path / "p.txt"
    labels.write_text("0\n1\n")
    predictions.write_text("# nothing here\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("eval-ne", "--labels", labels, "--predictions",
                   predictions) == 1
    assert capfd.readouterr() == ("", f"error: {predictions} holds no values\n")


def test_eval_ne_reads_values_as_loadtxt_does(tmp_path):
    rng = np.random.default_rng(5)
    lines = [f"{v:.17g}" for v in rng.normal(size=50) * 10.0 ** rng.integers(
        -300, 300, size=50)]
    lines += ["1e-3", "  +2.5\t", "-0", "0.", ".5", "nan", "-inf",
              "Infinity", "1E+308", "5e-324", "0.1 # a comment", "",
              "# a comment line", "7\r"]
    path = tmp_path / "v.txt"
    path.write_text("\n".join(lines) + "\n")
    got = cli._read_values(path)
    want = np.loadtxt(path)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_eval_ne_matches_the_metric(tmp_path, capsys):
    rng = np.random.default_rng(3)
    labels, preds = tmp_path / "y.txt", tmp_path / "p.txt"
    np.savetxt(labels, (rng.random(200) < 0.3).astype(int), fmt="%d")
    np.savetxt(preds, rng.random(200))
    assert run("eval-ne", "--labels", labels, "--predictions", preds,
               "--json") == 0
    expect = metrics.normalized_entropy(np.loadtxt(labels), np.loadtxt(preds))
    assert json.loads(capsys.readouterr().out) == expect.as_dict()

"""CLI round trips: gen-corpus -> train -> encode -> decode -> eval-recon
for every quantizer kind, at toy sizes."""

import json

import pytest

from sidekit import cli
from sidekit.corpus_io import corpus_read
from sidekit.quantizers import load_codebooks
from sidekit.sid_codec import read_sid_file

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
        books = load_codebooks(ckpt)["kmeans"]
        assert len(books) == {"kmeans": 1, "rq": 2, "pq": 2}[kind]


def test_identity_quantizer_fails_at_encode(tmp_path, corpus, capsys):
    cfg = config(tmp_path, "none")
    ckpt = tmp_path / "q.ckpt"
    assert run("train", "--corpus", corpus, "--config", cfg,
               "--out", ckpt) == 0
    assert run("encode", "--corpus", corpus, "--config", cfg, "--ckpt", ckpt,
               "--out", tmp_path / "x.sid") == 1
    assert "no codes" in capsys.readouterr().err


def test_kmeans_config_rejects_a_fusion_checkpoint(tmp_path, corpus, capsys):
    ckpt = tmp_path / "q.ckpt"
    assert run("train", "--corpus", corpus, "--config",
               config(tmp_path, "fsq"), "--out", ckpt) == 0
    assert run("encode", "--corpus", corpus, "--config",
               config(tmp_path, "kmeans"), "--ckpt", ckpt,
               "--out", tmp_path / "x.sid") == 1
    assert "no k-means codebooks" in capsys.readouterr().err

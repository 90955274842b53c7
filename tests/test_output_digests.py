"""Every output of the CLI pipelines at a tiny size, against exact pins.

Each workload runs in process through `cli.main` on two seeds: fusion
(gen-corpus, then train, encode, decode and eval-recon for FSQ and DPCA),
retrieval (gen-corpus, then residual k-means train, encode, decode,
eval-recon and eval-recall) and ranking (gen-engagement, then rank-ab
--json). The sha256 of every file the commands write and of the rank-ab
report, and every reconstruction loss, recall and NE they print, must
equal the pins in `output_digests.json` exactly. A mismatch names the
workload, the seed and the file or value.

Float results may change with the numpy, the BLAS or the machine, so the
pins name the ones they were recorded with, and a run anywhere else
fails, naming what differs. A deliberate change of outputs re-records
them; the diff of the JSON file then shows every output that moved:

    PYTHONPATH=src python tests/test_output_digests.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest

from sidekit import cli

PINS = pathlib.Path(__file__).with_name("output_digests.json")
SEEDS = (3, 4)
FUSION_DIMS = (12, 6)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run(*argv):
    """The stdout of one command, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main([str(a) for a in argv])
    assert status == 0, argv
    return out.getvalue()


def write_config(path, **values):
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return ["--config", path]


def fusion(d, seed):
    values = {}
    for i, dim in enumerate(FUSION_DIMS):
        for part, rows in (("train", 160), ("holdout", 200)):
            run("gen-corpus", "--rows", rows, "--dim", dim, "--clusters", 6,
                "--seed", 2 * seed + i, "--out", d / f"{part}.sig{i}.emb")
    train = [a for i in range(len(FUSION_DIMS))
             for a in ("--corpus", d / f"train.sig{i}.emb")]
    holdout = [a for i in range(len(FUSION_DIMS))
               for a in ("--corpus", d / f"holdout.sig{i}.emb")]
    for q, extra in (("fsq", {}), ("dpca", dict(depth=2, groups=3))):
        cfg = write_config(d / f"{q}.cfg", quantizer=q, latent=6, hidden=16,
                           epochs=2, batch_size=64, seed=seed, **extra)
        run("train", *train, *cfg, "--out", d / f"{q}.ckpt")
        run("encode", *holdout, *cfg, "--ckpt", d / f"{q}.ckpt",
            "--out", d / f"{q}.sid")
        run("decode", "--sids", d / f"{q}.sid", *cfg, "--ckpt", d / f"{q}.ckpt",
            "--dims", ",".join(map(str, FUSION_DIMS)), "--out", d / f"{q}.recon")
        for i in range(len(FUSION_DIMS)):
            report = run("eval-recon", "--original", d / f"holdout.sig{i}.emb",
                         "--reconstruction", d / f"{q}.recon.sig{i}.emb",
                         "--json")
            values[f"recon_loss.{q}.sig{i}"] = json.loads(report)[
                "cosine_reconstruction_loss"]
    return values


def retrieval(d, seed):
    run("gen-corpus", "--rows", 300, "--dim", 16, "--clusters", 8,
        "--seed", seed, "--out", d / "corpus.emb")
    cfg = write_config(d / "rq.cfg", quantizer="rq", levels=8, depth=2,
                       kmeans_iters=3, seed=seed)
    run("train", "--corpus", d / "corpus.emb", *cfg, "--out", d / "rq.ckpt")
    run("encode", "--corpus", d / "corpus.emb", *cfg, "--ckpt", d / "rq.ckpt",
        "--out", d / "rq.sid")
    run("decode", "--sids", d / "rq.sid", *cfg, "--ckpt", d / "rq.ckpt",
        "--out", d / "rq.recon")
    recon = run("eval-recon", "--original", d / "corpus.emb",
                "--reconstruction", d / "rq.recon.sig0.emb", "--json")
    recall = run("eval-recall", "--corpus", d / "corpus.emb",
                 "--candidates", d / "rq.recon.sig0.emb", "--queries", 40,
                 "--ks", "5,10,20", "--seed", seed, "--json")
    return {"recon_loss": json.loads(recon)["cosine_reconstruction_loss"],
            **{k: v for k, v in json.loads(recall).items()
               if k.startswith("recall@")}}


def rank_ab(d, seed):
    run("gen-engagement", "--users", 600, "--items", 80, "--seq-len", 6,
        "--seed", seed, "--out", d / "engagement.npz")
    with mock.patch.dict(os.environ, SIDEKIT_THREADS="1"):
        report = run("rank-ab", "--data", d / "engagement.npz",
                     "--seed", seed, "--epochs", 2, "--json")
    (d / "rank-ab.json").write_text(report)
    return {f"ne_{arm}": r["ne"]["ne"] for arm, r in json.loads(report).items()
            if arm != "hash_size"}


WORKLOADS = {"fusion": fusion, "retrieval": retrieval, "rank-ab": rank_ab}


def outputs(workload, seed):
    """{"files": sha256 per output file, "values": the printed metrics}
    of one workload run on `seed` in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        values = WORKLOADS[workload](d, seed)
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(d.iterdir()) if p.suffix != ".cfg"}
    return {"files": files, "values": values}


def differences(got, pinned):
    """One line per file or value that is not its pin."""
    lines = []
    for kind in ("files", "values"):
        for name in sorted(set(got[kind]) | set(pinned[kind])):
            have, want = got[kind].get(name), pinned[kind].get(name)
            if have != want:
                lines.append(f"{kind[:-1]} {name}: got {have}, pinned {want}")
    return lines


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_outputs_equal_their_pins(workload, seed):
    pins = json.loads(PINS.read_text())
    here = environment()
    moved = [f"{k} {pins['recorded_with'][k]} -> {here[k]}"
             for k in here if here[k] != pins["recorded_with"][k]]
    assert not moved, ("the pins were recorded in another environment: "
                       + "; ".join(moved))
    problems = differences(outputs(workload, seed),
                           pins["outputs"][f"{workload}/{seed}"])
    assert not problems, f"{workload} seed {seed}: " + "; ".join(problems)


def record():
    pins = {"recorded_with": environment(),
            "outputs": {f"{w}/{s}": outputs(w, s)
                        for w in WORKLOADS for s in SEEDS}}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()

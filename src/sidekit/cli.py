"""Command-line surface tying the quantizers, codec, trainer, and metrics
into file-based pipelines.

Commands: gen-corpus, gen-engagement, train, encode, decode, eval-recon,
eval-recall, eval-ne, rank-ab, sweep. `train` and `sweep` train a fusion
model on one path, which warns when training rolled back, and draw their
randomness from the config file's `seed` key; the rest use --seed flags.
Signals are positional: `train`, `encode` and `sweep` take one --corpus
per signal, in order, signal i is sig{i} in loss columns, and `decode`
writes it to PREFIX.sig{i}.emb. `sweep` checks every grid point of its
config before it trains any. `rank-ab` reads its data only from the
`gen-engagement` file named by --data; its --seed seeds the split of the
users and the training, not the data. The CLI owns the default of every
setting it exposes (PipelineConfig and the flags). SIDEKIT_THREADS caps
the workers of the commands that use more than one core (see `workers`):
the processes `rank-ab` trains its arms in, the threads of the k-means
nearest-centroid pass in `train` and `encode`, and those of the exact
top-k in `eval-recall`. Their outputs equal those of a serial run
(SIDEKIT_THREADS=1); `rank-ab` computes NE in the calling process, in
report order. Every other command runs serially.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from itertools import product
from typing import get_type_hints

import numpy as np

from . import fusion_vae as fv
from . import metrics
from . import ranking as rk
from .corpus_io import (corpus_read, corpus_write, generate_clustered_corpus,
                        history_write)
from .nn_core import FitConfig, TrainingDiverged, _no_record
from .quantizers import (kmeans_grid_decode, kmeans_grid_encode,
                         kmeans_grid_fit, load_codebooks, save_codebooks)
from .sid_codec import (SidScheme, pack_all, read_sid_file, unpack_all,
                        write_sid_file)


class PipelineError(ValueError):
    pass


CLASSICAL_KINDS = ("kmeans", "rq", "pq")
QUANTIZER_KINDS = CLASSICAL_KINDS + ("fsq", "dpca", "none")
LEAST = dict(levels=2, depth=1, groups=1, latent=1, hidden=1, ngram=1,
             batch_size=1, epochs=1, kmeans_iters=1, seed=0)
SIZE_FLAGS = ("rows", "users", "items", "seq_len", "epochs", "feature_dim",
              "hash_size", "queries", "ks", "dim", "clusters",
              "levels", "depths", "groups", "ngrams", "seed")


@dataclass
class PipelineConfig:
    """Flat training/encoding configuration, loadable from key=value files."""

    quantizer: str = "fsq"
    levels: int = 3       # scalar buckets (fsq) or centroids k (kmeans family)
    depth: int = 1        # residual layers (rq, dpca)
    groups: int = 1       # product groups (pq, dpca)
    latent: int = 15
    hidden: int = 128
    ngram: int = 3
    batch_size: int = 256
    epochs: int = 50
    lr: float = 1e-3
    kmeans_iters: int = 25
    seed: int = 0

    def validate(self):
        if self.quantizer not in QUANTIZER_KINDS:
            raise PipelineError(f"unknown quantizer '{self.quantizer}'")
        for key, least in LEAST.items():
            if getattr(self, key) < least:
                raise PipelineError(
                    f"{key} must be >= {least}, got {getattr(self, key)}")
        if not self.lr > 0:
            raise PipelineError(f"lr must be > 0, got {self.lr}")
        if not np.isfinite(self.lr):
            raise PipelineError(f"lr must be finite, got {self.lr}")
        if self.depth != 1 and self.quantizer not in ("rq", "dpca"):
            raise PipelineError(f"depth only applies to rq/dpca, got {self.depth}")
        if self.groups != 1 and self.quantizer not in ("pq", "dpca"):
            raise PipelineError(f"groups only applies to pq/dpca, got {self.groups}")
        if self.quantizer == "dpca" and self.levels != 3:
            raise PipelineError("dpca uses the ternary codebook; levels must be 3")
        if self.quantizer == "none" and self.levels != 3:
            raise PipelineError("none quantizes nothing; levels must be 3")
        return self

    def fit_config(self):
        return FitConfig(epochs=self.epochs, batch_size=self.batch_size,
                         lr=self.lr, seed=self.seed)


def load_config(path):
    """Read key=value lines, each value cast to its PipelineConfig field
    type; a bad key or value is reported as path:line."""
    cfg = {}
    types = get_type_hints(PipelineConfig)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PipelineError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise PipelineError(f"{path}:{lineno}: unknown key '{key}'")
            try:
                cfg[key] = types[key](value)
            except ValueError:
                raise PipelineError(
                    f"{path}:{lineno}: {key}: expected "
                    f"{types[key].__name__}, got '{value}'") from None
    return PipelineConfig(**cfg).validate()


def _build_fusion(cfg, dims):
    spec = fv.FusionSpec(tuple(dims), cfg.latent, cfg.hidden, cfg.quantizer,
                         cfg.levels, cfg.depth, cfg.groups)
    return fv.FusionModel(spec, seed=cfg.seed)


def _load_bundle(cfg, paths):
    """The corpora, a list in signal order, and their dims. The k-means
    kinds take one corpus, counted before any is read, of finite rows."""
    classical = cfg.quantizer in CLASSICAL_KINDS
    if classical and len(paths) != 1:
        raise PipelineError(
            f"{cfg.quantizer} takes one corpus, got {len(paths)}")
    corpora = [corpus_read(p) for p in paths]
    if classical:
        bad = ~np.isfinite(corpora[0]).all(axis=1)
        if bad.any():
            raise PipelineError(
                f"non-finite row {int(np.argmax(bad))} in {paths[0]}")
    rows = {c.shape[0] for c in corpora}
    if len(rows) != 1:
        raise PipelineError(f"corpora disagree on row count: {sorted(rows)}")
    return corpora, [c.shape[1] for c in corpora]


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_corpus(args):
    x = generate_clustered_corpus(args.rows, args.dim, clusters=args.clusters,
                                  noise=args.noise, seed=args.seed)
    corpus_write(args.out, x)
    print(f"wrote {args.rows}x{args.dim} corpus to {args.out}")
    return 0


def cmd_gen_engagement(args):
    cfg = rk.EngagementConfig(users=args.users, items=args.items,
                              seq_len=args.seq_len, seed=args.seed)
    rk.generate_engagement(cfg).save(args.out)
    print(f"wrote engagement set ({cfg.users} users, {cfg.items} items) to {args.out}")
    return 0


def _warn_diverged(what, epoch):
    print(f"warning: {what} diverged at epoch {epoch}; "
          "kept last good checkpoint", file=sys.stderr)


def _train_fusion(cfg, bundle, dims, what):
    """A fusion model built from `cfg` and trained on `bundle`, and its
    per-epoch rows; a rollback is warned about as `what` diverging."""
    model = _build_fusion(cfg, dims)
    rows, diverged_at = fv.train(model, bundle, cfg.fit_config())
    if diverged_at is not None:
        _warn_diverged(what, diverged_at)
    return model, rows


def cmd_train(args):
    cfg = load_config(args.config)
    if args.history and cfg.quantizer in CLASSICAL_KINDS:
        raise PipelineError(f"--history needs fusion training, not {cfg.quantizer}")
    bundle, dims = _load_bundle(cfg, args.corpus)
    if cfg.quantizer in CLASSICAL_KINDS:
        books = kmeans_grid_fit(bundle[0], cfg.levels, cfg.groups,
                                cfg.depth, cfg.kmeans_iters, cfg.seed)
        save_codebooks(args.out, books)
        print(f"fitted {cfg.quantizer} ({len(books)} codebooks) -> {args.out}")
        return 0
    model, rows = _train_fusion(cfg, bundle, dims,
                                f"{cfg.quantizer} training")
    model.save(args.out)
    if args.history:
        history_write(args.history, rows)
    print(f"trained {cfg.quantizer} fusion model -> {args.out} "
          f"(final loss {rows[-1]['total']:.4f})")
    return 0


def _load_kmeans(cfg, path):
    """The checkpoint's k-means codebooks: `groups * depth` of them, each
    of `levels` centroids, as the config `cfg` sets."""
    books = load_codebooks(path)
    if not books:
        raise PipelineError(f"{path} holds no k-means codebooks")
    need = cfg.groups * cfg.depth
    if len(books) != need:
        raise PipelineError(f"{path} holds {len(books)} k-means codebooks, "
                            f"the {cfg.quantizer} config needs {need}")
    if cfg.levels != books[0].shape[0]:
        raise PipelineError(f"the {cfg.quantizer} config sets levels="
                            f"{cfg.levels}, the codebooks in {path} have "
                            f"k={books[0].shape[0]} centroids")
    return books


def cmd_encode(args):
    cfg = load_config(args.config)
    bundle, dims = _load_bundle(cfg, args.corpus)
    if cfg.quantizer in CLASSICAL_KINDS:
        books = _load_kmeans(cfg, args.ckpt)
        codes = kmeans_grid_encode(books, cfg.groups, bundle[0])
        scheme = SidScheme.for_digits(codes.shape[1], base=cfg.levels,
                                      ngram=cfg.ngram)
        sids = pack_all(scheme, codes - scheme.offset)
    else:
        model = _build_fusion(cfg, dims).load(args.ckpt)
        scheme, sids = fv.encode_corpus(model, bundle, ngram=cfg.ngram)
    write_sid_file(args.out, scheme, sids)
    print(f"encoded {len(sids)} records -> {args.out}")
    return 0


def cmd_decode(args):
    cfg = load_config(args.config)
    scheme, sids = read_sid_file(args.sids)
    if cfg.quantizer in CLASSICAL_KINDS:
        books = _load_kmeans(cfg, args.ckpt)
        need = len(books)
    else:
        try:
            dims = [int(d) for d in args.dims.split(",")]
        except ValueError:
            raise PipelineError(
                f"{cfg.quantizer} decoding needs --dims, the signal dims as "
                f"ints, got '{args.dims}'") from None
        model = _build_fusion(cfg, dims)
        need = model.spec.code_digits
    if scheme.base != cfg.levels or scheme.digits < need:
        raise PipelineError(
            f"{args.sids} holds base-{scheme.base} SIDs of {scheme.digits} "
            f"digits, the {cfg.quantizer} model of {args.config} needs "
            f"base {cfg.levels} and {need} digits")
    digits = unpack_all(scheme, sids)
    extra = np.flatnonzero(digits[:, need:].any(axis=1))
    if extra.size:  # pack_all pads with zero digits; these were not padding
        raise PipelineError(
            f"{args.sids} line {extra[0] + 2}: a nonzero digit after the "
            f"{need} that the {cfg.quantizer} model of {args.config} decodes")
    if cfg.quantizer in CLASSICAL_KINDS:
        recon = [kmeans_grid_decode(books, cfg.groups, digits + scheme.offset)]
    else:
        recon = fv.decode_from_digits(model.load(args.ckpt), digits)
    for i, arr in enumerate(recon):
        corpus_write(f"{args.out}.sig{i}.emb", arr)
        print(f"decoded {arr.shape[0]} rows -> {args.out}.sig{i}.emb")
    return 0


def cmd_eval_recon(args):
    x = corpus_read(args.original)
    x_hat = corpus_read(args.reconstruction)
    loss = metrics.cosine_recon_loss(x, x_hat)
    metrics.emit_report({"cosine_reconstruction_loss": loss}, args.json)
    return 0


def cmd_eval_recall(args):
    corpus = corpus_read(args.corpus)
    cand_vectors = corpus_read(args.candidates)
    if cand_vectors.shape[0] != corpus.shape[0]:
        raise PipelineError("corpus and candidate vectors must align by row")
    rng = np.random.default_rng(args.seed)
    n_queries = min(args.queries, corpus.shape[0])
    queries = rng.choice(corpus.shape[0], size=n_queries, replace=False)
    gt = metrics.knn_ground_truth(corpus, queries, depth=args.depth)
    cands = metrics.cosine_topk(cand_vectors, cand_vectors[queries],
                                max(args.ks), exclude_self=queries)
    report = metrics.recall_at_k(gt, cands, args.ks,
                                 corpus_size=corpus.shape[0])
    metrics.emit_report(report.as_dict() if args.json else report, args.json)
    return 0


def _read_values(path):
    """The float64 values of a text file holding one per line. As in
    np.loadtxt, a '#' starts a comment and blank lines are skipped, and a
    value parses as it does there. A line holding more than one value, or
    one that is no number, raises ValueError naming the file and line, and
    so does a file with no value."""
    values = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, 1):
            tokens = line.split("#", 1)[0].split()
            if len(tokens) > 1:
                raise ValueError(f"{path}: line {line_no} holds "
                                 f"{len(tokens)} values, expected one")
            if tokens:
                token = tokens[0]
                try:
                    # float() alone would also take '1_0' and non-ASCII digits
                    if not token.isascii() or "_" in token:
                        raise ValueError
                    values.append(float(token))
                except ValueError:
                    raise ValueError(f"{path}: line {line_no}: '{token}' is "
                                     "not a number") from None
    if not values:
        raise ValueError(f"{path} holds no values")
    return np.array(values, dtype=np.float64)


def cmd_eval_ne(args):
    labels = _read_values(args.labels)
    preds = _read_values(args.predictions)
    report = metrics.normalized_entropy(labels, preds)
    metrics.emit_report(report.as_dict() if args.json else report, args.json)
    return 0


def cmd_rank_ab(args):
    ds = rk.SyntheticEngagementSet.load(args.data)
    hash_size = (ds.collision_free_size() if args.hash_size is None
                 else args.hash_size)
    fit = FitConfig(epochs=args.epochs, batch_size=rk.BATCH_SIZE, lr=args.lr,
                    seed=args.seed)
    report = rk.run_ab(ds, hash_size, args.feature_dim, fit)
    for name, r in report.results.items():
        if r.diverged_at is not None:
            _warn_diverged(f"{name} ranker training", r.diverged_at)
    metrics.emit_report(report.as_dict() if args.json else report, args.json)
    return 0


def cmd_sweep(args):
    cfg = load_config(args.config)
    if cfg.quantizer in CLASSICAL_KINDS:
        raise PipelineError(f"sweep trains fusion models only (fsq, dpca, "
                            f"none), not '{cfg.quantizer}'")
    bundle, dims = _load_bundle(cfg, args.corpus)
    # the n-gram size changes only the SID scheme: one model per (L, D, P);
    # every grid point is checked before any model trains
    points = list(product(args.levels or (cfg.levels,),
                          args.depths or (cfg.depth,),
                          args.groups or (cfg.groups,)))
    grid = [[replace(cfg, levels=L, depth=D, groups=P, ngram=n).validate()
             for n in args.ngrams or (cfg.ngram,)] for L, D, P in points]
    rows = []
    for (L, D, P), combos in zip(points, grid):
        model, _ = _train_fusion(combos[0], bundle, dims,
                                 f"{cfg.quantizer} training at L={L} D={D} "
                                 f"P={P}")
        data = fv.normalize_bundle(model, bundle)
        with _no_record():
            result = model.forward(data)
        losses = {f"loss.sig{i}": round(metrics.cosine_recon_loss(x, r.value), 4)
                  for i, (x, r) in enumerate(zip(data, result.recon))}
        none = cfg.quantizer == "none"  # writes no codes: no code size
        bits = round(float(model.spec.code_digits * np.log2(L)), 1)
        rows += [{"quantizer": cfg.quantizer, "L": L, "D": D, "P": P,
                  "n": c.ngram, "bits": "" if none else bits, "sids_per_item":
                  "" if none else model.spec.sid_scheme(c.ngram).grams,
                  **losses} for c in combos]
    cols = list(rows[0])
    print(",".join(cols))
    for row in rows:
        print(",".join(str(row[c]) for c in cols))
    return 0


# ---------------------------------------------------------------------------


def _int_list(text):
    """Comma-separated integers: the argparse type of every list flag."""
    return tuple(int(v) for v in text.split(","))


def _check_flags(args):
    """Reject a SIZE_FLAGS value below its least (LEAST's, else 1), an
    --lr not > 0 and a non-finite --lr or --noise, naming the flag."""
    for dest in SIZE_FLAGS:
        value = getattr(args, dest, None)
        least = LEAST.get(dest, 1)
        for v in value if isinstance(value, tuple) else (value,):
            if v is not None and v < least:
                raise PipelineError(
                    f"--{dest.replace('_', '-')} must be >= {least}, got {v}")
    if not getattr(args, "lr", 1.0) > 0:
        raise PipelineError(f"--lr must be > 0, got {args.lr}")
    for dest in ("lr", "noise"):
        if not np.isfinite(getattr(args, dest, 0.0)):
            raise PipelineError(
                f"--{dest} must be finite, got {getattr(args, dest)}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sidekit",
        description="vector quantization, semantic IDs, and SIDE evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="write a synthetic embedding corpus")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--clusters", type=int, default=100)
    p.add_argument("--noise", type=float, default=0.08)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("gen-engagement", help="write synthetic engagement data")
    p.add_argument("--users", type=int, default=10_000)
    p.add_argument("--items", type=int, default=2_000)
    p.add_argument("--seq-len", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_engagement)

    p = sub.add_parser("train", help="train a quantizer on corpora")
    p.add_argument("--corpus", action="append", required=True,
                   help="embedding corpus; repeat for multiple signals")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--history", help="write per-epoch loss CSV (fusion only)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode corpora to a SID file")
    p.add_argument("--corpus", action="append", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="reconstruct embeddings from a SID file")
    p.add_argument("--sids", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dims", default="",
                   help="comma-separated signal dims for fusion checkpoints")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval-recon", help="cosine reconstruction loss")
    p.add_argument("--original", required=True)
    p.add_argument("--reconstruction", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval_recon)

    p = sub.add_parser("eval-recall", help="Recall@k of candidate vectors "
                                           "against raw-embedding kNN")
    p.add_argument("--corpus", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--queries", type=int, default=1000)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--ks", default="20,50,100", type=_int_list)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval_recall)

    p = sub.add_parser("eval-ne", help="normalized entropy of predictions")
    p.add_argument("--labels", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval_ne)

    p = sub.add_parser("rank-ab", help="SID vs SIDE ranking A/B on synthetic data")
    p.add_argument("--data", required=True,
                   help="engagement .npz from gen-engagement")
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the user split and the training")
    p.add_argument("--hash-size", type=int, default=None,
                   help="sparse table rows per gram; default collision-free")
    p.add_argument("--epochs", type=int, default=12)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rank_ab)

    p = sub.add_parser("sweep", help="grid over quantizer hyperparameters")
    p.add_argument("--corpus", action="append", required=True)
    p.add_argument("--config", required=True)
    for flag in ("--levels", "--depths", "--groups", "--ngrams"):
        p.add_argument(flag, type=_int_list)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

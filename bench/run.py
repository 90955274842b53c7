"""Benchmark of the `sidekit` command line: three workloads, end to end and
per layer.

    python3 bench/run.py --workload fusion|retrieval|rank-ab|all \\
        --seed N --seconds S --trace 0|1

One client drives the CLI as a closed loop: each stage is a fresh `sidekit`
process (run through bench/stage.py), started only after the previous one
has exited. An iteration runs a workload's set-up stages (`gen-*`), then its
measured stages; iterations repeat on the same seed while the next one,
and the set-up repeats still owed, fit in --seconds. Every timing is the
median over iterations. A run makes at least MIN_ITERATIONS iterations and
MIN_SETUPS set-ups, and so overruns a --seconds shorter than those. The
workload seed only shapes the generated inputs and the seeds in them.

After the first iteration, outside the timed region, its outputs are
checked against independent re-implementations in bench/checks.py; every
later iteration must reproduce the sha256 of each of those output files.
The last line printed is one JSON object: `correct`, `attempted`, `failed`
and `metrics`. With --trace 0 the metrics are the `end_to_end` list of
BENCHMARK.json, measured untraced; with --trace 1 they are the `per_layer`
list, and iterations alternate untraced and traced (bench/tracer.py) so the
tracing overhead is measured too. The exit code is non-zero when any stage
or check failed.

Work files go to .bench_work/ under the checkout and are removed at the
end of the run; .bench_work/results/ keeps one result per workload and seed
(metrics, environment, output digests, run length), and a later run on the
same seed reports every digest that changed. .bench_work/traces/ keeps the
spans of the last traced iteration in Chrome trace-event format.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# BLAS threads x SIDEKIT_THREADS must not exceed the cores: one BLAS thread
# per process, and metric evaluation may use up to two query workers.
BLAS_THREADS = 1
MIN_ITERATIONS = 2      # timing medians need more than one sample
MIN_SETUPS = 5          # set-up is repeated alone until it has this many
STAGE_TIMEOUT_S = 170   # every run must end within 180 s

# Per-workload sizes. "full" is what the benchmark measures; "tiny" exists
# for the benchmark's own tests.
SIZES = {
    "full": {
        "fusion": dict(train_rows=8_000, holdout_rows=24_000, dims=(64, 32),
                       epochs=4, latent=15, dpca_depth=5, dpca_groups=3),
        "retrieval": dict(rows=20_000, dim=64, k=256, depth=2, iters=10,
                          queries=500),
        "rank-ab": dict(users=None, items=None, epochs=None),  # CLI defaults
    },
    "tiny": {
        "fusion": dict(train_rows=400, holdout_rows=1_000, dims=(64, 32),
                       epochs=1, latent=15, dpca_depth=5, dpca_groups=3),
        "retrieval": dict(rows=1_500, dim=64, k=16, depth=2, iters=3,
                          queries=50),
        "rank-ab": dict(users=600, items=200, epochs=1),
    },
}

RECALL_KS = (20, 50, 100)
# rank-ab's CLI defaults, which the checks need: 10k users, 20% held out
# for NE, SIDs of 8 ternary digits per gram.
RANK_USERS, RANK_EVAL_FRACTION, RANK_EPOCHS, RANK_NGRAM = 10_000, 0.2, 12, 8

UNITS = {"setup_s": "s", "wall_s": "s", "train_rows_per_s": "rows/s",
         "encode_rows_per_s": "rows/s", "decode_rows_per_s": "rows/s",
         "eval_queries_per_s": "queries/s", "peak_rss_mb": "MB",
         "encode_peak_rss_mb": "MB", "recon_loss": "1-cos",
         "recall_at_100": "ratio", "ne_sid": "NE", "ne_side": "NE",
         "ne_none": "NE", "failed_ops_ratio": "ratio"}


@dataclass
class Stage:
    """One `sidekit` invocation. `rate` names the per-second metric whose
    numerator `units` this stage adds to; `capture` marks a stage whose
    hand-offs the checks inspect (see bench/stage.py)."""

    label: str
    args: list
    outputs: tuple = ()
    rate: str | None = None
    units: int = 0
    capture: bool = False


@dataclass
class StageResult:
    ok: bool
    wall_s: float
    rss_mb: float
    stdout: str
    capture_dir: str
    trace: dict | None = None


class Checker:
    """Counts checks made and failed; keeps a message for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def expect(self, ok, message):
        self.attempted += 1
        if not ok:
            self.problems.append(message)
        return ok


@dataclass
class Iteration:
    traced: bool
    results: dict = field(default_factory=dict)
    stages: list = field(default_factory=list)
    stage_failures: int = 0
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    health: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# workloads


def _write_config(path, **values):
    with open(path, "w") as fh:
        fh.writelines(f"{k}={v}\n" for k, v in values.items())


class Fusion:
    """Two signals (64-d, 32-d); FSQ and DPCA fusion models."""

    name = "fusion"

    def __init__(self, size, seed):
        self.p, self.seed = SIZES[size]["fusion"], seed

    def stages(self, d):
        p = self.p
        setup, measured = [], []
        for i, dim in enumerate(p["dims"]):
            for part, rows in (("train", p["train_rows"]),
                               ("holdout", p["holdout_rows"])):
                # same generator seed, so the larger held-out bundle is
                # drawn around the same cluster centres as the training one
                setup.append(Stage(
                    f"gen-corpus.{part}.sig{i}",
                    ["gen-corpus", "--rows", str(rows), "--dim", str(dim),
                     "--seed", str(2 * self.seed + i),
                     "--out", f"{d}/{part}.sig{i}.emb"],
                    outputs=(f"{part}.sig{i}.emb",)))
        dims = ",".join(str(x) for x in p["dims"])
        train = [a for i in range(len(p["dims"]))
                 for a in ("--corpus", f"{d}/train.sig{i}.emb")]
        holdout = [a for i in range(len(p["dims"]))
                   for a in ("--corpus", f"{d}/holdout.sig{i}.emb")]
        for q in ("fsq", "dpca"):
            extra = (dict(depth=p["dpca_depth"], groups=p["dpca_groups"])
                     if q == "dpca" else {})
            _write_config(f"{d}/{q}.cfg", quantizer=q, levels=3,
                          latent=p["latent"], epochs=p["epochs"],
                          seed=self.seed, **extra)
            cfg = ["--config", f"{d}/{q}.cfg"]
            measured += [
                Stage(f"train.{q}", ["train", *train, *cfg,
                                     "--out", f"{d}/{q}.ckpt"],
                      outputs=(f"{q}.ckpt",), rate="train_rows_per_s",
                      units=p["train_rows"] * p["epochs"]),
                Stage(f"encode.{q}", ["encode", *holdout, *cfg,
                                      "--ckpt", f"{d}/{q}.ckpt",
                                      "--out", f"{d}/{q}.sid"],
                      outputs=(f"{q}.sid",), rate="encode_rows_per_s",
                      units=p["holdout_rows"]),
                Stage(f"decode.{q}", ["decode", "--sids", f"{d}/{q}.sid", *cfg,
                                      "--ckpt", f"{d}/{q}.ckpt", "--dims", dims,
                                      "--out", f"{d}/{q}.recon"],
                      outputs=tuple(f"{q}.recon.sig{i}.emb"
                                    for i in range(len(p["dims"]))),
                      rate="decode_rows_per_s", units=p["holdout_rows"],
                      capture=True),
            ]
            measured += [
                Stage(f"eval-recon.{q}.sig{i}",
                      ["eval-recon", "--original", f"{d}/holdout.sig{i}.emb",
                       "--reconstruction", f"{d}/{q}.recon.sig{i}.emb",
                       "--json"])
                for i in range(len(p["dims"]))]
        return setup, measured

    def check(self, it, d, chk):
        p = self.p
        losses, distinct, util = [], [], []
        for q in ("fsq", "dpca"):
            width = (p["dpca_depth"] * p["dpca_groups"] if q == "dpca"
                     else p["latent"])
            digits = check_sid_file(chk, it, d, f"{q}.sid", f"decode.{q}",
                                    base=3, ngram=3, rows=p["holdout_rows"])
            if digits is None:
                continue
            sids = checks.read_sid_file(f"{d}/{q}.sid")[3]
            distinct.append(checks.distinct_ratio(sids))
            util.append(checks.min_digit_utilization(digits, 3, width))
            for i in range(len(p["dims"])):
                loss = check_recon(chk, it, d, f"eval-recon.{q}.sig{i}",
                                   f"holdout.sig{i}.emb",
                                   f"{q}.recon.sig{i}.emb")
                if loss is not None:
                    losses.append(loss)
        if losses:
            it.quality["recon_loss"] = float(np.mean(losses))
        if distinct:
            it.health["sid_codec.distinct_sid_ratio"] = min(distinct)
            it.health["sid_codec.min_digit_utilization"] = min(util)


class Retrieval:
    """One 64-d corpus; residual k-means, then Recall@k of the decoded
    vectors against exact kNN on the originals."""

    name = "retrieval"

    def __init__(self, size, seed):
        self.p, self.seed = SIZES[size]["retrieval"], seed

    def stages(self, d):
        p = self.p
        _write_config(f"{d}/rq.cfg", quantizer="rq", levels=p["k"],
                      depth=p["depth"], kmeans_iters=p["iters"],
                      seed=self.seed)
        cfg = ["--config", f"{d}/rq.cfg"]
        setup = [Stage("gen-corpus", ["gen-corpus", "--rows", str(p["rows"]),
                                      "--dim", str(p["dim"]),
                                      "--seed", str(self.seed),
                                      "--out", f"{d}/corpus.emb"],
                       outputs=("corpus.emb",))]
        measured = [
            Stage("train", ["train", "--corpus", f"{d}/corpus.emb", *cfg,
                            "--out", f"{d}/rq.ckpt"],
                  outputs=("rq.ckpt",), rate="train_rows_per_s",
                  units=p["rows"] * p["iters"] * p["depth"]),
            Stage("encode", ["encode", "--corpus", f"{d}/corpus.emb", *cfg,
                             "--ckpt", f"{d}/rq.ckpt", "--out", f"{d}/rq.sid"],
                  outputs=("rq.sid",), rate="encode_rows_per_s",
                  units=p["rows"]),
            Stage("decode", ["decode", "--sids", f"{d}/rq.sid", *cfg,
                             "--ckpt", f"{d}/rq.ckpt", "--out", f"{d}/rq.recon"],
                  outputs=("rq.recon.sig0.emb",), rate="decode_rows_per_s",
                  units=p["rows"], capture=True),
            Stage("eval-recon", ["eval-recon", "--original", f"{d}/corpus.emb",
                                 "--reconstruction", f"{d}/rq.recon.sig0.emb",
                                 "--json"]),
            Stage("eval-recall", ["eval-recall", "--corpus", f"{d}/corpus.emb",
                                  "--candidates", f"{d}/rq.recon.sig0.emb",
                                  "--queries", str(p["queries"]),
                                  "--ks", ",".join(map(str, RECALL_KS)),
                                  "--seed", str(self.seed), "--json"],
                  rate="eval_queries_per_s", units=p["queries"]),
        ]
        return setup, measured

    def check(self, it, d, chk):
        p = self.p
        digits = check_sid_file(chk, it, d, "rq.sid", "decode",
                                base=p["k"], ngram=3, rows=p["rows"])
        if digits is not None:
            sids = checks.read_sid_file(f"{d}/rq.sid")[3]
            it.health["sid_codec.distinct_sid_ratio"] = \
                checks.distinct_ratio(sids)
            it.health["sid_codec.min_digit_utilization"] = \
                checks.min_digit_utilization(digits, p["k"], p["depth"])
        loss = check_recon(chk, it, d, "eval-recon", "corpus.emb",
                           "rq.recon.sig0.emb")
        if loss is not None:
            it.quality["recon_loss"] = loss
        report = stage_json(chk, it, "eval-recall")
        if report is None:
            return
        for problem in checks.recall_sane(report, RECALL_KS, p["rows"]):
            chk.expect(False, f"eval-recall: {problem}")
        chk.expect(report.get("queries") == p["queries"]
                   and report.get("corpus") == p["rows"],
                   f"eval-recall: report sizes {report}")
        it.quality["recall_at_100"] = report["recall@100"]


class RankAb:
    """`gen-engagement` then the SID / SIDE / no-history ranking A/B."""

    name = "rank-ab"
    VARIANTS = ("none", "sid", "side")   # the order run_ab trains them in

    def __init__(self, size, seed):
        self.p, self.seed = SIZES[size]["rank-ab"], seed

    def stages(self, d):
        p = self.p
        gen = ["gen-engagement", "--seed", str(self.seed),
               "--out", f"{d}/engagement.npz"]
        rank = ["rank-ab", "--data", f"{d}/engagement.npz",
                "--seed", str(self.seed), "--json"]
        if p["users"] is not None:
            gen += ["--users", str(p["users"]), "--items", str(p["items"])]
            rank += ["--epochs", str(p["epochs"])]
        users = p["users"] or RANK_USERS
        train_rows = users - int(users * RANK_EVAL_FRACTION)
        epochs = p["epochs"] or RANK_EPOCHS
        setup = [Stage("gen-engagement", gen, outputs=("engagement.npz",))]
        measured = [Stage("rank-ab", rank, rate="train_rows_per_s",
                          units=train_rows * epochs * len(self.VARIANTS),
                          capture=True)]
        return setup, measured

    def check(self, it, d, chk):
        report = stage_json(chk, it, "rank-ab")
        with np.load(f"{d}/engagement.npz") as data:
            sids = data["item_sids"]
            digits = data["item_digits"].astype(np.int64)
        chk.expect(np.array_equal(
            checks.unpack_digits(3, RANK_NGRAM, sids)[:, :digits.shape[1]],
            digits), "gen-engagement: item SIDs do not unpack to item digits")
        it.health["sid_codec.distinct_sid_ratio"] = checks.distinct_ratio(sids)
        it.health["sid_codec.min_digit_utilization"] = \
            checks.min_digit_utilization(digits, 3, digits.shape[1])
        if report is None:
            return
        collision_free = 3 ** (RANK_NGRAM + 1) - 3 + 1
        chk.expect(report.get("hash_size") == collision_free,
                   f"rank-ab: hash_size {report.get('hash_size')} is not "
                   f"the collision-free {collision_free}")
        for g, rate in enumerate(checks.hash_collision_rates(
                sids, collision_free)):
            it.health[f"ranking.hash_collision_rate.g{g}"] = rate
        cap = it.results["rank-ab"].capture_dir
        for i, variant in enumerate(self.VARIANTS):
            ne = report.get(variant, {}).get("ne", {}).get("ne")
            if not chk.expect(ne is not None and math.isfinite(ne),
                              f"rank-ab: NE of {variant} is {ne}"):
                continue
            it.quality[f"ne_{variant}"] = ne
            label = f"check.eval-ne.{variant}"
            result = run_stage(Stage(label, [
                "eval-ne", "--labels", f"{cap}/ne{i}.labels.txt",
                "--predictions", f"{cap}/ne{i}.preds.txt", "--json"]),
                d, traced=False)
            it.results[label] = result
            again = stage_json(chk, it, label)
            if again is not None:
                chk.expect(abs(again["ne"] - ne) <= 1e-9 * abs(ne),
                           f"{label}: {again['ne']} != rank-ab's {ne}")


WORKLOADS = {w.name: w for w in (Fusion, Retrieval, RankAb)}


# ---------------------------------------------------------------------------
# shared checks


def stage_json(chk, it, label):
    result = it.results.get(label)
    if not chk.expect(result is not None and result.ok,
                      f"{label}: stage did not succeed"):
        return None
    try:
        return json.loads(result.stdout)
    except ValueError:
        chk.expect(False, f"{label}: stdout is not JSON")
        return None


def check_sid_file(chk, it, d, sid_name, decode_label, base, ngram, rows):
    """Parse and unpack a SID file with the reference code; check that the
    decode stage consumed exactly those digits. Returns them, or None."""
    try:
        got_base, got_ngram, _, sids = checks.read_sid_file(f"{d}/{sid_name}")
        digits = checks.unpack_digits(got_base, got_ngram, sids)
    except (OSError, ValueError, KeyError) as exc:
        chk.expect(False, f"{sid_name}: reference parse failed: {exc}")
        return None
    chk.expect((got_base, got_ngram, len(sids)) == (base, ngram, rows),
               f"{sid_name}: base/ngram/rows "
               f"{(got_base, got_ngram, len(sids))} != {(base, ngram, rows)}")
    consumed = os.path.join(it.results[decode_label].capture_dir, "digits.npy")
    chk.expect(os.path.exists(consumed)
               and np.array_equal(np.load(consumed), digits),
               f"{sid_name}: {decode_label} did not consume its digits")
    return digits


def check_recon(chk, it, d, label, original, recon):
    report = stage_json(chk, it, label)
    if report is None:
        return None
    loss = report.get("cosine_reconstruction_loss")
    ref = checks.recon_loss(checks.read_corpus(f"{d}/{original}"),
                            checks.read_corpus(f"{d}/{recon}"))
    chk.expect(loss is not None and math.isfinite(loss)
               and abs(loss - ref) <= 1e-9,
               f"{label}: reported loss {loss} != recomputed {ref}")
    return loss


# ---------------------------------------------------------------------------
# running stages


def stage_env():
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0",
               SIDEKIT_THREADS=str(sidekit_threads()))
    return env


def sidekit_threads():
    return max(1, min(2, len(os.sched_getaffinity(0)) // BLAS_THREADS))


def run_stage(stage, d, traced, deadline=None, capture=False):
    """Spawn one stage, wait for it with wait4, and collect its results."""
    base = os.path.join(d, stage.label)
    capture_dir = base + ".capture"
    cmd = [sys.executable, os.path.join(HERE, "stage.py"),
           "--report", base + ".report.json"]
    if traced:
        cmd.append("--trace")
    if capture and stage.capture:
        os.makedirs(capture_dir, exist_ok=True)
        cmd += ["--capture", capture_dir]
    cmd += ["--", *stage.args]
    timeout = STAGE_TIMEOUT_S if deadline is None \
        else max(1.0, deadline - time.monotonic())
    with open(base + ".out", "w") as out, open(base + ".err", "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=stage_env(),
                                cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        end = time.monotonic()
    report = {}
    if os.path.exists(base + ".report.json"):
        with open(base + ".report.json") as fh:
            report = json.load(fh)
    ok = proc.returncode == 0 and report.get("rc") == 0
    if not ok:
        with open(base + ".err") as fh:
            tail = fh.read()[-2000:]
        print(f"stage {stage.label} failed (exit {proc.returncode}):\n{tail}",
              file=sys.stderr)
    with open(base + ".out") as fh:
        stdout = fh.read()
    return StageResult(ok=ok, wall_s=report.get("main_end", end) - start,
                       rss_mb=usage.ru_maxrss / 1024.0, stdout=stdout,
                       capture_dir=capture_dir, trace=report.get("trace"))


def run_iteration(workload, d, traced, deadline, chk, check=False,
                  setup_only=False):
    """Run one iteration's stages; with `check`, capture what the checks
    need and check the outputs. Iterations that are not checked are held
    to the checked one's output digests instead."""
    os.makedirs(d)
    it = Iteration(traced=traced)
    setup, measured = workload.stages(d)
    it.stages = setup if setup_only else setup + measured
    for stage in it.stages:
        result = run_stage(stage, d, traced, deadline, capture=check)
        it.results[stage.label] = result
        if not result.ok:
            it.stage_failures += 1
            return it     # later stages need this one's outputs
        for name in stage.outputs:
            it.digests[name] = checks.sha256(os.path.join(d, name))
    if check:
        workload.check(it, d, chk)
    return it


# ---------------------------------------------------------------------------
# metrics


def iteration_metrics(it):
    """End-to-end numbers of one iteration (untraced or traced)."""
    setup_s = wall_s = 0.0
    rates = {}
    peak = enc_peak = 0.0
    for stage in it.stages:
        r = it.results[stage.label]
        peak = max(peak, r.rss_mb)
        if stage.label.startswith("gen-"):
            setup_s += r.wall_s
            continue
        wall_s += r.wall_s
        if stage.rate:
            units, secs = rates.get(stage.rate, (0, 0.0))
            rates[stage.rate] = (units + stage.units, secs + r.wall_s)
        if stage.args[0] == "encode":
            enc_peak = max(enc_peak, r.rss_mb)
    m = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak}
    m.update({name: units / secs for name, (units, secs) in rates.items()})
    if enc_peak:
        m["encode_peak_rss_mb"] = enc_peak
    m.update(it.quality)
    return m


def stage_split(it):
    """Per CLI command: summed wall time and largest peak RSS."""
    out = {}
    for stage in it.stages:
        r, cmd = it.results[stage.label], stage.args[0]
        out[f"cli.{cmd}.wall_s"] = out.get(f"cli.{cmd}.wall_s", 0.0) + r.wall_s
        out[f"cli.{cmd}.peak_rss_mb"] = max(
            out.get(f"cli.{cmd}.peak_rss_mb", 0.0), r.rss_mb)
    return out


def layer_metrics(it):
    """Self time and calls per traced function, plus the counters, summed
    over the stages of one traced iteration."""
    totals, counts = {}, {}
    for stage in it.stages:
        trace = it.results[stage.label].trace
        for name, (self_s, calls) in tracing.self_times(
                trace["names"], trace["spans"]).items():
            s, c = totals.get(name, (0.0, 0))
            totals[name] = (s + self_s, c + calls)
        for key, value in trace["counts"].items():
            combine = max if key.endswith("peak_rss_mb") else sum
            counts[key] = combine((counts.get(key, 0.0), value))
    out = dict(counts)
    for name, (self_s, calls) in totals.items():
        out[f"{name}.self_s"] = self_s
        out[f"{name}.calls"] = calls
    ops = tracing.nn_core_ops(totals)
    out["nn_core.ops.self_s"] = sum(totals[n][0] for n in ops)
    out["nn_core.ops.calls"] = sum(totals[n][1] for n in ops)
    return out


def median_of(dicts):
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}


def chrome_trace(it):
    """Spans of one traced iteration as Chrome trace events (one process
    per stage; times in microseconds from the iteration's first span)."""
    events, t0 = [], None
    for pid, stage in enumerate(it.stages):
        trace = it.results[stage.label].trace
        names = trace["names"]
        if t0 is None and trace["spans"]:
            t0 = trace["spans"][0][1]
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "args": {"name": stage.label}})
        for nid, start, end, parent in trace["spans"]:
            events.append({
                "ph": "X", "name": names[nid], "pid": pid, "tid": 0,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"parent": names[trace["spans"][parent][0]]
                         if parent >= 0 else None}})
    return {"traceEvents": events}


# ---------------------------------------------------------------------------
# environment, digests, output


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "sidekit_threads": sidekit_threads(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(),
            "machine": platform.machine(),
            "commit": commit, "seed": seed}


def compare_digests(result_path, digests):
    """Print every output whose sha256 differs from the earlier result of
    the same workload, seed and size."""
    if not os.path.exists(result_path):
        print("digests: no earlier result for this workload and seed")
        return
    with open(result_path) as fh:
        before = json.load(fh)["digests"]
    changed = sorted(k for k in before if before[k] != digests.get(k))
    if not changed:
        print(f"digests: all {len(before)} outputs byte-identical to the "
              f"earlier result")
    for name in changed:
        print(f"digests: CHANGED from the earlier result: {name}: "
              f"{before[name]} -> {digests.get(name)}")


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name, seed, seconds, trace, size, work):
    spec = load_spec()
    workload = WORKLOADS[name](size, seed)
    run_dir = os.path.join(work, f"{name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    chk = Checker()
    start = time.monotonic()
    deadline = start + STAGE_TIMEOUT_S
    iterations, setups = [], []

    def next_dir(tag):
        return os.path.join(run_dir, f"{tag}{len(iterations) + len(setups)}")

    def owed_setups(n_iterations):
        return 0 if trace else max(0, MIN_SETUPS - n_iterations)

    while True:
        traced = bool(trace) and len(iterations) % 2 == 1
        it = run_iteration(workload, next_dir("it"), traced, deadline, chk,
                           check=not iterations)
        iterations.append(it)
        if it.stage_failures:
            break
        # the next iteration costs about what this one's stages did (the
        # first iteration's checks are not repeated), a set-up repeat what
        # its set-up stages did; traced runs add iterations in pairs
        n = len(iterations)
        if trace and n % 2:
            continue
        m = iteration_metrics(it)
        step = (2 if trace else 1) * (m["setup_s"] + m["wall_s"])
        left = seconds - (time.monotonic() - start)
        if (n >= MIN_ITERATIONS
                and step + owed_setups(n + 1) * m["setup_s"] > left):
            break
    ok_iters = [it for it in iterations if not it.stage_failures]
    while ok_iters and owed_setups(len(ok_iters) + len(setups)):
        setups.append(run_iteration(workload, next_dir("setup"), False,
                                    deadline, chk, setup_only=True))
        if setups[-1].stage_failures:
            break

    # every iteration ran the same inputs: outputs must match byte for byte
    reference = ok_iters[0].digests if ok_iters else {}
    for it in ok_iters[1:] + setups:
        for out, digest in it.digests.items():
            chk.expect(reference.get(out) == digest,
                       f"{out}: output differs between iterations "
                       f"({'traced' if it.traced else 'untraced'})")

    stage_runs = sum(len(it.results) for it in iterations + setups)
    stage_failures = sum(it.stage_failures for it in iterations + setups)
    attempted = stage_runs + chk.attempted
    failed = stage_failures + len(chk.problems)
    untraced = [it for it in ok_iters if not it.traced]
    traced_its = [it for it in ok_iters if it.traced]

    e2e = median_of([iteration_metrics(it) for it in untraced])
    if setups:
        e2e["setup_s"] = statistics.median(
            iteration_metrics(it)["setup_s"] for it in untraced + setups)
    e2e["failed_ops_ratio"] = failed / attempted
    layers = {}
    if traced_its:
        layers = median_of([layer_metrics(it) for it in traced_its])
        layers.update(median_of([stage_split(it) for it in untraced]))
        pairs = list(zip(untraced, traced_its))
        layers["trace.overhead_pct"] = statistics.median(
            100.0 * (sum(t.results[s.label].wall_s for s in t.stages)
                     / sum(u.results[s.label].wall_s for s in u.stages) - 1.0)
            for u, t in pairs)
    health = ok_iters[0].health if ok_iters else {}
    layers.update(health)

    run_s = time.monotonic() - start
    env = environment(seed)
    print(f"== {name} (seed {seed}, size {size}, "
          f"{'traced + untraced' if trace else 'untraced'}) ==")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"closed loop, 1 client: {len(iterations)} iterations, "
          f"{len(setups)} extra set-ups, {run_s:.1f} s "
          f"(--seconds {seconds:g})")
    for key in sorted(e2e):
        print(f"  {key} = {fmt(e2e[key])} {UNITS.get(key, '')}")
    for key in sorted(health):
        print(f"  {key} = {fmt(health[key])}")
    if name == "rank-ab" and "ne_sid" in e2e and "ne_none" in e2e:
        print(f"  known defect: ne_sid {e2e['ne_sid']:.4f} vs ne_none "
              f"{e2e['ne_none']:.4f}")
    digests = ok_iters[0].digests if ok_iters else {}
    for out in sorted(digests):
        print(f"  sha256 {out} {digests[out]}")
    for problem in chk.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    os.makedirs(os.path.join(work, "results"), exist_ok=True)
    result_path = os.path.join(work, "results", f"{name}-seed{seed}-{size}.json")
    compare_digests(result_path, digests)
    if traced_its:
        top = sorted(((k, v) for k, v in layers.items()
                      if k.endswith(".self_s")), key=lambda kv: -kv[1])[:12]
        print("traced self time (top 12):")
        for key, value in top:
            print(f"  {key} = {value:.4f} s")
        os.makedirs(os.path.join(work, "traces"), exist_ok=True)
        trace_path = os.path.join(work, "traces", f"{name}-seed{seed}.json")
        with open(trace_path, "w") as fh:
            json.dump(chrome_trace(traced_its[-1]), fh)
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
    with open(result_path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "size": size,
                   "trace": trace, "environment": env, "metrics": e2e,
                   "layers": layers, "digests": digests, "run_s": run_s,
                   "problems": chk.problems}, fh, indent=1, sort_keys=True)
    shutil.rmtree(run_dir, ignore_errors=True)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = layers if trace else e2e
    metrics = {}
    for m in wanted:
        if not trace and m["name"] not in values:
            continue    # a failed run lacks timings; `correct` is false
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0),
                              "unit": m["unit"]}
    correct = failed == 0 and len(metrics) == len(wanted)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny is for the benchmark's own tests")
    parser.add_argument("--workdir", help="default: .bench_work/")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "sidekit", "cli.py")):
        print("error: src/sidekit is missing; run from a sidekit checkout",
              file=sys.stderr)
        return 2
    work = os.path.abspath(args.workdir or os.path.join(ROOT, ".bench_work"))
    seconds = args.seconds or load_spec()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, seconds, args.trace, args.size,
                               work) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

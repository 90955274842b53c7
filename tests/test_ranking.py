"""Ranking harness tests: the pooled attention against a scalar oracle,
its gradient, the history sampler against a broadcast comparison and its
peak memory, the engagement file, training rollback, the A/B report, the
compact SID table against the full-table oracle bit for bit, and the A/B
arms trained in worker processes against the serial run."""

import dataclasses
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from sidekit import metrics
from sidekit import nn_core as nn
from sidekit import ranking as rk
from oracles import (FullTableSidRanker, broadcast_history, grad_close,
                     naive_pma, numeric_grad, sum_all, zero_history_logits)


def attention_inputs(seed, users=3, seq_len=5, d=4):
    rng = np.random.default_rng(seed)
    return {"q": rng.normal(size=(users, d)).astype(np.float32),
            "v": rng.normal(size=(users * seq_len, d)).astype(np.float32),
            "theta": rng.normal(size=(d, d)).astype(np.float32)}


def attention(arrays, seq_len=5):
    leaves = {k: nn.leaf(v, k, requires_grad=True) for k, v in arrays.items()}
    out = nn.pooled_attention(leaves["q"], leaves["v"], leaves["theta"],
                              seq_len)
    return leaves, out


@pytest.mark.parametrize("seed", range(5))
def test_pooled_attention_matches_naive_per_user(seed):
    arrays = attention_inputs(seed)
    _, out = attention(arrays)
    for u in range(3):
        expect = naive_pma(arrays["q"][u:u + 1], arrays["v"][5 * u:5 * u + 5],
                           arrays["theta"])
        np.testing.assert_allclose(out.value[u:u + 1], expect, atol=1e-5)


@pytest.mark.parametrize("key", ["q", "v", "theta"])
def test_pooled_attention_gradient(key):
    arrays = attention_inputs(7)
    w = np.random.default_rng(8).normal(size=(3, 4)).astype(np.float32)

    def loss(arrs):
        _, out = attention(arrs)
        return sum_all(nn.mul(out, nn.constant(w)))

    leaves, out = attention(arrays)
    nn.backward(sum_all(nn.mul(out, nn.constant(w))))
    numeric = numeric_grad(lambda a: float(loss(a).value[0, 0]), arrays, key)
    assert grad_close(leaves[key].grad, numeric)


@pytest.mark.parametrize("users, block_rows", [(37, 5), (40, 8), (3, 1000)])
def test_history_matches_the_broadcast_comparison(monkeypatch, users,
                                                  block_rows):
    items, seq_len, seed = 50, 6, 11
    monkeypatch.setattr(metrics, "BLOCK_CELLS", block_rows * items)
    ds = rk.generate_engagement(rk.EngagementConfig(
        users=users, items=items, seq_len=seq_len, seed=seed))
    np.testing.assert_array_equal(ds.history, broadcast_history(
        users, items, seq_len, seed, rk.LATENT_DIM, rk.HISTORY_SHARPNESS))


def test_generate_engagement_peak_memory_is_bounded():
    """4,096 users x 32 draws x 2,000 items as one boolean comparison is
    262 MB. The block sampler keeps one (block, items) float64 buffer of
    at most BLOCK_CELLS = 2^21 cells, 16.8 MB, and the previous block's
    buffer lives until the next one replaces it: 34 MB. After the loop the
    last buffer meets latents[history] (4,096 x 32 x 16 float64, 16.8 MB),
    again 34 MB. Taste, draws, history and the other per-user arrays add
    under 4 MB. 48 MB leaves slack and is under a fifth of the boolean
    array alone."""
    cfg = rk.EngagementConfig(users=4_096, items=2_000, seq_len=32, seed=1)
    tracemalloc.start()
    try:
        rk.generate_engagement(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6


def test_generate_engagement_memory_growth_per_user_is_small():
    """Growth per user is the per-user arrays (history, draws, taste, the
    mean history latent), under 1 KB. Averaging latents[history] over all
    users at once adds seq_len x 16 float64 values, 4 KB, per user."""
    def peak(users):
        cfg = rk.EngagementConfig(users=users, items=2_000, seq_len=32,
                                  seed=1)
        tracemalloc.start()
        try:
            rk.generate_engagement(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(16_384) - peak(4_096)) / (16_384 - 4_096) < 1_500


@pytest.mark.parametrize("variant", ["sid", "side"])
def test_predict_matches_the_recorded_graph(variant):
    ds = small_dataset()
    model = rk.ToyRankingModel(ds, variant, 100, feature_dim=16, seed=5)
    rows = np.arange(50)
    z = model.logits(rows).value[:, 0]
    np.testing.assert_array_equal(
        model.predict(rows), 1.0 / (1.0 + np.exp(-z.astype(np.float64))))


def small_dataset():
    return rk.generate_engagement(rk.EngagementConfig(
        users=400, items=80, seq_len=6, seed=3))


def test_engagement_set_round_trips_through_its_file(tmp_path):
    ds = small_dataset()
    ds.save(tmp_path / "eng.npz")
    back = rk.SyntheticEngagementSet.load(tmp_path / "eng.npz")
    assert back.config == ds.config
    arrays = [f.name for f in dataclasses.fields(ds)][1:]
    for name in arrays:
        got, want = getattr(back, name), getattr(ds, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    with np.load(tmp_path / "eng.npz") as loaded:
        assert list(loaded) == arrays + ["users", "items", "seq_len", "seed"]


def test_engagement_load_names_the_missing_entries(tmp_path):
    ds = small_dataset()
    ds.save(tmp_path / "eng.npz")
    with np.load(tmp_path / "eng.npz") as loaded:
        arrays = {k: v for k, v in loaded.items()
                  if k not in ("history", "seq_len")}
    np.savez(tmp_path / "bad.npz", **arrays)
    with pytest.raises(rk.RankingError,
                       match=r"bad\.npz lacks history, seq_len$"):
        rk.SyntheticEngagementSet.load(tmp_path / "bad.npz")


def test_divergence_rolls_back(monkeypatch):
    ds = small_dataset()
    cfg = nn.FitConfig(epochs=3, batch_size=160, lr=3e-3, seed=4)
    stopped, _, clean = rk._fit_ranker(ds, "side", 100, 16, nn.FitConfig(
        epochs=1, batch_size=160, lr=3e-3, seed=4))
    assert clean is None
    logits = rk.ToyRankingModel.logits
    calls = []

    def poisoned(self, rows):
        # 320 training rows: the first batch of epoch 1 goes NaN
        calls.append(1)
        if len(calls) == 3:
            self.params.get("head.w")[0, 0] = np.nan
        return logits(self, rows)

    monkeypatch.setattr(rk.ToyRankingModel, "logits", poisoned)
    model, preds, diverged_at = rk._fit_ranker(ds, "side", 100, 16, cfg)
    assert diverged_at == 1
    assert np.isfinite(preds).all()
    for name, arr in stopped.params.items():
        np.testing.assert_array_equal(model.params.get(name), arr)


def test_divergence_in_first_epoch_raises(monkeypatch):
    ds = small_dataset()
    logits = rk.ToyRankingModel.logits

    def poisoned(self, rows):
        self.params.get("head.w")[0, 0] = np.inf
        return logits(self, rows)

    monkeypatch.setattr(rk.ToyRankingModel, "logits", poisoned)
    with pytest.raises(nn.TrainingDiverged):
        rk.train_ranker(ds, "sid", 100, 16, nn.FitConfig(
            epochs=2, batch_size=256, lr=3e-3, seed=4))


def test_ab_report_counts_trained_feature_params():
    ds = small_dataset()
    report = rk.run_ab(ds, 50, 16, nn.FitConfig(epochs=1, batch_size=256,
                                                lr=3e-3, seed=5))
    assert report.hash_size == 50
    assert list(report.results) == ["none", "sid", "side"]
    grams = ds.scheme.grams
    assert report.results["sid"].feature_params == grams * 50 * 16
    digits = ds.item_digits.shape[1]
    assert report.results["side"].feature_params == digits * 16
    assert report.results["none"].ne_gain_pct is None
    assert all(r.diverged_at is None for r in report.results.values())
    base = report.results["none"].ne.ne
    for name in ("sid", "side"):
        r = report.results[name]
        assert r.ne_gain_pct == pytest.approx(100.0 * (base - r.ne.ne) / base)


def test_ab_report_renders_one_row_per_arm_in_report_order():
    def result(variant, ne, params, gain):
        return rk.AbResult(variant, metrics.NEReport(ne, 10, 0.3, 0.5),
                           params, None, gain, None)

    report = rk.AbReport(61, {"none": result("none", 1.0008, 0, None),
                              "sid": result("sid", 1.4956, 1952, -49.44),
                              "side": result("side", 0.86421, 256, 13.6)})
    assert str(report) == (
        "hash_size=61\n"
        "| Variant | Click NE | NE gain | Feature-path params |\n"
        "|---|---|---|---|\n"
        "| none | 1.000800 | - | 0 |\n"
        "| sid | 1.495600 | -49.4400% | 1952 |\n"
        "| side | 0.864210 | +13.6000% | 256 |")
    assert report.as_dict()["hash_size"] == 61
    assert list(report.as_dict()) == ["none", "sid", "side", "hash_size"]
    assert report.as_dict()["sid"] == {
        "ne": {"ne": 1.4956, "n": 10, "prior": 0.3, "mean_log_loss": 0.5},
        "feature_params": 1952, "feature_rows_trained": None,
        "ne_gain_pct": -49.44}


def test_feature_rows_trained_are_the_hashed_rows_of_the_training_users(
        monkeypatch):
    ds = small_dataset()
    cfg = nn.FitConfig(epochs=1, batch_size=100, lr=3e-3, seed=5)
    hash_size = 61
    # train_ranker's split: the users after the first 20% of one permutation
    order = np.random.default_rng(cfg.seed).permutation(ds.config.users)
    train = order[int(ds.config.users * rk.EVAL_FRACTION):]
    items = np.union1d(ds.history[train].ravel(), ds.candidates[train])
    rows = {int(sid) % hash_size + g * hash_size
            for g in range(ds.scheme.grams) for sid in ds.item_sids[items, g]}
    # the table rows that training's gathers reach, seen by a spy
    gathered = set()
    gather_mean = nn.gather_mean

    def spy(table, indices):
        if table.name == "feature.table" and nn._recording:
            gathered.update(np.asarray(indices).ravel().tolist())
        return gather_mean(table, indices)

    monkeypatch.setattr(nn, "gather_mean", spy)
    assert rk.train_ranker(ds, "sid", hash_size, 16, cfg)[3] == len(rows)
    assert len(gathered) == len(rows)
    for variant in ("none", "side"):
        assert rk.train_ranker(ds, variant, hash_size, 16, cfg)[3] is None


def test_the_none_arm_builds_no_history_block(monkeypatch):
    ds = small_dataset()
    cfg = nn.FitConfig(epochs=2, batch_size=128, lr=3e-2, seed=5)
    built = []
    with monkeypatch.context() as spying:
        for op in ("gather_rows", "gather_mean", "pooled_attention"):
            def spy(a, *args, _op=op, _real=getattr(nn, op)):
                built.append((_op, a.name))
                return _real(a, *args)
            spying.setattr(nn, op, spy)
        model, preds, diverged_at = rk._fit_ranker(ds, "none", 100, 16, cfg)
    assert diverged_at is None
    # the segment lookup is the one gather; no attention or SID gram node
    # is built
    assert set(built) == {("gather_rows", "sparse.segments")}
    monkeypatch.setattr(rk.ToyRankingModel, "logits", zero_history_logits)
    oracle, oracle_preds, _ = rk._fit_ranker(ds, "none", 100, 16, cfg)
    np.testing.assert_array_equal(preds, oracle_preds)
    for name, value in oracle.params.items():
        np.testing.assert_array_equal(
            model.params.get(name).view(np.uint32), value.view(np.uint32),
            err_msg=name)


def bits(a):
    """The float32 bit patterns of `a`, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def test_sid_ranker_equals_a_run_with_the_dense_oracle(monkeypatch):
    """The compact SID table against the whole grams * hash_size table as
    a dense parameter, gathered by raw hash: same predictions, same bytes
    in every shared parameter and in the table's reachable rows, at one
    row per gram, at 61 and at the collision-free size."""
    ds = rk.generate_engagement(rk.EngagementConfig(
        users=400, items=80, seq_len=6, seed=3))
    cfg = nn.FitConfig(epochs=3, batch_size=64, lr=3e-2, seed=4)
    grams = ds.scheme.grams
    for hash_size in (1, 61, ds.collision_free_size()):
        model, preds, diverged_at = rk._fit_ranker(ds, "sid", hash_size, 16,
                                                   cfg)
        assert diverged_at is None
        with monkeypatch.context() as full:
            full.setattr(rk, "ToyRankingModel", FullTableSidRanker)
            oracle, oracle_preds, _ = rk._fit_ranker(ds, "sid", hash_size, 16,
                                                     cfg)
        table = oracle.params.get("feature.table")
        assert table.shape == (grams * hash_size, 16)
        np.testing.assert_array_equal(preds, oracle_preds)
        assert model.params.names() == oracle.params.names()
        for name, value in oracle.params.items():
            if name != "feature.table":
                np.testing.assert_array_equal(bits(model.params.get(name)),
                                              bits(value), err_msg=name)
        # the compact rows are the raw rows some item hashes to, in order
        reachable = np.unique(oracle.item_rows)
        if hash_size > 1:
            assert reachable.size < grams * hash_size
        np.testing.assert_array_equal(model.item_rows,
                                      np.searchsorted(reachable,
                                                      oracle.item_rows))
        np.testing.assert_array_equal(bits(model.params.get("feature.table")),
                                      bits(table[reachable]))


def test_worker_count_counts_the_cores_of_the_affinity_mask(monkeypatch):
    monkeypatch.delenv("SIDEKIT_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert rk.worker_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(12)))
    assert rk.worker_count() == 8
    monkeypatch.setenv("SIDEKIT_THREADS", "3")
    assert rk.worker_count() == 3
    # where the platform has no affinity mask, the cores it reports
    monkeypatch.delenv("SIDEKIT_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert rk.worker_count() == 2


AB_FIT = nn.FitConfig(epochs=2, batch_size=128, lr=3e-3, seed=5)


def run_ab_with_threads(monkeypatch, threads, ds):
    """run_ab at SIDEKIT_THREADS=`threads`; returns the report and, per
    normalized_entropy call it made, (pid, predictions, returned report)."""
    calls = []

    def recorder(labels, preds):
        report = metrics.normalized_entropy(labels, preds)
        calls.append((os.getpid(), preds, report))
        return report

    monkeypatch.setenv("SIDEKIT_THREADS", str(threads))
    monkeypatch.setattr(rk, "normalized_entropy", recorder)
    report = rk.run_ab(ds, 50, 16, AB_FIT)
    assert multiprocessing.active_children() == []
    return report, calls


def test_run_ab_in_worker_processes_equals_the_serial_run(monkeypatch):
    ds = small_dataset()
    serial, serial_calls = run_ab_with_threads(monkeypatch, 1, ds)
    parallel, calls = run_ab_with_threads(monkeypatch, 2, ds)
    assert list(serial.results) == list(parallel.results) == ["none", "sid",
                                                              "side"]
    for name, want in serial.results.items():
        assert parallel.results[name] == want  # every field, floats exactly
    # NE is computed in this process, once per arm, in report order
    assert [pid for pid, _, _ in calls] == [os.getpid()] * 3
    assert [r for _, _, r in calls] == [r.ne for r in parallel.results.values()]
    assert len(serial_calls) == 3
    for (_, got, _), (_, want, _) in zip(calls, serial_calls):
        np.testing.assert_array_equal(got, want)


def test_run_ab_trains_in_at_most_sidekit_threads_processes(monkeypatch,
                                                             tmp_path):
    ds = small_dataset()
    # the serial reference: each arm trained here, NE in report order
    labels = ds.labels[rk._split(ds, AB_FIT.seed)[1]]
    serial = {}
    for variant in rk.AB_VARIANTS:
        preds, diverged_at, params, rows = rk.train_ranker(ds, variant, 50,
                                                           16, AB_FIT)
        ne = metrics.normalized_entropy(labels, preds)
        base = serial["none"].ne.ne if serial else None
        gain = None if base is None else 100.0 * (base - ne.ne) / base
        serial[variant] = rk.AbResult(variant, ne, params, diverged_at, gain,
                                      rows)

    pids = tmp_path / "pids"
    logits = rk.ToyRankingModel.logits

    def recording(self, rows):
        with open(pids, "a") as fh:
            fh.write(f"{self.variant} {os.getpid()}\n")
        return logits(self, rows)

    def trained_in():
        lines = {tuple(line.split()) for line in pids.read_text().splitlines()}
        pids.unlink()
        return {v: {int(pid) for name, pid in lines if name == v}
                for v in rk.AB_VARIANTS}

    def forbidden(*args, **kwargs):
        raise AssertionError("forked at SIDEKIT_THREADS=1")

    monkeypatch.setattr(rk.ToyRankingModel, "logits", recording)
    with monkeypatch.context() as one:
        one.setenv("SIDEKIT_THREADS", "1")
        one.setattr(multiprocessing, "get_context", forbidden)
        report = rk.run_ab(ds, 50, 16, AB_FIT)
    assert report.results == serial
    assert trained_in() == {v: {os.getpid()} for v in rk.AB_VARIANTS}

    monkeypatch.setenv("SIDEKIT_THREADS", "3")
    report = rk.run_ab(ds, 50, 16, AB_FIT)
    assert multiprocessing.active_children() == []
    assert report.results == serial
    where = trained_in()
    assert all(len(p) == 1 for p in where.values())
    assert where["none"] == {os.getpid()}
    assert len(set.union(*where.values())) == 3


def users(n):
    """A dataset of `n` users: the eval split holds int(n * 0.2) of them."""
    return rk.generate_engagement(rk.EngagementConfig(
        users=n, items=20, seq_len=4, seed=1))


@pytest.mark.parametrize("threads", [1, 2])
def test_run_ab_rejects_a_single_class_split_before_training(monkeypatch,
                                                             threads):
    ds = small_dataset()
    one_class = dataclasses.replace(ds, labels=np.ones_like(ds.labels))

    def forbidden(*args, **kwargs):
        raise AssertionError("trained or forked before checking the split")

    monkeypatch.setenv("SIDEKIT_THREADS", str(threads))
    monkeypatch.setattr(rk, "_fit_ranker", forbidden)
    monkeypatch.setattr(multiprocessing, "get_context", forbidden)
    for data, message in [
            (one_class, "^training split is single-class$"),
            (users(9), r"^eval split \(1 of 9 users\) is single-class$"),
            (users(4), r"^eval split \(0 of 4 users\) is empty$")]:
        with pytest.raises(rk.RankingError, match=message):
            rk.run_ab(data, 50, 16, AB_FIT)
    assert multiprocessing.active_children() == []


def test_an_arm_diverging_in_a_worker_raises_the_serial_error(monkeypatch):
    logits = rk.ToyRankingModel.logits

    def poisoned(self, rows):
        # at 2 workers "sid" trains in the worker
        if self.variant == "sid":
            self.params.get("head.w")[0, 0] = np.inf
        return logits(self, rows)

    monkeypatch.setattr(rk.ToyRankingModel, "logits", poisoned)
    errors = []
    for threads in (1, 2, 3):
        monkeypatch.setenv("SIDEKIT_THREADS", str(threads))
        with pytest.raises(nn.TrainingDiverged) as info:
            rk.run_ab(small_dataset(), 50, 16, AB_FIT)
        errors.append((type(info.value), str(info.value)))
        assert multiprocessing.active_children() == []
    # node numbers restart with each fit, whatever the process ran before
    assert errors[0] == errors[1] == errors[2]
    assert errors[0][1] == ("diverged in epoch 0: node 'matmul#9': "
                            "non-finite output at batch row 0")


# run_ab's NE per arm on small_dataset() with AB_FIT and hash_size 50,
# recorded with per-op finiteness checks; the "none" arm builds no
# attention, so its NE has not moved since it was first pinned
PINNED_NE = {
    16: (1.0923096170107862, 1.1462941332361882, 1.014440207820008),
    9: (1.0629917370765904, 1.0988398299045432, 1.152610596980016),
    1: (1.1732337423286534, 1.1359183048964778, 1.2755608138184624)}


@pytest.mark.parametrize("threads", [1, 2])
def test_run_ab_reports_the_pinned_ne_of_every_arm(monkeypatch, threads):
    monkeypatch.setenv("SIDEKIT_THREADS", str(threads))
    ds = small_dataset()
    for feature_dim, want in PINNED_NE.items():
        report = rk.run_ab(ds, 50, feature_dim, AB_FIT)
        got = tuple(r.ne.ne for r in report.results.values())
        assert got == want, feature_dim
    assert multiprocessing.active_children() == []


def poisoned_logits(variant, param, from_call):
    """ToyRankingModel.logits that sets `param`[0, 0] of `variant` to NaN
    from its `from_call`-th call on."""
    logits = rk.ToyRankingModel.logits
    calls = []

    def poisoned(self, rows):
        if self.variant == variant:
            calls.append(1)
            if len(calls) >= from_call:
                self.params.get(param)[0, 0] = np.nan
        return logits(self, rows)
    return poisoned


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("variant, param, from_call, node", [
    ("none", "head.w", 2, "matmul#19"),
    ("none", "dense.w", 3, "matmul#28"),
    ("sid", "dense.w", 1, "matmul#2"),
    ("side", "dense.w", 1, "matmul#2")])
def test_a_parameter_poisoned_in_training_raises_the_per_op_error(
        monkeypatch, threads, variant, param, from_call, node):
    """The errors recorded with a check after every op: the node is the
    first whose output per-op checks find non-finite, numbered as those
    runs numbered it, whether the arm trains here or in a worker."""
    monkeypatch.setenv("SIDEKIT_THREADS", str(threads))
    monkeypatch.setattr(rk.ToyRankingModel, "logits",
                        poisoned_logits(variant, param, from_call))
    with pytest.raises(nn.TrainingDiverged) as info:
        rk.run_ab(small_dataset(), 50, 16, AB_FIT)
    assert str(info.value) == (f"diverged in epoch 0: node '{node}': "
                               "non-finite output at batch row 0")
    assert multiprocessing.active_children() == []


def test_run_ab_raises_the_first_failing_arm_in_report_order(monkeypatch):
    logits = rk.ToyRankingModel.logits
    trained = []

    def failing(self, rows):
        # at 2 workers "sid" fails in the worker, "side" in this process
        trained.append(self.variant)
        if self.variant != "none":
            raise rk.RankingError(f"{self.variant} failed")
        return logits(self, rows)

    monkeypatch.setattr(rk.ToyRankingModel, "logits", failing)
    for threads in (1, 2):
        monkeypatch.setenv("SIDEKIT_THREADS", str(threads))
        with pytest.raises(rk.RankingError, match="^sid failed$"):
            rk.run_ab(small_dataset(), 50, 16, AB_FIT)
        assert multiprocessing.active_children() == []
        if threads == 1:  # the serial run stops at its first failure
            assert "side" not in trained

"""Tests of the benchmark itself, at its tiny size.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from sidekit.sid_codec import SidScheme, pack_all, unpack_all  # noqa: E402

WORKLOADS = ("fusion", "retrieval", "rank-ab")


def run_bench(workdir, *args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--size", "tiny", "--seconds", "1",
         "--workdir", str(workdir), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_smoke_every_workload_passes_its_checks(tmp_path):
    proc, result = run_bench(tmp_path, "--workload", "all", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    for workload in WORKLOADS:
        for metric in spec()["end_to_end"]:
            value = result["metrics"][f"{workload}.{metric['name']}"]
            assert value["value"] > 0 and value["unit"] == metric["unit"]


def test_traced_run_writes_identical_outputs_and_every_layer_metric(tmp_path):
    # iteration 0 runs untraced and iteration 1 traced, on the same inputs;
    # the run holds every iteration to iteration 0's output digests, so a
    # traced output that differs by one byte makes `correct` false
    proc, result = run_bench(tmp_path, "--workload", "all", "--seed", "6",
                             "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0

    measured = {}
    for workload, sids in (("fusion", ("fsq.sid", "dpca.sid")),
                           ("retrieval", ("rq.sid",)), ("rank-ab", ())):
        with open(tmp_path / "results" / f"{workload}-seed6-tiny.json") as fh:
            saved = json.load(fh)
        assert saved["problems"] == []
        assert all(name in saved["digests"] for name in sids)
        measured[workload] = saved["layers"]
    for metric in spec()["per_layer"]:
        name = metric["name"]
        assert any(name in layers for layers in measured.values()), name
        assert result["metrics"][f"fusion.{name}"]["unit"] == metric["unit"]
    # the predictions the workloads were chosen to show
    assert measured["fusion"]["nn_core.adam_step.calls"] > 0
    assert measured["retrieval"].get("nn_core.adam_step.calls", 0) == 0
    assert measured["retrieval"]["metrics.cosine_topk.candidates_scanned"] > 0
    assert measured["fusion"].get("quantizers.kmeans_fit.calls", 0) == 0
    assert measured["rank-ab"]["nn_core.gather_rows.self_s"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc, result = run_bench(tmp_path / "work", "--workload", "fusion",
                             cwd=tmp_path,
                             script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert result is None


def test_reference_unpacker_agrees_with_the_codec():
    rng = np.random.default_rng(0)
    for base, ngram, width in ((3, 3, 15), (3, 8, 16), (256, 3, 2)):
        scheme = SidScheme.for_digits(width, base=base, ngram=ngram)
        digits = rng.integers(scheme.digit_lo, scheme.digit_hi + 1,
                              size=(50, width))
        sids = pack_all(scheme, digits)
        ours = checks.unpack_digits(base, ngram, sids)
        assert np.array_equal(ours, unpack_all(scheme, sids))
        assert np.array_equal(ours[:, :width], digits)


def test_health_counts_on_known_inputs():
    sids = np.array([[3, 6], [3, 9], [12, 9], [21, 6]], dtype=np.uint64)
    # gram 0: 3, 12 and 21 share bucket 3 mod 9; gram 1: 6 and 9 do not
    assert checks.hash_collision_rates(sids, 9) == [1.0, 0.0]
    assert checks.hash_collision_rates(sids, 100) == [0.0, 0.0]
    assert checks.distinct_ratio(np.array([[1, 2], [1, 2], [3, 4]])) == 2 / 3
    digits = np.array([[-1, 0, 0], [0, 0, 0], [1, 0, 0]])
    assert checks.min_digit_utilization(digits, 3, 1) == 1.0
    assert checks.min_digit_utilization(digits, 3, 2) == 1 / 3


def test_recall_checks_flag_bad_reports():
    good = {"recall@20": 0.5, "recall@50": 0.7, "recall@100": 0.8}
    assert checks.recall_sane(good, (20, 50, 100), 1000) == []
    falling = dict(good, **{"recall@100": 0.6})
    assert checks.recall_sane(falling, (20, 50, 100), 1000)
    random_level = dict(good, **{"recall@100": 100 / 999})
    assert checks.recall_sane(random_level, (20, 50, 100), 1000)

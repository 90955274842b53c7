"""The summary arithmetic and output checks of tools/bench_pairs.py on
canned results; no benchmark runs."""

import importlib.util
import json
import os
import sys
import time

import pytest

PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "bench_pairs.py")


@pytest.fixture(scope="module")
def bp():
    spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def result(**values):
    return {"correct": True, "failed": 0,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def pairs_of(parent, change, name):
    return [{"parent": result(**{name: a}), "change": result(**{name: b})}
            for a, b in zip(parent, change)]


def test_sides_alternate_which_runs_first(bp):
    assert [bp.run_order(k)[0] for k in range(4)] == [
        "parent", "change", "parent", "change"]
    assert all(sorted(bp.run_order(k)) == ["change", "parent"]
               for k in range(4))


def test_medians_quartiles_and_wins_of_a_lower_is_better_metric(bp):
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [9.0, 11.0, 10.0, 14.0, 8.0]
    summary = bp.summarize(pairs_of(parent, change, "wall_s"),
                           {"wall_s": "lower"})["wall_s"]
    assert summary["pairs"] == 5
    # inclusive quartiles of 10..14: 11, 12, 13
    assert summary["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0,
                                 "wins": 1}
    # 8, 9, 10, 11, 14
    assert summary["change"] == {"median": 10.0, "q1": 9.0, "q3": 11.0,
                                 "wins": 3}
    assert summary["ties"] == 1


def test_higher_is_better_flips_the_wins(bp):
    summary = bp.summarize(pairs_of([1.0, 2.0, 3.0], [2.0, 1.0, 4.0], "rate"),
                           {"rate": "higher"})["rate"]
    assert summary["change"]["wins"] == 2
    assert summary["parent"]["wins"] == 1
    assert summary["ties"] == 0
    # quantiles between samples interpolate: 1, 2, 3 -> 1.5, 2, 2.5
    assert (summary["parent"]["q1"], summary["parent"]["q3"]) == (1.5, 2.5)


def test_a_pair_missing_a_metric_does_not_count(bp):
    pairs = pairs_of([5.0, 6.0], [4.0, 7.0], "wall_s")
    pairs.append({"parent": result(wall_s=1.0),
                  "change": {"correct": False, "failed": None, "metrics": {}}})
    summary = bp.summarize(pairs, {"wall_s": "lower", "setup_s": "lower"})
    assert set(summary) == {"wall_s"}
    assert summary["wall_s"]["pairs"] == 2
    assert summary["wall_s"]["parent"]["median"] == 5.5


def test_one_pair_gives_its_value_as_every_quartile(bp):
    summary = bp.summarize(pairs_of([3.0], [2.0], "wall_s"),
                           {"wall_s": "lower"})["wall_s"]
    assert summary["change"] == {"median": 2.0, "q1": 2.0, "q3": 2.0,
                                 "wins": 1}


@pytest.mark.parametrize("better, parent, change, expect", [
    # parent 10..14: median 12, spread (13 - 11) / 12 = 16.7%
    ("lower", [10.0, 11.0, 12.0, 13.0, 14.0], [12.0, 12.6, 12.6, 12.6, 13.0],
     "worse by 5.0% (bound 25%)"),
    ("lower", [10.0, 11.0, 12.0, 13.0, 14.0], [9.0, 9.0, 9.0, 9.0, 9.0],
     "better by 25.0% (bound 25%)"),
    ("lower", [10.0, 11.0, 12.0, 13.0, 14.0], [15.6, 15.6, 15.6, 15.6, 15.6],
     "worse by 30.0% (bound 25%), over the bound"),
    ("higher", [10.0, 11.0, 12.0, 13.0, 14.0], [9.0, 9.0, 9.0, 9.0, 9.0],
     "worse by 25.0% (bound 25%)"),
    ("higher", [10.0, 11.0, 12.0, 13.0, 14.0], [8.4, 8.4, 8.4, 8.4, 8.4],
     "worse by 30.0% (bound 25%), over the bound"),
    # parent 6..14 by 2: median 10, spread (12 - 8) / 10 = 40%
    ("lower", [6.0, 8.0, 10.0, 12.0, 14.0], [10.0] * 5,
     "unresolved: parent spread 40.0% > bound 25%"),
])
def test_verdict_reads_the_change_against_the_bound(bp, better, parent,
                                                    change, expect):
    summary = bp.summarize(pairs_of(parent, change, "m"), {"m": better})["m"]
    assert bp.verdict(summary, 0.25) == expect


def write_result(checkout, workload, seed, digests):
    results = checkout / ".bench_work" / "results"
    results.mkdir(parents=True)
    (results / f"{workload}-seed{seed}-full.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "digests": digests}))


def test_outputs_are_compared_between_sides_and_with_the_reference(
        bp, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_result(parent, "fusion", 7, {"a.sid": "1", "a.ckpt": "2"})
    write_result(change, "fusion", 7, {"a.sid": "1", "a.ckpt": "3"})
    digests = [bp.result_digests(d, "fusion", 7, since=0.0)
               for d in (parent, change)]
    assert digests[0] == {"a.sid": "1", "a.ckpt": "2"}
    # a result file older than the run it should come from is not read
    assert bp.result_digests(parent, "fusion", 7, since=time.time() + 60) == {}
    assert bp.result_digests(parent, "fusion", 8, since=0.0) == {}

    # the reference need not record every output (here not a.ckpt)
    differ = bp.compare_outputs(*digests, {"a.sid": "1", "b.sid": "4"})
    assert differ == {"identical": False, "differ": ["a.ckpt"],
                      "reference": {"parent": ["b.sid"], "change": ["b.sid"]}}
    reference = {"a.sid": "1", "a.ckpt": "2"}
    assert bp.compare_outputs(*digests, reference)["reference"] == {
        "parent": [], "change": ["a.ckpt"]}
    same = bp.compare_outputs(digests[0], dict(digests[0]))
    assert same == {"identical": True, "differ": []}
    assert not bp.compare_outputs({}, {})["identical"]

    pairs = [{"outputs": bp.compare_outputs(*digests, reference)},
             {"outputs": bp.compare_outputs(digests[0], dict(digests[0]),
                                            reference)}]
    assert bp.outputs_line(pairs) == (
        "outputs: parent and change byte-identical in 1/2 pairs (differ: "
        "a.ckpt); parent matches bench/reference_digests.json in 2/2; "
        "change matches bench/reference_digests.json in 1/2")
    assert bp.outputs_line(pairs[1:2] + [{"outputs": same}]) == (
        "outputs: parent and change byte-identical in 2/2 pairs")


def test_reference_digests_are_read_per_workload_and_seed(bp):
    assert set(bp.reference_digests("fusion", 107)) == {
        "dpca.ckpt", "dpca.sid", "fsq.ckpt", "fsq.sid"}
    assert bp.reference_digests("fusion", 1) is None

"""Alternating benchmark pairs between two checkouts of this repository.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload rank-ab --seed 107 --pairs 10 [--seconds 40]

Each pair runs `bench/run.py --workload W --seed N` once in each checkout,
one after the other; the side that goes first alternates from pair to
pair, so slow drift of the machine falls on both sides alike. The JSON
object on each run's last line of output is kept. The result is written
to BENCH_<workload>_seed<N>.json at the root of this repository: every
pair's values, then per end-to-end metric of BENCHMARK.json and per side
the median, the quartiles and the number of pairs that side won (a tie
counts for neither), and the environment the pairs ran in. Per metric it
also prints how much worse or better the change's median is than the
parent's, against the metric's `bound`, or "unresolved" where the
parent's own quartile spread is wider than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def run_order(pair):
    """The sides of pair number `pair` (from 0) in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values):
    """(q1, median, q3) with the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, metrics):
    """Per metric, each side's median, quartiles and wins over `pairs`.

    `pairs` holds one {"parent": result, "change": result} per pair, each
    result a bench/run.py object whose "metrics" map a name to {"value"};
    `metrics` maps a name to "lower" or "higher", the better direction. A
    pair counts for a metric only if both sides report it.
    """
    out = {}
    for name, better in metrics.items():
        both = [(p["parent"]["metrics"][name]["value"],
                 p["change"]["metrics"][name]["value"]) for p in pairs
                if all(name in p[s].get("metrics", {}) for s in SIDES)]
        if not both:
            continue
        sign = 1 if better == "higher" else -1
        summary = {"better": better, "pairs": len(both)}
        for i, side in enumerate(SIDES):
            values = [pair[i] for pair in both]
            q1, median, q3 = quartiles(values)
            wins = sum(sign * (pair[i] - pair[1 - i]) > 0 for pair in both)
            summary[side] = {"median": median, "q1": q1, "q3": q3,
                             "wins": wins}
        summary["ties"] = sum(a == b for a, b in both)
        out[name] = summary
    return out


def verdict(summary, bound):
    """One metric's summary read against its relative `bound`: "worse by
    X% (bound Y%)" or "better by X% (bound Y%)" for the change's median
    against the parent's, with "over the bound" when worse by more than
    it, or "unresolved" when the parent's q3 - q1 is wider than `bound`
    times its median, so its runs cannot tell a change of that size."""
    parent, change = summary["parent"], summary["change"]
    spread = (parent["q3"] - parent["q1"]) / parent["median"]
    if spread > bound:
        return (f"unresolved: parent spread {spread:.1%} > "
                f"bound {bound:.0%}")
    sign = 1 if summary["better"] == "lower" else -1
    worse = sign * (change["median"] - parent["median"]) / parent["median"]
    text = (f"{'worse' if worse > 0 else 'better'} by {abs(worse):.1%} "
            f"(bound {bound:.0%})")
    return text + ", over the bound" if worse > bound else text


def _checkout(path):
    """The commit a checkout is at, and whether its src/ or bench/ differ
    from that commit (both None outside a git checkout)."""
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=path, capture_output=True,
                              text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", "src", "bench")
    return {"commit": commit,
            "modified": None if status is None else status != ""}


def _environment():
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "system": platform.system(),
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def _run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "failed": None, "metrics": {},
                "error": proc.stderr.strip()[-2000:]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="passed to bench/run.py; default its own")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    dirs = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    environment = _environment()

    pairs = []
    for pair in range(args.pairs):
        results = {"first": run_order(pair)[0]}
        for side in run_order(pair):
            results[side] = _run(dirs[side], args.workload, args.seed,
                                 args.seconds)
            values = {k: v["value"] for k, v in
                      results[side]["metrics"].items()}
            print(f"pair {pair} {side}: correct={results[side]['correct']} "
                  f"{values}", flush=True)
        pairs.append(results)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds,
              "checkouts": {s: _checkout(d) for s, d in dirs.items()},
              "environment": environment,
              "summary": summarize(pairs, metrics), "pairs": pairs}
    path = os.path.join(ROOT, f"BENCH_{args.workload}_seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, s in report["summary"].items():
        print(f"{name}: parent {s['parent']['median']:.4g} -> change "
              f"{s['change']['median']:.4g} ({s['better']} is better; change "
              f"won {s['change']['wins']}/{s['pairs']}, ties {s['ties']}): "
              f"{verdict(s, bounds[name])}")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0 if all(p[s]["correct"] for p in pairs for s in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())

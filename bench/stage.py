"""Run one `sidekit` CLI command in this process, for the benchmark.

    python3 bench/stage.py --report R.json [--trace] [--capture DIR] -- ARGS...

ARGS are the arguments of the `sidekit` command line. The stage imports
`sidekit.cli` from the checkout's `src/` and calls `main(ARGS)`, exactly as
the `sidekit` console script does. R.json receives the exit code and the
CLOCK_MONOTONIC time at which `main` returned; the parent process started
its clock before spawning this one, so the stage's wall time covers
interpreter start, imports and the command, but not the captures below.

--trace   installs the span tracer (bench/tracer.py) before `main` runs and
          adds its spans and counters to R.json.
--capture keeps, for the output checks, what the command handed between
          layers: the digits `decode` unpacked from the SID file
          (digits.npy), and the labels and predictions `rank-ab` scored
          (ne<i>.labels.txt / ne<i>.preds.txt, one pair per call). They are
          written after `main` returns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _capture_hooks(cli, ranking, captured):
    unpack_all = cli.unpack_all

    def unpack_capture(*args, **kwargs):
        digits = unpack_all(*args, **kwargs)
        captured["digits"] = digits
        return digits

    normalized_entropy = ranking.normalized_entropy

    def ne_capture(labels, predictions):
        captured.setdefault("ne", []).append((labels, predictions))
        return normalized_entropy(labels, predictions)

    cli.unpack_all = unpack_capture
    ranking.normalized_entropy = ne_capture


def _write_captures(captured, out_dir):
    import numpy as np
    if "digits" in captured:
        np.save(os.path.join(out_dir, "digits.npy"), captured["digits"])
    for i, (labels, preds) in enumerate(captured.get("ne", [])):
        np.savetxt(os.path.join(out_dir, f"ne{i}.labels.txt"),
                   np.asarray(labels, dtype=np.float64), fmt="%.17g")
        np.savetxt(os.path.join(out_dir, f"ne{i}.preds.txt"),
                   np.asarray(preds, dtype=np.float64), fmt="%.17g")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--capture")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    tracer = None
    if opts.trace:
        import tracer as tracing  # bench/ is sys.path[1], after src/
        tracer = tracing.install(tracing.Tracer())
    from sidekit import cli, ranking
    captured = {}
    if opts.capture:
        _capture_hooks(cli, ranking, captured)

    rc = cli.main(cli_args)
    main_end = time.monotonic()
    sys.stdout.flush()

    report = {"rc": rc, "main_end": main_end}
    if opts.capture:
        _write_captures(captured, opts.capture)
    if tracer is not None:
        report["trace"] = tracer.to_json()
    with open(opts.report, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

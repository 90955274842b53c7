"""In-memory span tracer for the sidekit package, installed from outside it.

`install` wraps every public function of each sidekit module, and every
public method of each public class defined there, so that a call records
a span: name, start, end and the span that was open when it began (its
parent). The wrapper replaces the module attribute and every other name in
the package that was bound to the same function object, so names that
`cli`, `fusion_vae` and `ranking` imported with `from ... import` are
traced too. Nothing inside `src/` changes.

Spans stay in memory and are written out once, by the caller, when the
traced process ends. Spans assume one thread calls into traced code at a
time: worker threads inside `metrics.cosine_topk` run only numpy, never a
wrapped function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import time

LAYERS = ("nn_core", "quantizers", "sid_codec", "corpus_io", "metrics",
          "fusion_vae", "ranking", "cli")

# nn_core functions that are not graph ops; every other public function
# there builds a node and counts toward `nn_core.ops`.
NN_CORE_NON_OPS = ("backward", "adam_step", "save_checkpoint",
                   "load_checkpoint")


def _scanned(args, kwargs):
    base = kwargs.get("base", args[0] if args else None)
    queries = kwargs.get("queries", args[1] if len(args) > 1 else None)
    return len(queries) * len(base)


def _sid_file_bytes(args, kwargs):
    return os.path.getsize(kwargs.get("path", args[0] if args else None))


def _rss_after(args, kwargs):
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Counts taken where the work happens, after a call returns:
# span name -> (counter name, value from the call's arguments, combine).
COUNTERS = {
    "metrics.cosine_topk": ("metrics.cosine_topk.candidates_scanned",
                            _scanned, sum),
    "sid_codec.write_sid_file": ("sid_codec.file_bytes", _sid_file_bytes, sum),
    "sid_codec.read_sid_file": ("sid_codec.file_bytes", _sid_file_bytes, sum),
    "ranking.generate_engagement": ("ranking.generate_engagement.peak_rss_mb",
                                    _rss_after, max),
}


class Tracer:
    """Span store plus the call stack that assigns each span its parent."""

    def __init__(self):
        self.names = []
        self.spans = []        # [name_id, start, end, parent_index]
        self._stack = []
        self.counts = {}

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.monotonic
        counts = self.counts
        if counter is not None:
            counts.setdefault(counter[0], 0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [nid, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                key, value, combine = counter
                counts[key] = combine((counts[key], value(args, kwargs)))
            return result

        return traced

    def to_json(self):
        return {"names": self.names, "spans": self.spans,
                "counts": self.counts}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _public_methods(module):
    for cname, cls in vars(module).items():
        if (cname.startswith("_") or not inspect.isclass(cls)
                or cls.__module__ != module.__name__):
            continue
        for mname, obj in vars(cls).items():
            if not mname.startswith("_") and inspect.isfunction(obj):
                yield cls, cname, mname, obj


def install(tracer):
    """Wrap the public surface of every sidekit layer; returns the tracer."""
    modules = {layer: importlib.import_module(f"sidekit.{layer}")
               for layer in LAYERS}
    package = importlib.import_module("sidekit")
    namespaces = [vars(m) for m in modules.values()] + [vars(package)]
    for layer, module in modules.items():
        for name, fn in list(_public_functions(module)):
            wrapped = tracer.wrap(f"{layer}.{name}", fn)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is fn:
                        ns[key] = wrapped
        for cls, cname, mname, fn in list(_public_methods(module)):
            setattr(cls, mname, tracer.wrap(f"{layer}.{cname}.{mname}", fn))
    return tracer


def nn_core_ops(names):
    """Span names that count toward the `nn_core.ops` aggregate."""
    skip = {f"nn_core.{n}" for n in NN_CORE_NON_OPS}
    return {n for n in names
            if n.startswith("nn_core.") and n.count(".") == 1
            and n not in skip}


def self_times(names, spans):
    """Per-name (self seconds, calls): duration minus direct-child time.

    Children of one span run one after another inside it, so the time
    they cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (nid, start, end, parent) in enumerate(spans):
        self_s, calls = out.get(names[nid], (0.0, 0))
        out[names[nid]] = (self_s + (end - start) - child_time[i], calls + 1)
    return out

"""Every per-layer timing that BENCHMARK.json declares names a `sidekit`
function or method, so deleting or renaming a traced function fails here
in under a second instead of only in the traced benchmark run.

Names ending in `.self_s` or `.calls` are spans `module.function` or
`module.Class.method`; `nn_core.ops.*` aggregates every graph op and names
no single function.
"""

import importlib
import inspect
import json
import pathlib

import pytest

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def traced_spans():
    names = (m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"])
    return sorted({n.rsplit(".", 1)[0] for n in names
                   if n.endswith((".self_s", ".calls"))
                   and not n.startswith("nn_core.ops.")})


def resolve(span):
    """The sidekit function or method a span names, or None."""
    module, *path = span.split(".")
    obj = importlib.import_module(f"sidekit.{module}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj if inspect.isfunction(obj) else None


def test_resolver_rejects_what_does_not_exist():
    assert resolve("sid_codec.pack_all") is not None
    assert resolve("ranking.ToyRankingModel.logits") is not None
    for gone in ("sid_codec.pack", "quantizers.NoSuch.method",
                 "quantizers.KMeansCodebook", "quantizers.DpcaStack",
                 "quantizers.FsqConfig"):
        assert resolve(gone) is None


@pytest.mark.parametrize("span", traced_spans())
def test_traced_span_names_a_sidekit_function(span):
    assert resolve(span) is not None, f"BENCHMARK.json traces {span}"

"""The batch contract: quantizers, the SID codec, graph leaves, parameters
and digit decoding take 2-D batches and reject any other ndim with their
own module's error, naming it."""

import numpy as np
import pytest

from sidekit import fusion_vae as fv
from sidekit import nn_core as nn
from sidekit import quantizers as q
from sidekit import sid_codec as sc

VEC = np.zeros(4, dtype=np.float32)
KMEANS = np.eye(4, dtype=np.float32)
DPCA = (np.ones((1, 2, 4), dtype=np.float32),
        np.zeros((1, 2, 4), dtype=np.float32))
SCHEME = sc.SidScheme(base=3, ngram=2, grams=2)


def fusion_model():
    return fv.FusionModel(fv.FusionSpec((4,), 4, 8, "fsq"), seed=0)


CASES = {
    "kmeans_fit": (q.QuantizerError, lambda: q.kmeans_fit(VEC, 1, 25, 0)),
    "residual_fit": (q.QuantizerError,
                     lambda: q.residual_fit(VEC, 1, 1, 25, 0)),
    "kmeans_assign": (q.QuantizerError, lambda: q.kmeans_assign(KMEANS, VEC)),
    "residual_quantize": (q.QuantizerError,
                          lambda: q.residual_quantize([KMEANS], VEC)),
    "fsq_quantize": (q.QuantizerError, lambda: q.fsq_quantize(3, VEC)),
    "dpca_encode": (q.QuantizerError, lambda: q.dpca_encode(*DPCA, VEC)),
    "dpca_decode": (q.QuantizerError,
                    lambda: q.dpca_decode(*DPCA, np.zeros(2, dtype=np.int8))),
    "pack_all": (sc.SidError, lambda: sc.pack_all(SCHEME, [0, 0, 0, 0])),
    "unpack_all": (sc.SidError, lambda: sc.unpack_all(SCHEME, [3, 3])),
    "side_embed": (sc.SidError, lambda: sc.side_embed(SCHEME, [3, 3])),
    "sid_hash": (sc.SidError, lambda: sc.sid_hash([3, 3], 5)),
    "write_sid_file": (sc.SidError,
                       lambda: sc.write_sid_file("unused.sid", SCHEME, [3, 3])),
    "leaf": (nn.GraphError, lambda: nn.leaf(VEC)),
    "constant": (nn.GraphError, lambda: nn.constant(VEC)),
    "ParamStore.add": (nn.GraphError, lambda: nn.ParamStore().add("w", VEC)),
    "decode_from_digits": (fv.FusionError, lambda: fv.decode_from_digits(
        fusion_model(), np.zeros(4, dtype=np.int64))),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_dimensional_input_rejected(name, tmp_path, monkeypatch):
    # a write_sid_file that failed to reject its input would write here
    monkeypatch.chdir(tmp_path)
    error, call = CASES[name]
    with pytest.raises(error, match="ndim=1"):
        call()


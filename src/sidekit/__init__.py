"""sidekit: vector quantizers, semantic IDs, table-free SID embeddings,
a multi-task VQ-fusion autoencoder, and the evaluation harness around them."""

from .nn_core import (
    AdamState,
    FitConfig,
    GraphError,
    NonFiniteError,
    ParamStore,
    TrainingDiverged,
    adam_step,
    backward,
    stop_gradient,
)
from .corpus_io import FormatError, load_checkpoint, save_checkpoint
from .quantizers import (
    QuantizerError,
    dpca_decode,
    dpca_encode,
    fsq_quantize,
    kmeans_assign,
    kmeans_fit,
    kmeans_grid_decode,
    kmeans_grid_encode,
    kmeans_grid_fit,
    product_split,
    residual_fit,
    residual_quantize,
)
from .sid_codec import (
    SidError,
    SidScheme,
    pack_all,
    read_sid_file,
    sid_hash,
    side_embed,
    unpack_all,
    write_sid_file,
)
from .fusion_vae import (
    FusionError,
    FusionModel,
    FusionSpec,
    encode_corpus,
    fusion_loss,
    train,
)
from .metrics import (
    MetricError,
    NEReport,
    RecallReport,
    cosine_recon_loss,
    cosine_topk,
    knn_ground_truth,
    normalized_entropy,
    recall_at_k,
)

__version__ = "0.1.0"

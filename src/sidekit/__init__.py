"""sidekit: vector quantizers, semantic IDs, table-free SID embeddings,
a multi-task VQ-fusion autoencoder, and the evaluation harness around them.

The package exports nothing itself: import the module that holds a name,
e.g. `from sidekit import nn_core` or `from sidekit.sid_codec import
SidScheme`. The command line is `sidekit.cli`."""

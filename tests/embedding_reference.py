"""Per-segment embedding oracle: one segment, one sequence, one forward pass.

The engine embeds the overlapping segments of a speech region from one shared
frame-level pass; this reference runs every segment through the network on
its own, as a sequence of exactly its frames, with nothing shared.
"""

import numpy as np

from diarkit.network import forward_batch


def extract_embedding(net, feats) -> np.ndarray:
    """Embedding of one segment: the designated layer's pre-activation output,
    computed in inference mode (running batch-norm moments, no dropout)."""
    x = getattr(feats, "values", feats)
    result = forward_batch(net, [x], mode="inference")
    return np.array(result.values[net.spec.embedding_layer][0])

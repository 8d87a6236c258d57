"""Per-segment embedding oracle: one segment, one sequence, one forward pass.

The engine embeds the overlapping segments of a speech region from one shared
frame-level pass; this reference runs every segment through the network on
its own, as a sequence of exactly its frames, with nothing shared. stats_pool
pools one matrix through the engine's own moments, for the pooling oracles.
"""

import numpy as np

from diarkit.errors import InvalidInputError
from diarkit.network import forward_batch
from diarkit.network.layers import pool_moments


def extract_embedding(net, x) -> np.ndarray:
    """Embedding of one segment: the designated layer's pre-activation output,
    computed in inference mode (running batch-norm moments, no dropout)."""
    result = forward_batch(net, [x], mode="inference")
    return np.array(result.values[net.spec.embedding_layer][0])


def stats_pool(frames) -> np.ndarray:
    """Statistics pooling of one (T, D) matrix: mean and std stacked."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise InvalidInputError("statistics pooling needs a non-empty (T, D) matrix")
    mean, _, std = pool_moments(frames)
    return np.concatenate([mean, std])

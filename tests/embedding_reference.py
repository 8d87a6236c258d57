"""Inference oracles: one whole pass over every layer, and one segment at a time.

The engine embeds in chunks and in two stages, frame-level layers and pooling
first, dropping each value after its last reader (extract_embeddings).
inference_values is the pass it must equal: every layer in spec order over
whole sequences, with every value held. extract_embedding runs one segment
through the network on its own, as a sequence of exactly its frames, with
nothing shared. stats_pool pools one matrix through the per-window moments of
pooling_reference.
"""

import numpy as np

from diarkit.errors import InvalidInputError
from diarkit.network import graph
from pooling_reference import pool_moments


def inference_values(net, sequences, windows=None) -> dict:
    """Every value of one inference pass (running batch-norm moments, no
    dropout), keyed by layer name; windows as in forward_batch."""
    seqs = graph._sequences(net, sequences)
    rows = graph._pooling_rows(windows, tuple(s.shape[0] for s in seqs))
    values = {graph.INPUT_NAME: graph._input_batch(net, seqs)}
    graph._apply_layers(net, values, graph._Pass(net.buffers, rows, False, 0.0, None),
                        net.spec.layers)
    return values


def extract_embedding(net, x) -> np.ndarray:
    """Embedding of one segment: the designated layer's pre-activation output,
    computed in inference mode (running batch-norm moments, no dropout)."""
    return np.array(inference_values(net, [x])[net.spec.embedding_layer][0])


def stats_pool(frames) -> np.ndarray:
    """Statistics pooling of one (T, D) matrix: mean and std stacked."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise InvalidInputError("statistics pooling needs a non-empty (T, D) matrix")
    mean, _, std = pool_moments(frames)
    return np.concatenate([mean, std])

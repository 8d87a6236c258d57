"""Per-window statistics pooling, kept as an oracle for the blocked layer in
`diarkit.network.graph`. Every window's moments come from its own call, the
row average from np.mean over the row's windows, and the backward pass adds
each window's gradient into the frames in row order, then window order. The
engine layer does the same arithmetic in fewer calls, so the two must agree
bit for bit."""

from __future__ import annotations

import numpy as np

from diarkit.errors import InvalidInputError
from diarkit.network import VARIANCE_FLOOR


def pool_moments(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, population variance and standard deviation over the frame axis.

    The sums run in float64 and each moment is rounded once to the frames'
    dtype. The variance is floored at VARIANCE_FLOOR under the square root so
    the std gradient stays finite for constant input.
    """
    mean = frames.mean(axis=0, dtype=np.float64)
    centered = frames - mean
    var = np.einsum("ij,ij->j", centered, centered) / frames.shape[0]
    std = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
    return tuple(a.astype(frames.dtype, copy=False) for a in (mean, var, std))


def forward(x, rows):
    """(pooled rows, per-row window moments) of the FrameBatch x over the
    pooling rows [(sequence index, [(start, end), ...]), ...], the windows
    in input frames, as forward_batch takes them."""
    seqs = x.split()
    pooled_rows, row_caches = [], []
    for i, wins in rows:
        per_window, wcache = [], []
        for w in wins:
            a, b = int(w[0]), int(w[1]) - x.span
            if not (0 <= a < b <= seqs[i].shape[0]):
                raise InvalidInputError(f"window {w} leaves no frames")
            mean, var, std = pool_moments(seqs[i][a:b])
            per_window.append(np.concatenate([mean, std]))
            wcache.append((a, b, mean, var, std))
        pooled_rows.append(np.mean(per_window, axis=0))
        row_caches.append((i, wcache))
    return np.stack(pooled_rows), row_caches


def backward(x, g, row_caches):
    """The gradient with respect to x.data of the pooled rows, given their
    gradient g and forward's per-row window moments."""
    dim = x.data.shape[1]
    gx = np.zeros_like(x.data)
    starts = np.cumsum((0,) + x.lengths)
    for r, (i, wcache) in enumerate(row_caches):
        n_windows = len(wcache)
        dmean = g[r, :dim] / n_windows
        dstd = g[r, dim:] / n_windows
        for a, b, mean, var, std in wcache:
            rows = x.data[starts[i] + a : starts[i] + b]
            width = b - a
            gate = np.where(var > VARIANCE_FLOOR, dstd / (std * width), 0.0)
            gx[starts[i] + a : starts[i] + b] += dmean / width + (rows - mean) * gate
    return gx

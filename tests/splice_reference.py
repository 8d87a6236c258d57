"""Splicing oracles: a row-by-row gather and its adjoint, a scatter-add.

The engine never builds a spliced copy on the way back; it takes one product
per context offset instead. These spell out the spliced matrix and the
scatter of its gradient, so the per-offset gradients can be checked against
gs.T @ naive_splice(x) and unsplice(gs @ W)."""

from __future__ import annotations

import numpy as np

from diarkit.network import context_span


def naive_splice(x, context):
    """Row t stacks input rows t + offset - min_offset for every offset."""
    span = context[-1] - context[0]
    rows = [np.concatenate([x[t + o - context[0]] for o in context]) for t in range(len(x) - span)]
    return np.array(rows).reshape(len(x) - span, x.shape[1] * len(context))


def unsplice(grad_spliced: np.ndarray, context, out: np.ndarray) -> np.ndarray:
    """Scatter a gradient w.r.t. spliced rows back onto the input rows: add it
    into out, the (T, D) gradient w.r.t. the input, and return out."""
    base = context[0]
    out_len = out.shape[0] - context_span(context)
    dim = out.shape[1]
    for i, o in enumerate(context):
        out[o - base : o - base + out_len] += grad_spliced[:, i * dim : (i + 1) * dim]
    return out

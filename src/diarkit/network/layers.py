"""Layer primitives: frame splicing and the gradients of a spliced map, the
factor contexts of a factorized convolution, statistics-pooling moments, and
the semi-orthogonal projection applied to factor matrices."""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError

VARIANCE_FLOOR = 1e-10


def validate_context(context) -> tuple[int, ...]:
    ctx = tuple(int(o) for o in context)
    if not ctx:
        raise InvalidInputError("context must contain at least one offset")
    if any(b <= a for a, b in zip(ctx, ctx[1:])):
        raise InvalidInputError(f"context offsets must be strictly increasing: {ctx}")
    return ctx


def context_span(context) -> int:
    return context[-1] - context[0]


def splice(x: np.ndarray, context) -> np.ndarray:
    """Stack the rows of x at each offset of a validated context:
    (T, D) -> (T', D*len(context)).

    Output row t gathers input rows t + (offset - min_offset), i.e. the valid
    positions only; T' = T - (max - min). A singleton context returns x itself.
    """
    span = context_span(context)
    out_len = x.shape[0] - span
    if out_len < 1:
        raise InvalidInputError(f"need more than {span} frames for context {context}, got {x.shape[0]}")
    if len(context) == 1:
        return x
    base = context[0]
    return np.concatenate([x[o - base : o - base + out_len] for o in context], axis=1)


def spliced_map_grads(x, g, w, context, gw, gx) -> None:
    """Gradients of splice(x, context) @ w.T with output gradient g, added into
    gw and into gx (x's shape; None for none), by one product per offset on
    that offset's rows of x and block of w, with no spliced copy."""
    base = context[0]
    out_len = g.shape[0]
    dim = x.shape[1]
    for i, o in enumerate(context):
        rows = slice(o - base, o - base + out_len)
        block = slice(i * dim, (i + 1) * dim)
        gw[:, block] += g.T @ x[rows]
        if gx is not None:
            gx[rows] += g @ w[:, block]


def factor_contexts(context) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a layer context into the two factor contexts.

    A symmetric 3-point context {-k, 0, +k} becomes {-k, 0} for the first
    factor and {0, +k} for the second; the singleton context {0} stays {0}
    for both."""
    ctx = validate_context(context)
    if ctx == (0,):
        return (0,), (0,)
    if len(ctx) == 3 and ctx[1] == 0 and ctx[2] == -ctx[0]:
        k = ctx[2]
        return (-k, 0), (0, k)
    raise InvalidInputError(f"factorized layers need context {{0}} or {{-k,0,+k}}, got {ctx}")


def semi_orthogonalize(m: np.ndarray) -> np.ndarray:
    """Nearest matrix with orthonormal rows (Frobenius sense): U V^T from the SVD.

    A smallest singular value at most 1e-10 times max(1, the largest) is
    rank deficiency. The SVD runs in float64 and the result is rounded once to
    m's dtype, so that tolerance means the same for a float32 matrix."""
    if m.ndim != 2 or m.shape[0] > m.shape[1]:
        raise InvalidInputError(f"matrix of shape {m.shape} has more rows than columns")
    u, s, vt = np.linalg.svd(m.astype(np.float64, copy=False), full_matrices=False)
    if s[-1] <= 1e-10 * max(1.0, s[0]):
        raise InvalidInputError("rank-deficient matrix has no semi-orthogonal projection")
    return (u @ vt).astype(m.dtype, copy=False)


def ortho_residual(m: np.ndarray) -> float:
    """Frobenius distance of M M^T from the identity, with the Gram matrix
    formed in float64 so it measures the stored matrix, not the rounding of
    its products."""
    m = np.asarray(m, dtype=np.float64)
    gram = m @ m.T
    return float(np.linalg.norm(gram - np.eye(gram.shape[0])))


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

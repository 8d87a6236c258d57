"""Layer primitives: frame splicing and the gradients of a spliced map, the
factor contexts of a factorized convolution, the statistics-pooling variance
floor, and the semi-orthogonal projection applied to factor matrices."""

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
    """Nearest matrix with orthonormal rows (Frobenius sense): the polar factor
    U V^T = (m m^T)^(-1/2) m, from the eigendecomposition of the Gram matrix
    and one Bjorck step, P <- 1.5 P - 0.5 P P^T P, which takes out the error
    that squaring the condition number put in. A smallest Gram eigenvalue at
    most 1e-10 times the largest (condition number 1e5 or more), or a matrix
    that is not finite, is rank deficiency. The work runs in float64 and the
    result is rounded once to m's dtype, so that tolerance means the same for
    a float32 matrix."""
    if m.ndim != 2 or m.shape[0] > m.shape[1]:
        raise InvalidInputError(f"matrix of shape {m.shape} has more rows than columns")
    a = m.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise InvalidInputError("non-finite matrix has no semi-orthogonal projection")
    lam, q = np.linalg.eigh(a @ a.T)
    if not lam[0] > 1e-10 * lam[-1]:
        raise InvalidInputError("rank-deficient matrix has no semi-orthogonal projection")
    p = (q / np.sqrt(lam)) @ (q.T @ a)
    p = 1.5 * p - 0.5 * ((p @ p.T) @ p)
    return p.astype(m.dtype, copy=False)


def ortho_residual(m: np.ndarray) -> float:
    """Frobenius distance of M M^T from the identity, with the Gram matrix
    formed in float64 so it measures the stored matrix, not the rounding of
    its products."""
    m = np.asarray(m, dtype=np.float64)
    gram = m @ m.T
    return float(np.linalg.norm(gram - np.eye(gram.shape[0])))


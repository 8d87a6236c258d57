"""Network graph assembly and evaluation: declarative layer specs, parameter
storage, the batched training pass (forward_batch) with exact reverse-mode
gradients (backward_batch), and the one inference pass, extract_embeddings.

A network is an ordered list of named layers forming a DAG (later layers may
read any earlier output, which is what the skip connections and the
multi-branch pooling heads use). Frame-level values travel as a FrameBatch,
a ragged batch of per-sequence frame matrices stacked into one array;
segment-level values are plain (batch, dim) arrays.

LAYER_KINDS is the one place that defines a layer kind: its parameter shapes,
batch-norm buffers, frame span, spec checks, forward and backward pass.
Initialization, validation, evaluation, model files and training read the
table instead of branching on a kind's name; the one kind named outside it is
the graph rule that the embedding and output layers are dense. Both
convolution kinds are chains of spliced maps over each sequence, W for tdnn
and M then F for factorized_tdnn, with one forward and one backward pass.

The training tape keeps one entry per layer for the backward pass. An entry
holds only what no forward value holds, such as batch-norm moments, a dropout
mask, or a factorized layer's inner activation, and never the layer input:
backward_batch hands each layer its input again, the forward value itself or,
after a skip connection, the sum formed again from its two values (one
addition, the same bits), so no skip sum outlives its layer's forward.
backward_batch consumes the forward result. When it reaches a layer, every
reader of that layer's output has run its backward, so it drops the output
and the tape entry before the layer's own backward runs; each activation is
held only while backward still reads it. A layer's backward owns its output
gradient and may write into it: batch norm masks it and forms its input
gradient there. Backward splices nothing again (a convolution takes one
product per context offset on row slices), and batch norm's gradient is in
closed form, so its normalized input is never formed.

The engine computes in the dtype of the network's parameters (Network.dtype):
forward_batch casts its input sequences to it, every layer output and
gradient is allocated in it, and backward_batch takes the logits gradient in
it. A float64 network runs the float64 engine; a float32 one (what
``diarkit train`` writes) runs in float32 throughout, with these exceptions.
The pooling moments, sums of signed frames that can cancel, accumulate in
float64 and round once to the parameter dtype, and semi_orthogonalize (an
eigendecomposition of the factor's Gram matrix and one Bjorck step) and
ortho_residual work in float64. Those float64 accumulators live only inside
the call; the values, the tape and the gradients hold the parameter dtype.
Batch norm sums in the parameter dtype, by BLAS where it can: a float64
reduce over the layer was its slowest pass (0.5-0.9 ms against 0.03-0.12 ms
for a BLAS column sum at 9,500 x 32). Its batch mean is a column sum of ReLU
outputs, all >= 0, so it cannot cancel; a second column sum, of the centred
rows, measures that mean's rounding, and the shift takes it out; its sums of
squares and of products are partial sums over blocks of DOT_BLOCK_ROWS rows,
so their rounding grows with the block, not with the batch.

extract_embeddings runs in two stages, so its memory follows a chunk of
frames, not the conversation. The layers that read frame-level values, up to
and including statistics pooling, run over chunks of at most
EMBED_CHUNK_FRAMES input frames: a chunk holds whole pooling rows and never
splits a window, a lone row longer than the budget is a chunk of its own, and
input under the budget is one chunk. The segment-level layers then run once
over every chunk's pooled rows, so no dense product sees only a chunk's few
rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ..errors import Interval, InvalidInputError
from .layers import (
    VARIANCE_FLOOR,
    context_span,
    factor_contexts,
    semi_orthogonalize,
    splice,
    spliced_map_grads,
    validate_context,
)

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
# Batch norm sums its squares and products in partial sums of this many rows.
DOT_BLOCK_ROWS = 64
# Statistics pooling gathers at most this many values of its input at once,
# whatever the number of windows. Its float64 copy of them, 512 KB, stays in
# cache; blocks of 1 << 20 values took 40 % longer at the train workload's
# shapes.
POOL_BLOCK_VALUES = 1 << 16
# extract_embeddings runs the frame-level layers and pooling over chunks of at
# most this many input frames (_chunks), 82 s of speech, so its memory follows
# the chunk, not the conversation. One SAD run through a paper-width float32
# ftdnn-msa, in a process holding 124 MB before the call, peaked at 237 MB RSS
# for 6,000 frames and 312 MB for 60,000 (1,030 MB in one pass).
EMBED_CHUNK_FRAMES = 1 << 13
# Dropout draws its keep-mask in blocks of at most this many doubles (512 KB),
# not as one float64 array twice the size of a float32 layer.
DROPOUT_BLOCK_VALUES = 1 << 16

INPUT_NAME = "input"
LAYER_WIDTH_DOMAIN = Interval("layer width", 1)
DROPOUT_DOMAIN = Interval("dropout_prob", 0.0, 1.0)


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str
    in_dim: int
    out_dim: int
    context: tuple[int, ...] = (0,)
    inner_dim: int = 0
    inputs: tuple[str, ...] = (INPUT_NAME,)
    skip_from: str = ""
    # a skip source is added to the layer input; not a field, and read only by
    # perfbench's flop count (workloads.forward_flop)
    skip_mode = "sum"


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]
    embedding_layer: str
    num_speakers: int
    msa_taps: tuple[str, ...] = ()

    @property
    def output_layer(self) -> str:
        return self.layers[-1].name


@dataclass
class FrameBatch:
    """Ragged batch of frame matrices stacked row-wise.

    span counts how many frames of context the producing stack has consumed;
    row j of sequence i always corresponds to input frames [j, j + span] of
    that sequence.
    """

    data: np.ndarray
    lengths: tuple[int, ...]
    span: int = 0

    def split(self) -> list[np.ndarray]:
        out, pos = [], 0
        for length in self.lengths:
            out.append(self.data[pos : pos + length])
            pos += length
        return out

    @property
    def batch_size(self) -> int:
        return len(self.lengths)


@dataclass
class Network:
    spec: NetworkSpec
    params: dict[str, dict[str, np.ndarray]]
    buffers: dict[str, dict[str, np.ndarray]]

    def parameters(self):
        """Yield (layer_name, param_name, array) in canonical order."""
        for ls in self.spec.layers:
            for pname in param_shapes(ls):
                yield ls.name, pname, self.params[ls.name][pname]

    @property
    def dtype(self) -> np.dtype:
        """The parameter dtype, which the engine computes in."""
        return next(self.parameters())[2].dtype

    def astype(self, dtype) -> "Network":
        """A copy with every parameter and buffer cast to dtype."""
        def cast(group):
            return {name: {k: v.astype(dtype) for k, v in d.items()} for name, d in group.items()}
        return Network(self.spec, cast(self.params), cast(self.buffers))

    def factor_matrices(self):
        """Yield every parameter matrix that training holds semi-orthogonal."""
        for ls in self.spec.layers:
            for pname in LAYER_KINDS[ls.kind].semi_orthogonal:
                yield self.params[ls.name][pname]


class _Pass(NamedTuple):
    """Per-evaluation settings every layer's forward may read."""

    buffers: dict[str, dict[str, np.ndarray]]
    rows: list  # pooling rows, as forward_batch's windows
    training: bool
    dropout_prob: float
    rng: Optional[np.random.Generator]


def _data(value) -> np.ndarray:
    return value.data if isinstance(value, FrameBatch) else value


def _like(value, data: np.ndarray):
    """Wrap data at the same time level (and frame layout) as value."""
    return FrameBatch(data, value.lengths, value.span) if isinstance(value, FrameBatch) else data


class LayerKind:
    """One layer kind; the base has a single input, no parameters, no span.
    Both convolution kinds, tdnn and factorized_tdnn, are spliced-map chains
    (_Tdnn), which share one forward and one backward pass.

    shapes(ls) lists the parameters in canonical order. Those in fills start
    at that constant, the rest are fan-in uniform weights, and those in
    semi_orthogonal stay semi-orthogonal. buffers are (out_dim,) running
    moments with their start values. check(ls, sources) validates against
    the inputs' (dim, level) and returns the output level. forward(ls, params,
    inputs, run) -> (output, tape entry); backward(ls, params, grad, tape
    entry) -> (parameter gradients, one gradient per input, which may be None
    for the network input: backward_batch discards its gradient). backward
    owns grad: nothing reads it afterwards, so it may overwrite it or return
    it as an input gradient.

    backward_batch adds the layer input to the entry as in_value, forming a
    skip sum again. What forward puts in the entry must be something backward
    cannot get from in_value or the parameters: statistics per column, a
    dropout mask, an intermediate activation, never a copy or rearrangement
    of the input.
    """

    fills: dict[str, float] = {}
    semi_orthogonal: tuple[str, ...] = ()
    buffers: dict[str, float] = {}
    frame_input = False  # True when the input must be frame-level
    pools = False  # True when it turns frame-level input into segment-level rows

    def shapes(self, ls: LayerSpec) -> dict[str, tuple[int, ...]]:
        return {}

    def span(self, ls: LayerSpec) -> int:
        return 0

    def check(self, ls: LayerSpec, sources) -> str:
        if len(sources) != 1:
            raise InvalidInputError(f"{ls.name}: a {ls.kind} layer takes exactly one input")
        in_dim, level = sources[0]
        if in_dim != ls.in_dim:
            raise InvalidInputError(f"{ls.name}: expects in_dim {ls.in_dim}, gets {in_dim}")
        if self.frame_input and level != "frame":
            raise InvalidInputError(f"{ls.name}: needs frame-level input")
        return level


class _Tdnn(LayerKind):
    """A chain of spliced maps over each sequence, then a bias: tdnn and,
    through _FactorizedTdnn, factorized_tdnn. maps(ls) lists each map's
    parameter, context and input width in order; tdnn has one, W over the
    layer context. The parameter shapes, in canonical order with b last, the
    span and the tape all follow from that list.

    Forward splices each sequence and multiplies it through the chain; the
    last product goes straight into the sequence's output rows, then the bias
    is added. The tape keeps each sequence's inner activations, the inputs of
    every map but the first: none for tdnn. Backward walks the maps in reverse
    with spliced_map_grads. A layer reading only the network input, which
    backward_batch gives no gradient, forms no input gradient and returns
    None for it.
    """

    fills = {"b": 0.0}
    frame_input = True

    def maps(self, ls) -> list[tuple[str, tuple[int, ...], int]]:
        return [("W", ls.context, ls.in_dim)]

    def shapes(self, ls):
        maps = self.maps(ls)
        outs = [dim for _, _, dim in maps[1:]] + [ls.out_dim]
        shapes = {name: (out, dim * len(ctx)) for (name, ctx, dim), out in zip(maps, outs)}
        return {**shapes, "b": (ls.out_dim,)}

    def span(self, ls):
        return sum(context_span(ctx) for _, ctx, _ in self.maps(ls))

    def check(self, ls, sources):
        level = super().check(ls, sources)
        validate_context(ls.context)
        return level

    def forward(self, ls, p, xs, run):
        x = xs[0]
        span = self.span(ls)
        if min(x.lengths) <= span:
            raise InvalidInputError(
                f"{ls.name}: need more than {span} frames, shortest sequence has {min(x.lengths)}"
            )
        lengths = tuple(n - span for n in x.lengths)
        out = FrameBatch(np.empty((sum(lengths), ls.out_dim), p["b"].dtype), lengths, x.span + span)
        *inner_maps, (ctx, wt) = [(c, p[name].T) for name, c, _ in self.maps(ls)]
        inner = []
        for seq, rows in zip(x.split(), out.split()):
            hs = []
            for c, w in inner_maps:
                seq = splice(seq, c) @ w
                hs.append(seq)
            np.matmul(splice(seq, ctx), wt, out=rows)
            inner.append(hs)
        out.data += p["b"]
        return out, {"inner": inner}

    def backward(self, ls, p, g, cache):
        x = cache["in_value"]
        maps = self.maps(ls)
        grads = {name: np.zeros_like(p[name]) for name, _, _ in maps}
        grads["b"] = g.sum(axis=0)
        gx = None if ls.inputs == (INPUT_NAME,) and not ls.skip_from else np.zeros_like(x.data)
        gx_split = [None] * x.batch_size if gx is None else FrameBatch(gx, x.lengths).split()
        g_split = FrameBatch(g, tuple(n - self.span(ls) for n in x.lengths)).split()
        for seq, hs, gs, gseq in zip(x.split(), cache["inner"], g_split, gx_split):
            ins = [seq, *hs]
            for i in reversed(range(len(maps))):
                name, ctx, _ = maps[i]
                gin = np.zeros_like(ins[i]) if i else gseq
                spliced_map_grads(ins[i], gs, p[name], ctx, grads[name], gin)
                gs = gin
        return grads, [gx]


class _FactorizedTdnn(_Tdnn):
    """Two chained spliced maps, M over the first factor context into
    inner_dim and F over the second; M is the factor held semi-orthogonal."""

    semi_orthogonal = ("M",)

    def maps(self, ls):
        c1, c2 = factor_contexts(ls.context)
        return [("M", c1, ls.in_dim), ("F", c2, ls.inner_dim)]

    def check(self, ls, sources):
        level = super().check(ls, sources)
        c1, _ = factor_contexts(ls.context)
        if not (0 < ls.inner_dim < ls.out_dim and ls.inner_dim <= ls.in_dim * len(c1)):
            raise InvalidInputError(
                f"{ls.name}: inner dim {ls.inner_dim} incompatible with "
                f"{ls.in_dim}x{len(c1)} -> {ls.out_dim}"
            )
        return level


class _Dense(LayerKind):
    fills = {"b": 0.0}

    def shapes(self, ls):
        return {"W": (ls.out_dim, ls.in_dim), "b": (ls.out_dim,)}

    def forward(self, ls, p, xs, run):
        y = _data(xs[0]) @ p["W"].T
        y += p["b"]
        return _like(xs[0], y), {}

    def backward(self, ls, p, g, cache):
        return {"W": g.T @ _data(cache["in_value"]), "b": g.sum(axis=0)}, [g @ p["W"]]


class _ReluBatchNorm(LayerKind):
    """ReLU, then batch norm over the rows; optional inverted dropout after.

    The forward pass works in place in its one output array. Training makes
    7 passes over it: ReLU, the batch mean, centring, the centred rows' mean
    (the first mean's rounding), their sums of squares, one folded scale
    gamma * istd and one shift beta - offset * scale. Dropout folds its
    1 / (1 - p) into that scale and shift and applies the boolean keep-mask
    last, one pass more. Inference makes 3: ReLU, the scale gamma * istd and
    the shift beta - mean * scale of the running moments. The tape keeps only
    the mean, the inverse std, the keep-mask and the dropout scale. The
    backward pass is the closed form (Ioffe & Szegedy, arXiv:1502.03167) in
    r = relu(x) - mu, x-hat / istd: column sums of g and of g * r give the
    beta and gamma gradients and both batch means of the input gradient, and
    dx = a g - a mean(g) - c r under the ReLU mask, with a and c per column.
    It masks the output gradient and forms dx in that array, so it holds r,
    then the ReLU mask. The keep-mask is drawn in row blocks (_keep_mask).
    """

    fills = {"gamma": 1.0, "beta": 0.0}
    buffers = {"running_mean": 0.0, "running_var": 1.0}

    def shapes(self, ls):
        return {"gamma": (ls.out_dim,), "beta": (ls.out_dim,)}

    def check(self, ls, sources):
        level = super().check(ls, sources)
        if ls.in_dim != ls.out_dim:
            raise InvalidInputError(f"{ls.name}: batch norm cannot change the dimension")
        return level

    def forward(self, ls, p, xs, run):
        y = np.maximum(_data(xs[0]), 0.0)
        buf = run.buffers[ls.name]
        if run.training:  # ReLU outputs are >= 0, so their sum cannot cancel
            n = y.shape[0]
            ones = np.ones(n, y.dtype)
            mu = ones @ y / n
            y -= mu
            # the centred columns' mean is mu's rounding error; the shift takes it out
            off = ones @ y / n
            var = _column_dots(y, y) / n
            mu += off
            buf["running_mean"] *= BN_MOMENTUM
            buf["running_mean"] += (1.0 - BN_MOMENTUM) * mu
            buf["running_var"] *= BN_MOMENTUM
            buf["running_var"] += (1.0 - BN_MOMENTUM) * var
            istd = 1.0 / np.sqrt(var + BN_EPS)
            scale = p["gamma"] * istd
            shift = p["beta"] - off * scale
        else:
            mu = buf["running_mean"]
            istd = 1.0 / np.sqrt(buf["running_var"] + BN_EPS)
            scale = p["gamma"] * istd
            shift = p["beta"] - mu * scale
        keep = drop = None
        if run.dropout_prob > 0.0:
            keep = _keep_mask(run.rng, y.shape, run.dropout_prob)
            drop = 1.0 / y.dtype.type(1.0 - run.dropout_prob)
            scale, shift = scale * drop, shift * drop
        y *= scale
        y += shift
        if keep is not None:
            y *= keep
        return _like(xs[0], y), {"mu": mu, "istd": istd, "keep": keep, "scale": drop}

    def backward(self, ls, p, g, cache):
        drop = 1.0
        if cache["keep"] is not None:  # the output gradient is drop * g under the mask
            g *= cache["keep"]
            drop = cache["scale"]
        x = _data(cache["in_value"])
        n = x.shape[0]
        istd = cache["istd"]
        r = np.maximum(x, 0.0)
        r -= cache["mu"]
        sum_g = np.ones(n, g.dtype) @ g
        grads = {"gamma": _column_dots(g, r) * (drop * istd), "beta": sum_g * drop}
        # dx = a * (G - mean(G)) - a * istd * mean(G * xhat) * r where x > 0,
        # with a = gamma * istd and G = drop * g
        a = p["gamma"] * istd
        a_g = a * drop
        r *= a * istd * grads["gamma"] / n
        r += a_g * (sum_g / n)
        g *= a_g
        g -= r
        del r  # so the ReLU mask takes its place
        g *= x > 0.0
        return grads, [g]


def _keep_mask(rng: np.random.Generator, shape: tuple[int, int], p: float) -> np.ndarray:
    """rng.random(shape) >= p, drawn in blocks of rows of at most
    DROPOUT_BLOCK_VALUES doubles. The generator fills an array in row-major
    order, so the blocks take the same doubles in the same order as one draw."""
    keep = np.empty(shape, bool)
    n, d = shape
    step = max(1, DROPOUT_BLOCK_VALUES // d)
    for lo in range(0, n, step):
        np.greater_equal(rng.random((min(step, n - lo), d)), p, out=keep[lo : lo + step])
    return keep


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The column sums of a * b in one pass and in the engine dtype, added
    up as partial sums over blocks of DOT_BLOCK_ROWS rows. One running sum
    per column would carry a float32 rounding error that grows with the row
    count (7e-5 relative at 9,500 rows); the blocks keep it near 5e-7."""
    n = a.shape[0] - a.shape[0] % DOT_BLOCK_ROWS
    total = np.einsum("ij,ij->j", a[n:], b[n:])
    if n:
        shape = (-1, DOT_BLOCK_ROWS, a.shape[1])
        total += np.einsum("kij,kij->kj", a[:n].reshape(shape), b[:n].reshape(shape)).sum(axis=0)
    return total


class _StatsPool(LayerKind):
    """One output row per pooling row: mean and std over each of the row's
    windows of its source sequence, averaged over those windows.

    The windows of all rows, in row order, go in blocks: runs of consecutive
    windows of one width, of at most POOL_BLOCK_VALUES values. Forward
    gathers a block once as float64 (width, k, dim) and makes 5 passes over
    it (gather, cast, sum, centring, an einsum of the squares), where one
    call per window made 3 passes but about 10 numpy calls per window; the
    sums and their single rounding are those of one window at a time. A row
    sums its windows' statistics in window order and divides by their count.
    Backward forms a block's contributions in 4 passes (gather, centring, std
    gate, mean share) and adds them window by window in row order, so
    overlapping windows add into shared frames as one window at a time does.
    The tape keeps each window's mean, variance and std.
    """

    frame_input = True
    pools = True

    def check(self, ls, sources):
        super().check(ls, sources)
        if ls.out_dim != 2 * ls.in_dim:
            raise InvalidInputError(f"{ls.name}: pooling doubles the dimension")
        return "segment"

    def forward(self, ls, p, xs, run):
        x = xs[0]
        dim, dtype = ls.in_dim, x.data.dtype
        offsets = np.cumsum((0,) + x.lengths).tolist()
        starts, widths = [], []  # rows of x.data
        for i, wins in run.rows:
            for w in wins:
                a, b = int(w[0]), int(w[1]) - x.span
                if not (0 <= a < b <= x.lengths[i]):
                    raise InvalidInputError(
                        f"{ls.name}: window {w} leaves no frames after a {x.span}-frame receptive span"
                    )
                starts.append(offsets[i] + a)
                widths.append(b - a)
        starts, blocks = np.array(starts), _window_blocks(widths, dim)
        stats = np.empty((len(widths), 2 * dim), dtype)  # mean, then std
        var = np.empty((len(widths), dim), dtype)
        for width, lo, hi in blocks:
            if dim > 1:
                v = x.data[np.add.outer(np.arange(width), starts[lo:hi])].astype(np.float64)
            else:  # numpy sums a lone contiguous column pairwise, so keep each window's together
                v = x.data[np.add.outer(starts[lo:hi], np.arange(width))].astype(np.float64)
                v = v.swapaxes(0, 1)
            mean = v.sum(axis=0) / width
            v -= mean
            block_var = np.einsum("ikj,ikj->kj", v, v) / width
            stats[lo:hi, :dim] = mean
            stats[lo:hi, dim:] = np.sqrt(np.maximum(block_var, VARIANCE_FLOOR))
            var[lo:hi] = block_var
        counts = np.array([len(wins) for _, wins in run.rows])
        row_of = np.repeat(np.arange(len(counts)), counts)
        first = np.cumsum(counts) - counts
        pooled = stats[first]
        for j in range(1, counts.max()):
            more = counts > j
            pooled[more] += stats[first[more] + j]
        counts = counts.astype(dtype)  # an integer count would promote g to float64
        pooled /= counts[:, None]
        return pooled, {"stats": stats, "var": var, "starts": starts, "blocks": blocks,
                        "widths": np.array(widths, dtype), "row_of": row_of, "counts": counts}

    def backward(self, ls, p, g, cache):
        """Rows that share a sequence add their gradients into its frames."""
        x = _data(cache["in_value"])
        dim = ls.in_dim
        gx = np.zeros_like(x)
        g = (g / cache["counts"][:, None])[cache["row_of"]]  # each window's share
        mean, std = cache["stats"][:, :dim], cache["stats"][:, dim:]
        widths = cache["widths"][:, None]
        gate = np.where(cache["var"] > VARIANCE_FLOOR, g[:, dim:] / (std * widths), 0.0)
        dmean = g[:, :dim] / widths
        starts = cache["starts"]
        for width, lo, hi in cache["blocks"]:
            contrib = x[np.add.outer(starts[lo:hi], np.arange(width))]
            contrib -= mean[lo:hi, None]
            contrib *= gate[lo:hi, None]
            contrib += dmean[lo:hi, None]
            for a, c in zip(starts[lo:hi].tolist(), contrib):
                gx[a : a + width] += c
        return {}, [gx]


def _window_blocks(widths: list[int], dim: int) -> list[tuple[int, int, int]]:
    """(width, lo, hi) of each block of windows lo..hi-1: a run of consecutive
    windows of one width, cut so that no block gathers more than
    POOL_BLOCK_VALUES values (but at least one window)."""
    blocks, lo = [], 0
    for hi in range(1, len(widths) + 1):
        if hi == len(widths) or widths[hi] != widths[lo]:
            step = max(1, POOL_BLOCK_VALUES // (widths[lo] * dim))
            blocks += [(widths[lo], a, min(a + step, hi)) for a in range(lo, hi, step)]
            lo = hi
    return blocks


class _Concat(LayerKind):
    """Joins two or more segment-level inputs side by side."""

    def check(self, ls, sources):
        dims, levels = zip(*sources)
        if len(ls.inputs) < 2 or any(lvl != "segment" for lvl in levels):
            raise InvalidInputError(f"{ls.name}: concat joins two or more segment-level inputs")
        if ls.out_dim != sum(dims):
            raise InvalidInputError(f"{ls.name}: concat output dim must be {sum(dims)}")
        return "segment"

    def forward(self, ls, p, xs, run):
        return np.hstack(xs), {"dims": [v.shape[1] for v in xs]}

    def backward(self, ls, p, g, cache):
        parts, pos = [], 0
        for dim in cache["dims"]:
            parts.append(g[:, pos : pos + dim])
            pos += dim
        return {}, parts


LAYER_KINDS: dict[str, LayerKind] = {
    "tdnn": _Tdnn(),
    "factorized_tdnn": _FactorizedTdnn(),
    "dense": _Dense(),
    "stats_pool": _StatsPool(),
    "relu_batchnorm": _ReluBatchNorm(),
    "concat": _Concat(),
}


def param_shapes(ls: LayerSpec) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter of a layer, in canonical order."""
    return LAYER_KINDS[ls.kind].shapes(ls)


def receptive_span(spec: NetworkSpec) -> int:
    """Frames of context consumed on the deepest path through the graph, each
    layer following its first input; a sequence needs more frames than this."""
    spans = {INPUT_NAME: 0}
    for ls in spec.layers:
        spans[ls.name] = spans[ls.inputs[0]] + LAYER_KINDS[ls.kind].span(ls)
    return max(spans.values())


def validate_spec(spec: NetworkSpec) -> None:
    """Structural checks plus a full dimension/time-level walk of the graph."""
    if not spec.layers:
        raise InvalidInputError("network spec has no layers")
    seen: dict[str, LayerSpec] = {}
    # name -> (dim, level); level is "frame" or "segment"
    info: dict[str, tuple[int, str]] = {INPUT_NAME: (spec.layers[0].in_dim, "frame")}
    spans = {INPUT_NAME: 0}  # as in receptive_span
    for ls in spec.layers:
        if ls.kind not in LAYER_KINDS:
            raise InvalidInputError(f"{ls.name}: unknown layer kind {ls.kind!r}")
        if ls.name in seen or ls.name == INPUT_NAME:
            raise InvalidInputError(f"duplicate or reserved layer name {ls.name!r}")
        if ls.in_dim not in LAYER_WIDTH_DOMAIN or ls.out_dim not in LAYER_WIDTH_DOMAIN:
            raise InvalidInputError(
                f"{ls.name}: layer widths must be positive, got {ls.in_dim} -> {ls.out_dim}")
        for src in ls.inputs:
            if src not in info:
                raise InvalidInputError(f"{ls.name}: input {src!r} is not an earlier layer")
        level = LAYER_KINDS[ls.kind].check(ls, [info[src] for src in ls.inputs])
        if ls.skip_from:
            if info.get(ls.skip_from) != (ls.in_dim, "frame"):
                raise InvalidInputError(
                    f"{ls.name}: skip source must be an earlier frame-level layer of dim {ls.in_dim}"
                )
            _skip_crop(ls, spans[ls.inputs[0]], spans[ls.skip_from])
        seen[ls.name] = ls
        info[ls.name] = (ls.out_dim, level)
        spans[ls.name] = spans[ls.inputs[0]] + LAYER_KINDS[ls.kind].span(ls)
    last = spec.layers[-1]
    if last.kind != "dense" or last.out_dim != spec.num_speakers or info[last.name][1] != "segment":
        raise InvalidInputError("last layer must be the dense softmax map onto the speakers")
    if spec.embedding_layer not in seen or seen[spec.embedding_layer].kind != "dense":
        raise InvalidInputError(f"embedding layer {spec.embedding_layer!r} must be a dense layer")
    for tap in spec.msa_taps:
        if tap not in seen:
            raise InvalidInputError(f"msa tap {tap!r} is not a layer")


def _uniform_fan_in(rng: np.random.Generator, out_dim: int, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(out_dim, fan_in))


def initialize_network(spec: NetworkSpec, seed: int = 0) -> Network:
    """Uniform fan-in initialization; factor matrices start semi-orthogonal.

    Weights are drawn layer by layer, each layer's in canonical order, from
    one generator; that order is part of what a seed reproduces.
    """
    validate_spec(spec)
    rng = np.random.default_rng(seed)
    params: dict[str, dict[str, np.ndarray]] = {}
    buffers: dict[str, dict[str, np.ndarray]] = {}
    for ls in spec.layers:
        kind = LAYER_KINDS[ls.kind]
        layer = params[ls.name] = {}
        for pname, shape in param_shapes(ls).items():
            if pname in kind.fills:
                layer[pname] = np.full(shape, kind.fills[pname])
            else:
                layer[pname] = _uniform_fan_in(rng, *shape)
        for pname in kind.semi_orthogonal:
            layer[pname] = semi_orthogonalize(layer[pname])
        if kind.buffers:
            buffers[ls.name] = {b: np.full(ls.out_dim, v) for b, v in kind.buffers.items()}
    return Network(spec, params, buffers)


@dataclass
class ForwardResult:
    logits: np.ndarray
    values: dict[str, object]
    tape: dict[str, dict]  # layer name -> tape entry; backward_batch empties it


def _skip_crop(ls: LayerSpec, main_span: int, skip_span: int) -> int:
    """Rows cut from the front of each skip-source sequence to center it on
    the layer input; the span difference must be even and not negative."""
    diff = main_span - skip_span
    if diff < 0 or diff % 2 != 0:
        raise InvalidInputError(f"{ls.name}: skip source cannot be center-aligned (offset {diff})")
    return diff // 2


def _add_skip(ls: LayerSpec, main: FrameBatch, skip: FrameBatch) -> FrameBatch:
    """The layer input plus its skip source, center-cropped per sequence onto
    the input's rows, summed sequence by sequence into one new array."""
    left = _skip_crop(ls, main.span, skip.span)
    out = FrameBatch(np.empty(main.data.shape, np.result_type(main.data, skip.data)),
                     main.lengths, main.span)
    for seq_out, seq_main, seq_skip in zip(out.split(), main.split(), skip.split()):
        np.add(seq_main, seq_skip[left : left + len(seq_main)], out=seq_out)
    return out


def _layer_input(ls: LayerSpec, values: dict):
    """A layer's first input, with its skip source added when it has one."""
    x = values[ls.inputs[0]]
    return _add_skip(ls, x, values[ls.skip_from]) if ls.skip_from else x


def forward_batch(
    net: Network,
    sequences,
    windows=None,
    dropout_prob: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> ForwardResult:
    """The training pass over a list of (T_i, D) sequences.

    windows, when given, lists the pooling rows: one (sequence index,
    [(start, end), ...]) entry per segment-level output row, the windows in
    that sequence's input frames. Statistics pooling averages the row's
    per-window statistics. Training gives each utterance one row over all its
    windows; embedding gives each segment its own row, so overlapping
    segments share one frame-level pass over their region. The default is one
    row per sequence with one window spanning it.

    The pass normalizes by batch statistics, updates the running batch-norm
    moments, and records the tape backward_batch reads; its output never
    depends on the running moments. The result holds every value, as the
    tape and backward_batch need. Inference is extract_embeddings'.
    """
    DROPOUT_DOMAIN.check(dropout_prob)
    if dropout_prob and rng is None:
        raise InvalidInputError("dropout needs a random generator")
    seqs = _sequences(net, sequences)
    rows = _pooling_rows(windows, tuple(s.shape[0] for s in seqs))
    values: dict[str, object] = {INPUT_NAME: _input_batch(net, seqs)}
    tape = _apply_layers(net, values, _Pass(net.buffers, rows, True, dropout_prob, rng),
                         net.spec.layers)
    return ForwardResult(values[net.spec.output_layer], values, tape)


def _sequences(net: Network, sequences) -> list[np.ndarray]:
    """The input sequences as arrays, each (T, in_dim); at least one."""
    seqs = [np.asarray(s) for s in sequences]
    if not seqs:
        raise InvalidInputError("empty batch")
    in_dim = net.spec.layers[0].in_dim
    for s in seqs:
        if s.ndim != 2 or s.shape[1] != in_dim:
            raise InvalidInputError(f"expected (T, {in_dim}) sequences, got {s.shape}")
    return seqs


def _input_batch(net: Network, seqs: list[np.ndarray]) -> FrameBatch:
    return FrameBatch(np.vstack(seqs, dtype=net.dtype), tuple(s.shape[0] for s in seqs), 0)


def _pooling_rows(windows, lengths: tuple[int, ...]) -> list:
    """The windows argument of forward_batch, with its default filled in."""
    if windows is None:
        return [(i, [(0, n)]) for i, n in enumerate(lengths)]
    if not windows:
        raise InvalidInputError("no pooling rows")
    for row in windows:
        ok = len(row) == 2 and isinstance(row[0], (int, np.integer)) and 0 <= row[0] < len(lengths)
        if not (ok and len(row[1]) > 0 and all(0 <= a < b <= lengths[row[0]] for a, b in row[1])):
            raise InvalidInputError(
                f"pooling row {row!r} is not (sequence index, windows within the sequence)")
    return windows


def _apply_layers(
    net: Network,
    values: dict,
    run: _Pass,
    layers,
    keep=None,
) -> Optional[dict[str, dict]]:
    """Evaluate layers, in order, in place, and return the tape of a training
    pass (None in inference).

    values must already hold every value the layers read from outside
    themselves: the input batch for the whole stack, the pooled rows for
    extract_embeddings' segment-level layers. keep, when given, names the
    values held besides the output layer's; each other is dropped after its
    last reader, freeing its memory. By default all stay, as a tape needs.
    """
    tape: Optional[dict[str, dict]] = {} if run.training else None
    drop_after: list[list[str]] = [[] for _ in layers]
    if keep is not None:
        kept = set(keep) | {net.spec.output_layer}
        last_use: dict[str, int] = {}
        for i, ls in enumerate(layers):
            reads = ls.inputs + ((ls.skip_from,) if ls.skip_from else ())
            for name in (ls.name,) + reads:
                if name not in kept:
                    last_use[name] = i
        for name, i in last_use.items():
            drop_after[i].append(name)
    for ls, drop in zip(layers, drop_after):
        xs = [_layer_input(ls, values)] + [values[n] for n in ls.inputs[1:]]
        out, cache = LAYER_KINDS[ls.kind].forward(ls, net.params[ls.name], xs, run)
        if tape is not None:
            tape[ls.name] = cache
        values[ls.name] = out
        xs = out = cache = None  # so a dropped value's memory is free at once
        for name in drop:
            del values[name]
    return tape


def backward_batch(net: Network, result: ForwardResult, logits_grad: np.ndarray):
    """Exact gradients of a scalar loss w.r.t. every parameter.

    result must come from forward_batch; batch-norm gradients use the batch
    statistics recorded on its tape. The call consumes result: when it
    reaches a layer, in reverse order, every reader of that layer's output
    has run its backward, so it drops the output and the tape entry before
    the layer's own backward runs. result.logits stays, and so does the
    network input; the emptied tape makes a second call on result raise.
    logits_grad is copied, never written. Returns {layer: {param: grad}}.
    """
    if not result.tape:
        raise InvalidInputError("backward needs a forward tape")
    values, tape = result.values, result.tape
    grads: dict[str, np.ndarray] = {net.spec.output_layer: np.array(logits_grad, dtype=net.dtype)}
    param_grads: dict[str, dict[str, np.ndarray]] = {}

    def push(name: str, g: np.ndarray):
        if name == INPUT_NAME:
            return
        if name in grads:
            grads[name] += g
        else:
            grads[name] = g

    for ls in reversed(net.spec.layers):
        del values[ls.name]
        cache = tape.pop(ls.name)
        g = grads.pop(ls.name, None)
        if g is None:
            continue
        cache["in_value"] = _layer_input(ls, values)  # a skip sum is formed again
        layer_grads, input_grads = LAYER_KINDS[ls.kind].backward(ls, net.params[ls.name], g, cache)
        cache = g = None  # so a skip sum and the output gradient are free at once
        if layer_grads:
            param_grads[ls.name] = layer_grads
        for src, gx in zip(ls.inputs, input_grads):
            push(src, gx)
        if ls.skip_from:
            push(ls.skip_from, _skip_grad(ls, values[ls.inputs[0]], values[ls.skip_from],
                                          input_grads[0]))
    return param_grads


def _skip_grad(ls: LayerSpec, main: FrameBatch, skip: FrameBatch, g: np.ndarray) -> np.ndarray:
    """A skip source's gradient: the layer input's gradient g on the source's
    center-cropped rows, zero on the rest."""
    left = _skip_crop(ls, main.span, skip.span)
    gskip = _like(skip, np.zeros_like(skip.data))
    for gseq, gc in zip(gskip.split(), _like(main, g).split()):
        gseq[left : left + gc.shape[0]] = gc
    return gskip.data


def extract_embeddings(net: Network, sequences, windows=None) -> np.ndarray:
    """One embedding per pooling row (windows as in forward_batch; by default
    one row per whole sequence): the designated layer's pre-activation output,
    computed in inference mode (running batch-norm moments, no dropout), in
    the network's dtype.

    The frame-level layers and pooling run chunk by chunk (_chunks), each
    chunk at most EMBED_CHUNK_FRAMES input frames; the segment-level layers
    then run once over every chunk's pooled rows. That is exact: in inference
    frame-level row j depends only on input frames [j, j + span], so a window
    pools the same numbers in its chunk as in its whole sequence, and the
    dense products see the same rows as one pass over everything.
    """
    seqs = _sequences(net, sequences)
    rows = _pooling_rows(windows, tuple(s.shape[0] for s in seqs))
    frame_stage, segment_stage = _stages(net.spec)
    pools = [ls.name for ls in frame_stage if LAYER_KINDS[ls.kind].pools]
    parts = []
    for pieces, chunk_rows in _chunks([s.shape[0] for s in seqs], rows):
        values = {INPUT_NAME: _input_batch(net, [seqs[i][a:b] for i, (a, b) in pieces.items()])}
        _apply_layers(net, values, _Pass(net.buffers, chunk_rows, False, 0.0, None),
                      frame_stage, keep=pools)
        parts.append([values[name] for name in pools])
    # one chunk's pooled rows are taken as they are, not copied
    values = {name: pooled[0] if len(pooled) == 1 else np.concatenate(pooled)
              for name, pooled in zip(pools, zip(*parts))}
    parts = None  # so each pooled array is free once its last reader has run
    layer = net.spec.embedding_layer
    _apply_layers(net, values, _Pass(net.buffers, None, False, 0.0, None), segment_stage,
                  keep=(layer,))
    return np.array(values[layer])


def _stages(spec: NetworkSpec) -> tuple[list[LayerSpec], list[LayerSpec]]:
    """The layers that read frame-level values, ending with the pooling
    layers, and the segment-level layers after them, each in spec order."""
    frame_level = {INPUT_NAME}
    frame, segment = [], []
    for ls in spec.layers:
        if ls.inputs[0] in frame_level:
            frame.append(ls)
            if not LAYER_KINDS[ls.kind].pools:
                frame_level.add(ls.name)
        else:
            segment.append(ls)
    return frame, segment


def _chunks(lengths: list[int], rows: list) -> list[tuple[dict[int, tuple[int, int]], list]]:
    """The pooling rows, in order, cut into chunks of at most
    EMBED_CHUNK_FRAMES input frames. Each chunk is (pieces, rows): pieces maps
    a sequence to the frames lo..hi-1 the chunk takes of it, in sequence
    order; the chunk's rows index the pieces, their windows shifted by lo.

    A chunk holds whole rows, so it never splits a window. It takes a
    sequence of at most EMBED_CHUNK_FRAMES frames whole; of a longer one it
    takes the stretch from its rows' first window start to their last window
    end. A row whose stretch alone is longer than the budget is its own
    chunk, and input under the budget is one chunk of whole sequences. A
    sequence that no row names is left out.
    """
    chunks: list[tuple[dict[int, tuple[int, int]], list]] = []
    frames = 0
    for i, wins in rows:
        if lengths[i] <= EMBED_CHUNK_FRAMES:
            own = (0, lengths[i])
        else:
            own = (min(a for a, _ in wins), max(b for _, b in wins))
        pieces, held = chunks[-1] if chunks else ({}, [])
        lo, hi = pieces.get(i, own)
        merged = (min(lo, own[0]), max(hi, own[1]))
        grown = frames + merged[1] - merged[0] - (hi - lo if i in pieces else 0)
        if not held or grown > EMBED_CHUNK_FRAMES:
            pieces, held, merged, grown = {}, [], own, own[1] - own[0]
            chunks.append((pieces, held))
        pieces[i], frames = merged, grown
        held.append((i, wins))
    out = []
    for pieces, held in chunks:
        order = sorted(pieces)
        slot = {i: k for k, i in enumerate(order)}
        out.append(({i: pieces[i] for i in order},
                     [(slot[i], [(a - pieces[i][0], b - pieces[i][0]) for a, b in wins])
                      for i, wins in held]))
    return out

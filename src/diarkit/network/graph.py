"""Network graph assembly and evaluation: declarative layer specs, parameter
storage, the batched forward pass, and exact reverse-mode gradients.

A network is an ordered list of named layers forming a DAG (later layers may
read any earlier output, which is what the skip connections and the
multi-branch pooling heads use). Frame-level values travel as a FrameBatch,
a ragged batch of per-sequence frame matrices stacked into one array;
segment-level values are plain (batch, dim) arrays.

LAYER_KINDS is the one place that defines a layer kind: its parameter shapes,
batch-norm buffers, frame span, spec checks, forward and backward pass.
Initialization, validation, evaluation, model files and training read the
table instead of branching on a kind's name; the one kind named outside it is
the graph rule that the embedding and output layers are dense.

The training tape keeps one entry per layer for the backward pass. It holds
each frame-level activation once: the layer input is the forward value itself
(or, after a skip connection, the combined input), and an entry adds only
what no value holds, such as batch-norm moments, a dropout mask, or a
factorized layer's inner activation. Backward splices nothing again (a
convolution takes one product per context offset on row slices), and batch
norm's gradient is in closed form, so its normalized input is never formed.

The engine computes in the dtype of the network's parameters (Network.dtype):
forward_batch casts its input sequences to it, every layer output and
gradient is allocated in it, and backward_batch takes the logits gradient in
it. A float64 network runs the float64 engine; a float32 one (what
``diarkit train`` writes) runs in float32 throughout, except where a long sum
would cancel: batch norm's batch mean and the pooling moments
(layers.pool_moments) accumulate in float64 and round once to the parameter
dtype (batch norm's variance, of centred rows, is a BLAS sum in that dtype),
and semi_orthogonalize and ortho_residual work in float64. Those float64
accumulators live only inside the call; the values, the tape and the
gradients hold the parameter dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ..errors import InvalidInputError
from .layers import (
    VARIANCE_FLOOR,
    context_span,
    factor_contexts,
    pool_moments,
    semi_orthogonalize,
    splice,
    spliced_map_grads,
    validate_context,
)

BN_EPS = 1e-5
BN_MOMENTUM = 0.9

INPUT_NAME = "input"


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
    # a skip source is added to the layer input; not a field, but model files
    # write it and perfbench's flop count (workloads.forward_flop) reads it
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


def _check_lengths(name: str, lengths: tuple[int, ...], span: int) -> None:
    shortest = min(lengths)
    if shortest <= span:
        raise InvalidInputError(
            f"{name}: need more than {span} frames, shortest sequence has {shortest}"
        )


def _output_batch(ls: LayerSpec, x: FrameBatch, span: int, dtype) -> FrameBatch:
    """A convolution's output, uninitialized, one block of rows per sequence."""
    lengths = tuple(n - span for n in x.lengths)
    return FrameBatch(np.empty((sum(lengths), ls.out_dim), dtype), lengths, x.span + span)


def _split_rows(g: np.ndarray, x: FrameBatch, span: int) -> list[np.ndarray]:
    """A convolution's output gradient, split into its sequences."""
    return FrameBatch(g, tuple(n - span for n in x.lengths)).split()


class LayerKind:
    """One layer kind; the base has a single input, no parameters, no span.

    shapes(ls) lists the parameters in canonical order. Those in fills start
    at that constant, the rest are fan-in uniform weights, and those in
    semi_orthogonal stay semi-orthogonal. buffers are (out_dim,) running
    moments with their start values. check(ls, sources) validates against
    the inputs' (dim, level) and returns the output level. forward(ls, params,
    inputs, run) -> (output, tape entry); backward(ls, params, grad, tape
    entry) -> (parameter gradients, one gradient per input, which may be None
    for the network input: backward_batch discards its gradient).

    The graph adds the layer input to the entry as in_value. What forward
    puts in the entry must be something backward cannot get from in_value or
    the parameters: statistics per column, a dropout mask, an intermediate
    activation, never a copy or rearrangement of the input.
    """

    fills: dict[str, float] = {}
    semi_orthogonal: tuple[str, ...] = ()
    buffers: dict[str, float] = {}
    frame_input = False  # True when the input must be frame-level

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
    fills = {"b": 0.0}
    frame_input = True

    def shapes(self, ls):
        return {"W": (ls.out_dim, ls.in_dim * len(ls.context)), "b": (ls.out_dim,)}

    def span(self, ls):
        return context_span(ls.context)

    def check(self, ls, sources):
        level = super().check(ls, sources)
        validate_context(ls.context)
        return level

    def forward(self, ls, p, xs, run):
        x = xs[0]
        span = self.span(ls)
        _check_lengths(ls.name, x.lengths, span)
        wt = p["W"].T
        out = _output_batch(ls, x, span, p["b"].dtype)
        for seq, rows in zip(x.split(), out.split()):
            np.matmul(splice(seq, ls.context), wt, out=rows)
        out.data += p["b"]
        return out, {}

    @staticmethod
    def _input_grad(ls, x: FrameBatch):
        """The zeroed input gradient and its per-sequence slices. A layer
        reading only the network input, which backward_batch gives no
        gradient, gets None and a None per sequence instead."""
        if ls.inputs == (INPUT_NAME,) and not ls.skip_from:
            return None, [None] * x.batch_size
        gx = _like(x, np.zeros_like(x.data))
        return gx, gx.split()

    def backward(self, ls, p, g, cache):
        x = cache["in_value"]
        gW = np.zeros_like(p["W"])
        gb = g.sum(axis=0)
        gx, gx_split = self._input_grad(ls, x)
        for seq, gs, gseq in zip(x.split(), _split_rows(g, x, self.span(ls)), gx_split):
            spliced_map_grads(seq, gs, p["W"], ls.context, gW, gseq)
        return {"W": gW, "b": gb}, [_data(gx)]


class _FactorizedTdnn(_Tdnn):
    """Two chained spliced maps, M over the first factor context and F over
    the second; M is the factor held semi-orthogonal. The tape keeps the
    inner activation h of each sequence."""

    semi_orthogonal = ("M",)

    def shapes(self, ls):
        c1, c2 = factor_contexts(ls.context)
        return {
            "M": (ls.inner_dim, ls.in_dim * len(c1)),
            "F": (ls.out_dim, ls.inner_dim * len(c2)),
            "b": (ls.out_dim,),
        }

    def check(self, ls, sources):
        level = super().check(ls, sources)
        c1, _ = factor_contexts(ls.context)
        if not (0 < ls.inner_dim < ls.out_dim and ls.inner_dim <= ls.in_dim * len(c1)):
            raise InvalidInputError(
                f"{ls.name}: inner dim {ls.inner_dim} incompatible with "
                f"{ls.in_dim}x{len(c1)} -> {ls.out_dim}"
            )
        return level

    def forward(self, ls, p, xs, run):
        x = xs[0]
        c1, c2 = factor_contexts(ls.context)
        span = self.span(ls)
        _check_lengths(ls.name, x.lengths, span)
        mt, ft = p["M"].T, p["F"].T
        out = _output_batch(ls, x, span, p["b"].dtype)
        hs = []
        for seq, rows in zip(x.split(), out.split()):
            h = splice(seq, c1) @ mt
            np.matmul(splice(h, c2), ft, out=rows)
            hs.append(h)
        out.data += p["b"]
        return out, {"h": hs}

    def backward(self, ls, p, g, cache):
        x = cache["in_value"]
        c1, c2 = factor_contexts(ls.context)
        gM = np.zeros_like(p["M"])
        gF = np.zeros_like(p["F"])
        gb = g.sum(axis=0)
        gx, gx_split = self._input_grad(ls, x)
        gs_split = _split_rows(g, x, self.span(ls))
        for seq, h, gs, gseq in zip(x.split(), cache["h"], gs_split, gx_split):
            gh = np.zeros_like(h)
            spliced_map_grads(h, gs, p["F"], c2, gF, gh)
            spliced_map_grads(seq, gh, p["M"], c1, gM, gseq)
        return {"M": gM, "F": gF, "b": gb}, [_data(gx)]


class _Dense(LayerKind):
    fills = {"b": 0.0}

    def shapes(self, ls):
        return {"W": (ls.out_dim, ls.in_dim), "b": (ls.out_dim,)}

    def forward(self, ls, p, xs, run):
        return _like(xs[0], _data(xs[0]) @ p["W"].T + p["b"]), {}

    def backward(self, ls, p, g, cache):
        return {"W": g.T @ _data(cache["in_value"]), "b": g.sum(axis=0)}, [g @ p["W"]]


class _ReluBatchNorm(LayerKind):
    """ReLU, then batch norm over the rows; optional inverted dropout after.

    The forward pass works in place in its one output array: ReLU, subtract
    the mean, scale by the inverse std, then gamma, beta and the dropout mask.
    The tape keeps only the mean, the inverse std and the boolean keep-mask
    (its scale 1 / (1 - p) is a scalar). The backward pass is the closed
    form (Ioffe & Szegedy, arXiv:1502.03167) in r = relu(x) - mu, x-hat / istd:
    two BLAS column sums, of g and g * r, give the beta and gamma gradients
    and both batch means of the input gradient. It holds r and the input
    gradient, and with dropout the masked output gradient.
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
        if run.training:  # the mean summed in float64, rounded once
            mu = y.mean(axis=0, dtype=np.float64).astype(y.dtype, copy=False)
            y -= mu
            var = np.ones(y.shape[0], y.dtype) @ np.square(y) / y.shape[0]
            buf["running_mean"] *= BN_MOMENTUM
            buf["running_mean"] += (1.0 - BN_MOMENTUM) * mu
            buf["running_var"] *= BN_MOMENTUM
            buf["running_var"] += (1.0 - BN_MOMENTUM) * var
        else:
            mu, var = buf["running_mean"], buf["running_var"]
            y -= mu
        istd = 1.0 / np.sqrt(var + BN_EPS)
        y *= istd
        y *= p["gamma"]
        y += p["beta"]
        keep = scale = None
        if run.dropout_prob > 0.0:
            keep = run.rng.random(y.shape) >= run.dropout_prob
            scale = 1.0 / y.dtype.type(1.0 - run.dropout_prob)
            y *= keep
            y *= scale
        return _like(xs[0], y), {"mu": mu, "istd": istd, "keep": keep, "scale": scale}

    def backward(self, ls, p, g, cache):
        if cache["keep"] is not None:
            g = g * cache["keep"]
            g *= cache["scale"]
        x = _data(cache["in_value"])
        n = x.shape[0]
        ones = np.ones(n, g.dtype)
        istd = cache["istd"]
        r = np.maximum(x, 0.0)
        r -= cache["mu"]
        sum_g = ones @ g
        dx = g * r
        grads = {"gamma": (ones @ dx) * istd, "beta": sum_g}
        # dx = a * (g - mean(g)) - a * istd * mean(g * xhat) * r where x > 0
        a = p["gamma"] * istd
        np.subtract(g, sum_g / n, out=dx)
        dx *= a
        r *= grads["gamma"] * (a * istd / n)
        dx -= r
        dx *= x > 0.0
        return grads, [dx]


class _StatsPool(LayerKind):
    """One output row per pooling row: mean and std over each of the row's
    windows of its source sequence, averaged over those windows."""

    frame_input = True

    def check(self, ls, sources):
        super().check(ls, sources)
        if ls.out_dim != 2 * ls.in_dim:
            raise InvalidInputError(f"{ls.name}: pooling doubles the dimension")
        return "segment"

    def forward(self, ls, p, xs, run):
        x = xs[0]
        seqs = x.split()
        pooled_rows, row_caches = [], []
        for i, wins in run.rows:
            per_window, wcache = [], []
            for w in wins:
                a, b = int(w[0]), int(w[1]) - x.span
                if not (0 <= a < b <= seqs[i].shape[0]):
                    raise InvalidInputError(
                        f"{ls.name}: window {w} leaves no frames after a {x.span}-frame receptive span"
                    )
                mean, var, std = pool_moments(seqs[i][a:b])
                per_window.append(np.concatenate([mean, std]))
                wcache.append((a, b, mean, var, std))
            pooled_rows.append(np.mean(per_window, axis=0))
            row_caches.append((i, wcache))
        return np.stack(pooled_rows), {"rows": row_caches}

    def backward(self, ls, p, g, cache):
        """Rows that share a sequence add their gradients into its frames."""
        x = cache["in_value"]
        dim = ls.in_dim
        gx = np.zeros_like(x.data)
        starts = np.cumsum((0,) + x.lengths)
        for r, (i, wcache) in enumerate(cache["rows"]):
            n_windows = len(wcache)
            dmean = g[r, :dim] / n_windows
            dstd = g[r, dim:] / n_windows
            for a, b, mean, var, std in wcache:
                rows = x.data[starts[i] + a : starts[i] + b]
                width = b - a
                gate = np.where(var > VARIANCE_FLOOR, dstd / (std * width), 0.0)
                gx[starts[i] + a : starts[i] + b] += dmean / width + (rows - mean) * gate
        return {}, [gx]


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
    tape: Optional[dict[str, dict]]  # layer name -> tape entry; None in inference


def _skip_crop(ls: LayerSpec, main_span: int, skip_span: int) -> int:
    """Rows cut from the front of each skip-source sequence to center it on
    the layer input; the span difference must be even and not negative."""
    diff = main_span - skip_span
    if diff < 0 or diff % 2 != 0:
        raise InvalidInputError(f"{ls.name}: skip source cannot be center-aligned (offset {diff})")
    return diff // 2


def _add_skip(ls: LayerSpec, main: FrameBatch, skip: FrameBatch) -> FrameBatch:
    """The layer input plus its skip source, center-cropped per sequence onto
    the input's rows."""
    left = _skip_crop(ls, main.span, skip.span)
    cropped = np.vstack([seq_skip[left : left + seq_main.shape[0]]
                         for seq_main, seq_skip in zip(main.split(), skip.split())])
    return FrameBatch(main.data + cropped, main.lengths, main.span)


def forward_batch(
    net: Network,
    sequences,
    mode: str = "inference",
    windows=None,
    dropout_prob: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    keep=None,
) -> ForwardResult:
    """Run the graph over a list of (T_i, D) sequences.

    windows, when given, lists the pooling rows: one (sequence index,
    [(start, end), ...]) entry per segment-level output row, the windows in
    that sequence's input frames. Statistics pooling averages the row's
    per-window statistics. Training gives each utterance one row over all its
    windows; embedding gives each segment its own row, so overlapping
    segments share one frame-level pass over their region. The default is one
    row per sequence with one window spanning it.

    A training pass normalizes by batch statistics, updates the running
    batch-norm moments, and records the tape backward_batch reads; its output
    never depends on the running moments. An inference pass uses the running
    moments, applies no dropout and records no tape.

    keep, when given, names the layers whose values the result holds besides
    the output layer; every other value is dropped once its last reader has
    run, so its memory serves the layers after it. By default the result
    holds every value, as the tape and backward_batch need, so keep is
    inference-only.
    """
    if mode not in ("training", "inference"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    training = mode == "training"
    if not 0.0 <= dropout_prob < 1.0:
        raise InvalidInputError(f"dropout probability must be in [0, 1), got {dropout_prob}")
    if dropout_prob and not training:
        dropout_prob = 0.0
    if dropout_prob and rng is None:
        raise InvalidInputError("dropout needs a random generator")
    if keep is not None and training:
        raise InvalidInputError("a forward tape needs every value")
    seqs = [np.asarray(s) for s in sequences]
    if not seqs:
        raise InvalidInputError("empty batch")
    in_dim = net.spec.layers[0].in_dim
    for s in seqs:
        if s.ndim != 2 or s.shape[1] != in_dim:
            raise InvalidInputError(f"expected (T, {in_dim}) sequences, got {s.shape}")

    values: dict[str, object] = {
        INPUT_NAME: FrameBatch(np.vstack(seqs, dtype=net.dtype), tuple(s.shape[0] for s in seqs), 0)
    }
    tape = _apply_layers(net, values, windows, training, dropout_prob, rng, keep=keep)
    return ForwardResult(values[net.spec.output_layer], values, tape)


def _pooling_rows(windows, lengths: tuple[int, ...]) -> list:
    """The windows argument of forward_batch, with its default filled in."""
    if windows is None:
        return [(i, [(0, n)]) for i, n in enumerate(lengths)]
    for row in windows:
        ok = len(row) == 2 and isinstance(row[0], (int, np.integer)) and 0 <= row[0] < len(lengths)
        if not (ok and len(row[1]) > 0):
            raise InvalidInputError(f"pooling row {row!r} is not (sequence index, windows)")
    return windows


def _apply_layers(
    net: Network,
    values: dict,
    windows,
    training: bool,
    dropout_prob: float,
    rng,
    start: int = 0,
    keep=None,
) -> Optional[dict[str, dict]]:
    """Evaluate the layer stack in place, from layer index start onward, and
    return the tape of a training pass (None in inference).

    values must already hold the outputs of everything before start (at least
    the input batch). Splitting this out of forward_batch lets gradient
    checking rerun only the part of the graph a perturbed parameter can reach.
    keep is forward_batch's.
    """
    rows = _pooling_rows(windows, values[INPUT_NAME].lengths)
    run = _Pass(net.buffers, rows, training, dropout_prob, rng)
    tape: Optional[dict[str, dict]] = {} if training else None
    layers = net.spec.layers[start:]
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
        p = net.params[ls.name]
        xs = [values[n] for n in ls.inputs]
        if ls.skip_from:
            xs[0] = _add_skip(ls, xs[0], values[ls.skip_from])
        out, cache = LAYER_KINDS[ls.kind].forward(ls, p, xs, run)
        if training:
            cache["in_value"] = xs[0]
            tape[ls.name] = cache
        values[ls.name] = out
        xs = out = cache = None  # so a dropped value's memory is free at once
        for name in drop:
            del values[name]
    return tape


def backward_batch(net: Network, result: ForwardResult, logits_grad: np.ndarray):
    """Exact gradients of a scalar loss w.r.t. every parameter.

    result must come from forward_batch in training mode; batch-norm
    gradients use the batch statistics recorded on its tape.
    Returns {layer: {param: grad}}.
    """
    if result.tape is None:
        raise InvalidInputError("backward needs a forward tape")
    values = result.values
    grads: dict[str, np.ndarray] = {net.spec.output_layer: np.asarray(logits_grad, dtype=net.dtype)}
    param_grads: dict[str, dict[str, np.ndarray]] = {}

    def push(name: str, g: np.ndarray):
        if name == INPUT_NAME:
            return
        if name in grads:
            grads[name] += g
        else:
            grads[name] = g

    for ls in reversed(net.spec.layers):
        g = grads.pop(ls.name, None)
        if g is None:
            continue
        layer_grads, input_grads = LAYER_KINDS[ls.kind].backward(ls, net.params[ls.name], g,
                                                                 result.tape[ls.name])
        if layer_grads:
            param_grads[ls.name] = layer_grads
        for src, gx in zip(ls.inputs, input_grads):
            push(src, gx)
        if ls.skip_from:  # the input gradient, onto the skip source's cropped rows
            main, skip = values[ls.inputs[0]], values[ls.skip_from]
            left = _skip_crop(ls, main.span, skip.span)
            gskip = _like(skip, np.zeros_like(skip.data))
            for gseq, gc in zip(gskip.split(), _like(main, input_grads[0]).split()):
                gseq[left : left + gc.shape[0]] = gc
            push(ls.skip_from, gskip.data)
    return param_grads


def extract_embeddings(net: Network, sequences, windows=None) -> np.ndarray:
    """One embedding per pooling row (windows as in forward_batch; by default
    one row per whole sequence): the designated layer's pre-activation output,
    computed in inference mode (running batch-norm moments, no dropout), in
    the network's dtype."""
    layer = net.spec.embedding_layer
    result = forward_batch(net, sequences, mode="inference", windows=windows, keep=(layer,))
    return np.array(result.values[layer])

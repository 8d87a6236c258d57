"""Network stack: splicing, layer math, graph behavior, gradients, model files."""

import hashlib
import re
import struct
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from diarkit.errors import FormatError, InvalidInputError
from diarkit.network import graph
from diarkit.network import (
    DEFAULT_MSA_TAPS,
    VARIANCE_FLOOR,
    DimOverrides,
    LayerSpec,
    Network,
    NetworkSpec,
    backward_batch,
    build_architecture,
    context_span,
    extract_embeddings,
    factor_contexts,
    forward_batch,
    initialize_network,
    load_network,
    ortho_residual,
    param_shapes,
    receptive_span,
    save_network,
    semi_orthogonalize,
    splice,
    validate_spec,
)
from diarkit.network.layers import spliced_map_grads
from diarkit.network.model_io import spec_to_text
from diarkit.training import TrainConfig, init_velocity, train_step
import batchnorm_reference
from embedding_reference import extract_embedding, stats_pool
from gradcheck_reference import check_gradients, condition_for_fd, fd_gradients, relative_errors
from splice_reference import naive_splice, unsplice

TOL_GRAD = 1e-4
REDUCED = DimOverrides(width=32, factor_width=32, inner_dim=16,
                       pool_width=32, branch_dim=32, embed_dim=32)


def _spec(layers, embedding, num_speakers=3):
    spec = NetworkSpec(layers=tuple(layers), embedding_layer=embedding,
                       num_speakers=num_speakers, msa_taps=())
    validate_spec(spec)
    return spec


# --------------------------------------- reference convolutions (oracles)

def tdnn_forward(weights, bias, context, x):
    """Valid (un-padded) temporal convolution: affine map over spliced rows."""
    return naive_splice(x, context) @ weights.T + bias


def factorized_tdnn_forward(factor1, factor2, context, x):
    """Two chained spliced linear maps, no bias; one wider convolution."""
    c1, c2 = factor_contexts(context)
    return naive_splice(naive_splice(x, c1) @ factor1.T, c2) @ factor2.T


# ---------------------------------------------------------------- splicing

def test_splice_matches_naive_gather():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ctx = tuple(sorted(rng.choice(np.arange(-4, 5), size=rng.integers(1, 4), replace=False)))
        span = ctx[-1] - ctx[0]
        t = int(rng.integers(span + 1, span + 9))
        d = int(rng.integers(1, 5))
        x = rng.normal(size=(t, d))
        got = splice(x, ctx)
        assert got.shape == (t - span, d * len(ctx))
        assert np.array_equal(got, naive_splice(x, ctx))


def test_splice_rejects_short_input():
    with pytest.raises(InvalidInputError):
        splice(np.zeros((4, 3)), (-2, 0, 2))


def test_context_validation():
    from diarkit.network.layers import validate_context
    assert validate_context([-2, 0, 2]) == (-2, 0, 2)
    with pytest.raises(InvalidInputError):
        validate_context([])
    with pytest.raises(InvalidInputError):
        validate_context([0, 0])
    with pytest.raises(InvalidInputError):
        validate_context([2, 0])


def test_unsplice_is_splice_adjoint():
    # <splice(x), g> == <x, unsplice(g)> makes unsplice the exact transpose.
    rng = np.random.default_rng(1)
    for ctx in [(0,), (-1, 1), (-3, 0, 3), (-2, -1, 0, 1, 2)]:
        t, d = 11, 4
        x = rng.normal(size=(t, d))
        g = rng.normal(size=(t - context_span(ctx), d * len(ctx)))
        lhs = float((splice(x, ctx) * g).sum())
        rhs = float((x * unsplice(g, ctx, np.zeros((t, d)))).sum())
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
        # it adds into the rows it is given, which may be a slice of a larger array
        base = rng.normal(size=(t + 3, d))
        out = base.copy()
        rows = out[2 : 2 + t]
        assert unsplice(g, ctx, rows) is rows
        assert np.allclose(rows, base[2 : 2 + t] + unsplice(g, ctx, np.zeros((t, d))),
                           rtol=0.0, atol=1e-12)
        assert np.array_equal(out[:2], base[:2]) and np.array_equal(out[2 + t :], base[2 + t :])


def test_spliced_map_grads_match_spliced_oracle():
    """One product per offset gives the weight gradient gs.T @ splice(x) and
    the input gradient unsplice(gs @ W), added into what it is given."""
    rng = np.random.default_rng(4)
    contexts = [(0,), (0,), (-1, 1), (-2, 0), (0, 2), (-3, 0, 3), (-2, -1, 0, 1, 2)]
    contexts += [tuple(sorted(rng.choice(np.arange(-4, 5), size=rng.integers(1, 5), replace=False)))
                 for _ in range(20)]
    for ctx in contexts:
        t, d, k = int(rng.integers(context_span(ctx) + 1, 30)), int(rng.integers(1, 6)), 3
        x = rng.normal(size=(t, d))
        w = rng.normal(size=(k, d * len(ctx)))
        gs = rng.normal(size=(t - context_span(ctx), k))
        gw0, gx0 = rng.normal(size=w.shape), rng.normal(size=x.shape)
        gw, gx = gw0.copy(), gx0.copy()
        spliced_map_grads(x, gs, w, ctx, gw, gx)
        assert np.allclose(gw, gw0 + gs.T @ naive_splice(x, ctx), rtol=1e-12, atol=1e-12)
        assert np.allclose(gx, unsplice(gs @ w, ctx, gx0.copy()), rtol=1e-12, atol=1e-12)
        gw = gw0.copy()
        spliced_map_grads(x, gs, w, ctx, gw, None)
        assert np.allclose(gw, gw0 + gs.T @ naive_splice(x, ctx), rtol=1e-12, atol=1e-12)


def test_tdnn_hand_values():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    w = np.array([[1.0, 1.0]])
    got = tdnn_forward(w, np.array([0.0]), (-1, 1), x)
    assert np.array_equal(got, np.array([[4.0], [6.0]]))
    got = tdnn_forward(w, np.array([0.5]), (-1, 1), x)
    assert np.array_equal(got, np.array([[4.5], [6.5]]))


def test_factor_context_rules():
    assert factor_contexts((0,)) == ((0,), (0,))
    assert factor_contexts((-2, 0, 2)) == ((-2, 0), (0, 2))
    assert factor_contexts((-3, 0, 3)) == ((-3, 0), (0, 3))
    for bad in [(-1, 0, 2), (-2, 2), (-2, -1, 0, 1, 2)]:
        with pytest.raises(InvalidInputError):
            factor_contexts(bad)


def test_factorized_composes_to_single_conv():
    """Two half-context factors multiply out to one full-context convolution."""
    rng = np.random.default_rng(2)
    d_in, d_inner, d_out, k = 4, 3, 5, 2
    m = rng.normal(size=(d_inner, 2 * d_in))
    f = rng.normal(size=(d_out, 2 * d_inner))
    x = rng.normal(size=(12, d_in))
    m1, m2 = m[:, :d_in], m[:, d_in:]
    f1, f2 = f[:, :d_inner], f[:, d_inner:]
    w_eq = np.hstack([f1 @ m1, f1 @ m2 + f2 @ m1, f2 @ m2])
    got = factorized_tdnn_forward(m, f, (-k, 0, k), x)
    want = tdnn_forward(w_eq, np.zeros(d_out), (-k, 0, k), x)
    assert np.allclose(got, want, atol=1e-12)


# ------------------------------------------------- semi-orthogonal factors

def test_semi_orthogonalize_gram_identity():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 15))
    q = semi_orthogonalize(m)
    assert np.linalg.norm(q @ q.T - np.eye(6)) < 1e-10
    assert np.linalg.norm(semi_orthogonalize(q) - q) < 1e-12  # idempotent
    assert ortho_residual(q) < 1e-10


def test_semi_orthogonalize_errors():
    with pytest.raises(InvalidInputError):
        semi_orthogonalize(np.zeros((5, 3)))  # more rows than columns
    degenerate = np.ones((2, 4))
    with pytest.raises(InvalidInputError):
        semi_orthogonalize(degenerate)


def test_ortho_residual_hand_value():
    m = np.diag([2.0, 1.0])
    assert abs(ortho_residual(m) - 3.0) < 1e-12


# Worst residual measured on these matrices: 1.2e-7 (float32 eps is 6e-8)
F32_ORTHO_BOUND = 5e-7


def test_float32_factors_stay_semi_orthogonal():
    """Float32 factor matrices, projected at initialization and again after
    float32 training steps: the SVD runs in float64 and rounds once, so each
    stored matrix is within a few float32 roundings of the manifold, and the
    float64 Gram matrix measures that rather than its own rounding."""
    spec = build_architecture("ftdnn_msa", 4, dims=REDUCED)
    net = initialize_network(spec, seed=0).astype(np.float32)
    rng = np.random.default_rng(8)
    seqs = [rng.normal(size=(n, 23)) for n in (96, 81, 110, 88)]
    cfg = TrainConfig(window_frames=50, window_shift=25, min_window_frames=40)
    velocity = init_velocity(net)
    residuals = [ortho_residual(m) for m in net.factor_matrices()]
    for _ in range(2):
        train_step(net, velocity, seqs, np.arange(4), 0.05, cfg, project=True)
        residuals += [ortho_residual(m) for m in net.factor_matrices()]
    assert all(m.dtype == np.float32 for m in net.factor_matrices())
    assert max(residuals) < F32_ORTHO_BOUND
    # an unprojected step leaves the manifold by far more than the bound
    train_step(net, velocity, seqs, np.arange(4), 0.05, cfg)
    assert max(ortho_residual(m) for m in net.factor_matrices()) > 100 * F32_ORTHO_BOUND


# ------------------------------------------------------ statistics pooling

def test_stats_pool_matches_two_pass_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        t = int(rng.integers(2, 40))
        d = int(rng.integers(1, 8))
        x = rng.normal(rng.normal(), np.exp(rng.normal()), size=(t, d))
        got = stats_pool(x)
        mean = x.mean(axis=0)
        var = ((x - mean) ** 2).mean(axis=0)
        want = np.concatenate([mean, np.sqrt(np.maximum(var, VARIANCE_FLOOR))])
        assert np.all(np.abs(got - want) <= 1e-12)
        assert np.array_equal(got[:d], mean)


def test_stats_pool_variance_floor():
    x = np.ones((7, 3)) * 2.5
    got = stats_pool(x)
    assert np.array_equal(got[:3], np.full(3, 2.5))
    assert np.allclose(got[3:], np.sqrt(VARIANCE_FLOOR), rtol=0, atol=0)


def test_stats_pool_rejects_empty():
    with pytest.raises(InvalidInputError):
        stats_pool(np.zeros((0, 3)))


# ------------------------------------------------------------ architectures

def test_factorized_stack_layout():
    spec = build_architecture("ftdnn", 100)
    by_name = {ls.name: ls for ls in spec.layers}
    for name in [f"frame{i}" for i in range(2, 10)]:
        ls = by_name[name]
        assert ls.kind == "factorized_tdnn"
        assert ls.out_dim == 725 and ls.inner_dim == 180
    assert by_name["frame1"].context == (-2, -1, 0, 1, 2)
    assert by_name["frame2"].context == (-2, 0, 2)
    assert by_name["frame4"].context == (-3, 0, 3)
    assert by_name["frame5"].skip_from == "frame3_post"
    assert by_name["frame7"].skip_from == "frame4_post"
    assert by_name["frame9"].skip_from == "frame6_post"
    assert by_name["frame10"].out_dim == 1500
    assert by_name["stats"].out_dim == 3000
    assert by_name["segment1"].out_dim == 512
    assert spec.embedding_layer == "segment1"


def test_msa_branch_layout():
    spec = build_architecture("ftdnn_msa", 100)
    assert spec.msa_taps == DEFAULT_MSA_TAPS
    by_name = {ls.name: ls for ls in spec.layers}
    for tap in spec.msa_taps:
        assert by_name[f"pre_stats_{tap}"].out_dim == 1500
        assert by_name[f"stats_{tap}"].out_dim == 3000
        assert by_name[f"post_stats_{tap}"].out_dim == 256
        assert by_name[f"pre_stats_{tap}"].inputs == (f"{tap}_post",)
    cat = by_name["concat"]
    assert cat.inputs == tuple(f"post_stats_{t}_post" for t in spec.msa_taps)
    assert cat.out_dim == 512
    assert by_name["segment1"].out_dim == 512
    assert spec.embedding_layer == "segment1"


def test_msa_taps_sorted_and_validated():
    spec = build_architecture("ftdnn_msa", 10, taps=("frame9", "frame7"))
    assert spec.msa_taps == ("frame7", "frame9")
    with pytest.raises(InvalidInputError):
        build_architecture("ftdnn_msa", 10, taps=("frame6",))
    with pytest.raises(InvalidInputError):
        build_architecture("ftdnn_msa", 10, taps=("frame8", "frame8"))
    with pytest.raises(InvalidInputError):
        build_architecture("tdnn", 10, taps=("frame8",))
    with pytest.raises(InvalidInputError):
        build_architecture("resnet", 10)
    with pytest.raises(InvalidInputError):
        build_architecture("tdnn", 1)


def test_receptive_spans():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(150, 23))
    for arch, last, span in [("tdnn", "frame5_post", 14),
                             ("etdnn", "frame10_post", 22),
                             ("ftdnn", "frame9_post", 32),
                             ("ftdnn_msa", "frame9_post", 32)]:
        spec = build_architecture(arch, 4, dims=REDUCED)
        net = initialize_network(spec, seed=1)
        res = forward_batch(net, [x])
        assert res.values[last].lengths == (150 - span,)
        assert res.logits.shape == (1, 4)
        assert receptive_span(spec) == span
        # every pooling layer, both msa taps included, sees the full span
        pools = [ls for ls in spec.layers if ls.kind == "stats_pool"]
        assert len(pools) == max(1, len(spec.msa_taps))
        for ls in pools:
            assert res.values[ls.inputs[0]].span == span, ls.name


def test_short_sequence_raises():
    net = initialize_network(build_architecture("ftdnn", 4, dims=REDUCED), seed=1)
    with pytest.raises(InvalidInputError):
        forward_batch(net, [np.zeros((30, 23))])


# ---------------------------------------------------------- spec validation

def _pooled_head(source, dim):
    """stats_pool over source, then the embedding and output layers."""
    return [
        LayerSpec("stats", "stats_pool", dim, 2 * dim, (0,), 0, (source,)),
        LayerSpec("seg", "dense", 2 * dim, 6, (0,), 0, ("stats",)),
        LayerSpec("output", "dense", 6, 3, (0,), 0, ("seg",)),
    ]


def test_spec_rejects_several_inputs_outside_concat():
    """Only concat joins inputs; any other kind would read the first and
    silently drop the rest."""
    trunk = [
        LayerSpec("a", "tdnn", 5, 4, (-1, 0, 1), 0, ("input",)),
        LayerSpec("b", "tdnn", 5, 4, (-1, 0, 1), 0, ("input",)),
    ]
    for extra in [
        LayerSpec("x", "stats_pool", 4, 8, (0,), 0, ("a", "b")),
        LayerSpec("x", "dense", 4, 4, (0,), 0, ("a", "b")),
        LayerSpec("x", "relu_batchnorm", 4, 4, (0,), 0, ("a", "b")),
        LayerSpec("x", "tdnn", 4, 4, (0,), 0, ("a", "b")),
        LayerSpec("x", "factorized_tdnn", 4, 4, (0,), 2, ("a", "b")),
    ]:
        with pytest.raises(InvalidInputError, match="x: a .* layer takes exactly one input"):
            _spec(trunk + [extra] + _pooled_head("a", 4), "seg")
        _spec(trunk + [replace(extra, inputs=("a",))] + _pooled_head("a", 4), "seg")


def test_spec_rejects_skip_that_cannot_be_centered():
    """A skip source is center-cropped onto the layer input, which needs an
    even, non-negative span difference; validation says so up front, with the
    message the forward pass would raise."""
    def layers(context, skip_from, main="f1"):
        return [
            LayerSpec("f1", "tdnn", 5, 5, context, 0, ("input",)),
            LayerSpec("f2", "dense", 5, 5, (0,), 0, (main,), skip_from),
        ] + _pooled_head("f2", 5)

    _spec(layers((-1, 0, 1), "input"), "seg")  # offset 2: one frame each side
    odd = "f2: skip source cannot be center-aligned (offset 1)"
    with pytest.raises(InvalidInputError, match=re.escape(odd)):
        _spec(layers((-1, 0), "input"), "seg")
    with pytest.raises(InvalidInputError, match=r"center-aligned \(offset -2\)"):
        _spec(layers((-1, 0, 1), "f1", main="input"), "seg")

    # an unvalidated network with the odd offset fails at run time the same way
    net = initialize_network(_spec(layers((-1, 1), "input"), "seg"))
    bad = NetworkSpec(tuple(layers((-1, 0), "input")), "seg", 3)
    with pytest.raises(InvalidInputError) as run_time:
        forward_batch(Network(bad, net.params, net.buffers), [np.zeros((10, 5))])
    assert str(run_time.value) == odd


# ------------------------------------------------------------ graph behavior

def _reduced_msa_net(seed=1):
    spec = build_architecture("ftdnn_msa", 4, dims=REDUCED)
    return initialize_network(spec, seed=seed)


def test_embedding_is_preactivation():
    net = _reduced_msa_net()
    rng = np.random.default_rng(6)
    x = rng.normal(size=(60, 23))
    emb = extract_embedding(net, x)
    res = forward_batch(net, [x])
    assert emb.shape == (REDUCED.embed_dim,)
    assert np.array_equal(emb, res.values["segment1"][0])
    # pre-activation: the following relu would zero the negative half
    assert (emb < 0).any()
    stacked = extract_embeddings(net, [x, rng.normal(size=(55, 23))])
    assert stacked.shape == (2, REDUCED.embed_dim)
    # batching changes matmul blocking, so equality only holds to rounding
    assert np.allclose(stacked[0], emb, rtol=1e-9, atol=1e-15)


def _sources(ls):
    return ls.inputs + ((ls.skip_from,) if ls.skip_from else ())


def test_inference_frees_each_value_after_its_last_reader(monkeypatch):
    """extract_embeddings holds a layer's output only until the last layer
    reading it (as input or skip source) has run; the embedding and output
    layers stay. Checked by weak references taken as each layer runs."""
    net = _reduced_msa_net()
    layers = net.spec.layers
    assert any(ls.skip_from for ls in layers) and net.spec.msa_taps
    last = {src: i for i, ls in enumerate(layers) for src in _sources(ls)}
    kept = {net.spec.embedding_layer, net.spec.output_layer}
    order = {ls.name: i for i, ls in enumerate(layers)}
    made, alive = {}, []
    for kind in {ls.kind for ls in layers}:
        orig = graph.LAYER_KINDS[kind].forward

        def forward(ls, p, xs, run, orig=orig):
            alive.append((ls.name, {n for n, ref in made.items() if ref() is not None}))
            out, cache = orig(ls, p, xs, run)
            made[ls.name] = weakref.ref(graph._data(out))
            return out, cache

        monkeypatch.setattr(graph.LAYER_KINDS[kind], "forward", forward)
    rng = np.random.default_rng(9)
    seqs = [rng.normal(size=(n, 23)) for n in (70, 64)]
    emb = extract_embeddings(net, seqs)
    for name, names in alive:
        i = order[name]
        assert names == {ls.name for ls in layers[:i] if ls.name in kept or last[ls.name] >= i}
    monkeypatch.undo()
    full = forward_batch(net, seqs)
    assert np.array_equal(emb, full.values[net.spec.embedding_layer])
    assert len(full.values) == len(layers) + 1  # the default keeps every value
    lean = forward_batch(net, seqs, keep=())
    assert set(lean.values) == {net.spec.output_layer}
    assert np.array_equal(lean.logits, full.logits)
    with pytest.raises(InvalidInputError, match="tape"):
        forward_batch(net, seqs, mode="training", keep=())


@pytest.mark.parametrize("arch", ["tdnn", "ftdnn"])
def test_backward_skips_the_network_input_gradient(arch):
    """A layer reading only the network input returns None for its input
    gradient, which backward_batch would discard; the others return arrays."""
    net = initialize_network(build_architecture(arch, 4, dims=REDUCED), seed=0)
    x = np.random.default_rng(10).normal(size=(80, 23))
    res = forward_batch(net, [x], mode="training")
    for ls in net.spec.layers:
        if ls.kind not in ("tdnn", "factorized_tdnn"):
            continue
        g = np.ones_like(res.values[ls.name].data)
        _, (gx,) = graph.LAYER_KINDS[ls.kind].backward(ls, net.params[ls.name], g,
                                                        res.tape[ls.name])
        if _sources(ls) == (graph.INPUT_NAME,):
            assert gx is None
        else:
            assert gx.shape == res.tape[ls.name]["in_value"].data.shape


def test_concat_is_ordered_hstack():
    net = _reduced_msa_net()
    x = np.random.default_rng(7).normal(size=(70, 23))
    res = forward_batch(net, [x])
    want = np.hstack([res.values[f"post_stats_{t}_post"] for t in net.spec.msa_taps])
    assert np.array_equal(res.values["concat"], want)


def test_msa_branches_are_independent():
    net = _reduced_msa_net()
    x = np.random.default_rng(8).normal(size=(70, 23))
    before = forward_batch(net, [x]).values["concat"].copy()
    half = REDUCED.branch_dim
    net.params["pre_stats_frame9"]["W"] += 0.05
    after = forward_batch(net, [x]).values["concat"]
    assert np.array_equal(after[:, :half], before[:, :half])
    assert not np.array_equal(after[:, half:], before[:, half:])


def test_sum_skip_joins_layer_input():
    """A sum skip center-crops the source onto the layer input before the
    convolution runs."""
    net = initialize_network(build_architecture("ftdnn", 4, dims=REDUCED), seed=9)
    x = np.random.default_rng(10).normal(size=(80, 23))
    res = forward_batch(net, [x])
    main = res.values["frame4_post"]
    source = res.values["frame3_post"]
    left = (main.span - source.span) // 2
    combined = main.data + source.data[left:left + main.data.shape[0]]
    p = net.params["frame5"]
    want = factorized_tdnn_forward(p["M"], p["F"], (0,), combined) + p["b"]
    assert np.allclose(res.values["frame5"].data, want, rtol=1e-12, atol=1e-15)


def test_conv_layers_match_oracles():
    """Each sequence of a ragged batch convolves on its own."""
    net = initialize_network(build_architecture("ftdnn", 4, dims=REDUCED), seed=9)
    rng = np.random.default_rng(15)
    seqs = [rng.normal(size=(80, 23)), rng.normal(0.3, 1.1, size=(67, 23))]
    res = forward_batch(net, seqs)
    p1, p4 = net.params["frame1"], net.params["frame4"]
    for seq, got1, x4, got4 in zip(seqs, res.values["frame1"].split(),
                                   res.values["frame3_post"].split(), res.values["frame4"].split()):
        want1 = tdnn_forward(p1["W"], p1["b"], (-2, -1, 0, 1, 2), seq)
        want4 = factorized_tdnn_forward(p4["M"], p4["F"], (-3, 0, 3), x4) + p4["b"]
        assert np.allclose(got1, want1, rtol=1e-12, atol=1e-14)
        assert np.allclose(got4, want4, rtol=1e-12, atol=1e-14)


def test_inference_is_deterministic_and_frozen():
    net = _reduced_msa_net()
    x = np.random.default_rng(11).normal(size=(60, 23))
    before = {n: {k: v.copy() for k, v in d.items()} for n, d in net.buffers.items()}
    a = forward_batch(net, [x]).logits
    b = forward_batch(net, [x]).logits
    assert np.array_equal(a, b)
    for name, d in net.buffers.items():
        for key, v in d.items():
            assert np.array_equal(v, before[name][key])


def test_training_mode_buffer_switch():
    net = _reduced_msa_net()
    rng = np.random.default_rng(12)
    seqs = [rng.normal(size=(60, 23)), rng.normal(0.5, 1.2, size=(55, 23))]
    before = {n: {k: v.copy() for k, v in d.items()} for n, d in net.buffers.items()}
    forward_batch(net, seqs, mode="training")
    moved = sum(not np.array_equal(v, before[n][k])
                for n, d in net.buffers.items() for k, v in d.items())
    assert moved == 2 * len(net.buffers)


def test_repeated_window_equals_single():
    net = _reduced_msa_net()
    x = np.random.default_rng(13).normal(size=(70, 23))
    one = forward_batch(net, [x], mode="training", windows=[(0, [(0, 70)])])
    two = forward_batch(net, [x], mode="training", windows=[(0, [(0, 70), (0, 70)])])
    assert np.allclose(one.logits, two.logits, atol=1e-12)


def test_window_average_matches_pool_oracle():
    """Each pooling row averages the statistics of its own windows of its own
    sequence; rows may share a sequence and come in any order."""
    net = _reduced_msa_net()
    rng = np.random.default_rng(14)
    seqs = [rng.normal(size=(70, 23)), rng.normal(size=(50, 23))]
    rows = [(1, [(0, 50)]), (0, [(0, 50), (15, 70)]), (0, [(0, 45)])]
    res = forward_batch(net, seqs, mode="training", windows=rows)
    frames = res.values["pre_stats_frame8_post"]
    for r, (i, wins) in enumerate(rows):
        per_window = [stats_pool(frames.split()[i][a:b - frames.span]) for a, b in wins]
        want = np.mean(per_window, axis=0)
        assert np.allclose(res.values["stats_frame8"][r], want, atol=1e-12)


def test_bad_windows_raise():
    net = _reduced_msa_net()
    x = np.zeros((70, 23))
    for wins in [[(0, 32)], [(-1, 70)], [(0, 71)], [(40, 40)]]:
        with pytest.raises(InvalidInputError):
            forward_batch(net, [x], mode="training", windows=[(0, wins)])
    # rows must name a sequence of the batch and hold at least one window
    for rows in [[(1, [(0, 70)])], [(-1, [(0, 70)])], [(0, [])], [[(0, 70)]],
                 [[(0, 70), (0, 70)]]]:
        with pytest.raises(InvalidInputError):
            forward_batch(net, [x], mode="training", windows=rows)


def test_backward_requires_tape():
    net = _reduced_msa_net()
    res = forward_batch(net, [np.zeros((40, 23))])
    with pytest.raises(InvalidInputError):
        backward_batch(net, res, np.zeros((1, 4)))


# ------------------------------------------------------------ gradient checks

def _grad_case(layers, embedding, seqs, seed=0, condition=True, windows=None, **kwargs):
    spec = _spec(layers, embedding)
    net = initialize_network(spec, seed=seed)
    if condition:
        condition_for_fd(net, seqs, windows=windows)
    rows = len(seqs) if windows is None else len(windows)
    grad_out = np.random.default_rng(99).choice([-1.0, 1.0], size=(rows, 3))
    rels = check_gradients(net, seqs, grad_out, windows=windows, **kwargs)
    worst = max(rels.values())
    assert worst < TOL_GRAD, sorted(rels.items(), key=lambda kv: -kv[1])[:5]
    return rels


def test_grad_tdnn_chain():
    rng = np.random.default_rng(20)
    layers = [
        LayerSpec("frame1", "tdnn", 5, 8, (-1, 0, 1), 0, ("input",)),
        LayerSpec("frame1_post", "relu_batchnorm", 8, 8, (0,), 0, ("frame1",)),
        LayerSpec("pool_in", "dense", 8, 6, (0,), 0, ("frame1_post",)),
        LayerSpec("pool_in_post", "relu_batchnorm", 6, 6, (0,), 0, ("pool_in",)),
        LayerSpec("stats", "stats_pool", 6, 12, (0,), 0, ("pool_in_post",)),
        LayerSpec("seg", "dense", 12, 7, (0,), 0, ("stats",)),
        LayerSpec("seg_post", "relu_batchnorm", 7, 7, (0,), 0, ("seg",)),
        LayerSpec("output", "dense", 7, 3, (0,), 0, ("seg_post",)),
    ]
    seqs = [rng.normal(size=(12, 5)), rng.normal(0.4, 1.2, size=(13, 5))]
    _grad_case(layers, "seg", seqs)


def test_grad_rows_sharing_a_sequence():
    """One sequence feeds two overlapping pooling rows (one of them averaging
    two windows), so stats-pool backward adds both rows' gradients into the
    frames they share."""
    rng = np.random.default_rng(26)
    layers = [
        LayerSpec("frame1", "tdnn", 5, 8, (-1, 0, 1), 0, ("input",)),
        LayerSpec("frame1_post", "relu_batchnorm", 8, 8, (0,), 0, ("frame1",)),
        LayerSpec("pool_in", "dense", 8, 6, (0,), 0, ("frame1_post",)),
        LayerSpec("pool_in_post", "relu_batchnorm", 6, 6, (0,), 0, ("pool_in",)),
        LayerSpec("stats", "stats_pool", 6, 12, (0,), 0, ("pool_in_post",)),
        LayerSpec("seg", "dense", 12, 7, (0,), 0, ("stats",)),
        LayerSpec("seg_post", "relu_batchnorm", 7, 7, (0,), 0, ("seg",)),
        LayerSpec("output", "dense", 7, 3, (0,), 0, ("seg_post",)),
    ]
    seqs = [rng.normal(size=(16, 5)), rng.normal(0.4, 1.2, size=(13, 5))]
    windows = [(0, [(0, 10)]), (1, [(0, 13)]), (0, [(4, 16), (2, 12)])]
    _grad_case(layers, "seg", seqs, windows=windows)


def test_grad_factorized_with_sum_skip():
    rng = np.random.default_rng(21)
    layers = [
        LayerSpec("f1", "tdnn", 5, 6, (-1, 0, 1), 0, ("input",)),
        LayerSpec("f1_post", "relu_batchnorm", 6, 6, (0,), 0, ("f1",)),
        LayerSpec("f2", "factorized_tdnn", 6, 6, (-1, 0, 1), 3, ("f1_post",)),
        LayerSpec("f2_post", "relu_batchnorm", 6, 6, (0,), 0, ("f2",)),
        LayerSpec("f3", "factorized_tdnn", 6, 6, (0,), 3, ("f2_post",), "f1_post"),
        LayerSpec("f3_post", "relu_batchnorm", 6, 6, (0,), 0, ("f3",)),
        LayerSpec("stats", "stats_pool", 6, 12, (0,), 0, ("f3_post",)),
        LayerSpec("seg", "dense", 12, 7, (0,), 0, ("stats",)),
        LayerSpec("seg_post", "relu_batchnorm", 7, 7, (0,), 0, ("seg",)),
        LayerSpec("output", "dense", 7, 3, (0,), 0, ("seg_post",)),
    ]
    seqs = [rng.normal(size=(14, 5)), rng.normal(-0.3, 0.8, size=(15, 5))]
    _grad_case(layers, "seg", seqs, seed=1)


def test_grad_batchnorm_and_dropout():
    rng = np.random.default_rng(23)
    layers = [
        LayerSpec("gate", "relu_batchnorm", 5, 5, (0,), 0, ("input",)),
        LayerSpec("stats", "stats_pool", 5, 10, (0,), 0, ("gate",)),
        LayerSpec("head", "dense", 10, 4, (0,), 0, ("stats",)),
        LayerSpec("output", "dense", 4, 3, (0,), 0, ("head",)),
    ]
    # inputs bounded away from zero keep every relu mask stable under the step
    seqs = [rng.choice([-1.0, 1.0], size=(9, 5)) * rng.uniform(0.5, 2.0, size=(9, 5))
            for _ in range(3)]
    _grad_case(layers, "head", seqs, condition=False)
    _grad_case(layers, "head", seqs, condition=False, dropout_prob=0.3,
               rng_factory=lambda: np.random.default_rng(11))


def test_grad_two_branch_concat():
    rng = np.random.default_rng(24)
    layers = [
        LayerSpec("f1", "tdnn", 5, 6, (-1, 0, 1), 0, ("input",)),
        LayerSpec("f1_post", "relu_batchnorm", 6, 6, (0,), 0, ("f1",)),
        LayerSpec("pa", "dense", 6, 4, (0,), 0, ("f1_post",)),
        LayerSpec("pa_post", "relu_batchnorm", 4, 4, (0,), 0, ("pa",)),
        LayerSpec("sa", "stats_pool", 4, 8, (0,), 0, ("pa_post",)),
        LayerSpec("pb", "dense", 6, 4, (0,), 0, ("f1_post",)),
        LayerSpec("pb_post", "relu_batchnorm", 4, 4, (0,), 0, ("pb",)),
        LayerSpec("sb", "stats_pool", 4, 8, (0,), 0, ("pb_post",)),
        LayerSpec("cat", "concat", 16, 16, (0,), 0, ("sa", "sb")),
        LayerSpec("seg", "dense", 16, 5, (0,), 0, ("cat",)),
        LayerSpec("seg_post", "relu_batchnorm", 5, 5, (0,), 0, ("seg",)),
        LayerSpec("output", "dense", 5, 3, (0,), 0, ("seg_post",)),
    ]
    seqs = [rng.normal(size=(11, 5)), rng.normal(0.5, 1.1, size=(12, 5))]
    _grad_case(layers, "seg", seqs, seed=3)


def test_fd_prefix_reuse_matches_full_evaluation():
    """Restarting the graph at the perturbed layer must be bit-identical to
    evaluating the whole stack."""
    spec = build_architecture("ftdnn_msa", 3,
                              dims=DimOverrides(width=8, factor_width=8, inner_dim=4,
                                                pool_width=8, branch_dim=8, embed_dim=8))
    net = initialize_network(spec, seed=4)
    rng = np.random.default_rng(25)
    seqs = [rng.normal(size=(40, 23))]
    grad_out = rng.choice([-1.0, 1.0], size=(1, 3))
    numeric = fd_gradients(net, seqs, grad_out)

    name, pname, step = "frame4", "M", 1e-3
    arr = net.params[name][pname]
    flat = arr.ravel()
    for i in (0, arr.size // 3, arr.size - 1):
        orig = flat[i]
        vals = []
        for signed in (orig + step, orig - step):
            flat[i] = signed
            res = forward_batch(net, seqs, mode="training")
            vals.append(float((grad_out * res.logits).sum()))
        flat[i] = orig
        assert numeric[name][pname].ravel()[i] == (vals[0] - vals[1]) / (2 * step)


def test_conditioning_leaves_margins():
    net = _reduced_msa_net(seed=7)
    rng = np.random.default_rng(1007)
    seqs = [rng.normal(-1.2, 0.7, size=(35, 23)), rng.normal(0.9, 1.3, size=(35, 23))]
    condition_for_fd(net, seqs)
    res = forward_batch(net, seqs, mode="training")
    linear_hidden = [ls.name for ls in net.spec.layers
                     if ls.kind in ("tdnn", "factorized_tdnn", "dense")
                     and ls.name != "output"]
    diverse = total = 0
    for name in linear_hidden:
        val = res.values[name]
        z = val.data if hasattr(val, "lengths") else val
        assert np.abs(z).min() > 0.7, name  # nothing near a relu kink
        if z.shape[0] > len(seqs):
            signs = (z > 0)
            diverse += int(np.sum(signs.any(axis=0) & (~signs).any(axis=0)))
            total += z.shape[1]
        else:
            assert (z > 0).all(), name  # few-row channels are pushed all-live
    assert diverse / total > 0.9


def test_gradient_oracle_leaves_the_network_as_it_was():
    """Every training pass moves the running moments; the oracle puts them
    back. Conditioning changes only the parameters it rescales and re-biases,
    and the sweep changes nothing."""
    rng = np.random.default_rng(27)
    layers = [
        LayerSpec("f1", "tdnn", 5, 6, (-1, 0, 1), 0, ("input",)),
        LayerSpec("f1_post", "relu_batchnorm", 6, 6, (0,), 0, ("f1",)),
        LayerSpec("f2", "factorized_tdnn", 6, 6, (-1, 0, 1), 3, ("f1_post",)),
        LayerSpec("f2_post", "relu_batchnorm", 6, 6, (0,), 0, ("f2",)),
        LayerSpec("f3", "factorized_tdnn", 6, 6, (0,), 3, ("f2_post",), "f1_post"),
        LayerSpec("f3_post", "relu_batchnorm", 6, 6, (0,), 0, ("f3",)),
        LayerSpec("stats", "stats_pool", 6, 12, (0,), 0, ("f3_post",)),
        LayerSpec("seg", "dense", 12, 7, (0,), 0, ("stats",)),
        LayerSpec("seg_post", "relu_batchnorm", 7, 7, (0,), 0, ("seg",)),
        LayerSpec("output", "dense", 7, 3, (0,), 0, ("seg_post",)),
    ]
    net = initialize_network(_spec(layers, "seg"), seed=1)
    seqs = [rng.normal(size=(14, 5)), rng.normal(-0.3, 0.8, size=(15, 5))]
    forward_batch(net, seqs, mode="training")  # buffers away from their start values

    def snapshot():
        buffers = {(n, k): v.copy() for n, d in net.buffers.items() for k, v in d.items()}
        return buffers, {(n, p): a.copy() for n, p, a in net.parameters()}

    def changed(old, new):
        return {key for key, v in new.items() if not np.array_equal(old[key], v)}

    buffers0, params0 = snapshot()
    condition_for_fd(net, seqs)
    buffers1, params1 = snapshot()
    assert changed(buffers0, buffers1) == set()
    assert changed(params0, params1) == {
        ("f1", "W"), ("f1", "b"), ("f2", "M"), ("f2", "F"), ("f2", "b"),
        ("f3", "M"), ("f3", "F"), ("f3", "b"), ("seg", "W"), ("seg", "b"),
        ("f1_post", "gamma"), ("f2_post", "gamma"), ("f3_post", "gamma"),
        ("seg_post", "gamma"),
    }
    check_gradients(net, seqs, np.ones((2, 3)))
    buffers2, params2 = snapshot()
    assert changed(buffers1, buffers2) == set()
    assert changed(params1, params2) == set()


def test_relative_errors_floor():
    numeric = {"x": {"W": np.zeros((2, 2))}}
    assert relative_errors({}, numeric) == {"x.W": 0.0}
    analytic = {"x": {"W": np.full((2, 2), 1e-9)}}
    rels = relative_errors(analytic, numeric)
    assert rels["x.W"] == pytest.approx(2e-9 / 1e-6)


# ------------------------------------------------------------ model files

def test_model_roundtrip_bit_exact(tmp_path):
    spec = build_architecture("ftdnn_msa", 5, dims=REDUCED, taps=("frame7", "frame9"))
    for dtype in (np.float64, np.float32):
        net = initialize_network(spec, seed=6).astype(dtype)
        rng = np.random.default_rng(30)
        forward_batch(net, [rng.normal(size=(60, 23))], mode="training")  # move buffers
        path = tmp_path / f"model-{net.dtype}.xvec"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.spec == net.spec
        assert loaded.dtype == dtype
        for group, loaded_group in ((net.params, loaded.params), (net.buffers, loaded.buffers)):
            for name, d in group.items():
                for key, v in d.items():
                    got = loaded_group[name][key]
                    assert got.dtype == dtype and np.array_equal(got, v), (name, key)
        x = rng.normal(size=(50, 23))
        assert np.array_equal(extract_embedding(net, x), extract_embedding(loaded, x))


def test_model_file_errors(tmp_path):
    spec = build_architecture("tdnn", 3, dims=REDUCED)
    net = initialize_network(spec, seed=0)
    path = tmp_path / "model.xvec"
    save_network(net, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.xvec"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(FormatError):
        load_network(bad)
    bad.write_bytes(raw[:len(raw) - 40])
    with pytest.raises(FormatError):
        load_network(bad)
    bad.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_network(bad)
    bad.write_bytes(raw[:4] + struct.pack("<I", 3) + raw[8:])
    with pytest.raises(FormatError, match="version 3"):
        load_network(bad)

    save_network(net.astype(np.float32), path)
    raw = path.read_bytes()
    assert raw[4:10] == struct.pack("<I", 2) + b"f4"
    for record in (b"f2", b"i4", b"\xff4"):
        bad.write_bytes(raw[:8] + record + raw[10:])
        with pytest.raises(FormatError, match="dtype"):
            load_network(bad)
    bad.write_bytes(raw[:8] + b"f8" + raw[10:])  # float32 blobs are half the size
    with pytest.raises(FormatError, match="expected"):
        load_network(bad)
    with pytest.raises(InvalidInputError, match="float16"):
        save_network(net.astype(np.float16), path)


def _format_1_bytes(net):
    """A model file as format 1 lays it out, built here field by field."""
    text = spec_to_text(net.spec).encode("utf-8")
    parts = [b"XVEC", struct.pack("<I", 1), struct.pack("<Q", len(text)), text]
    for ls in net.spec.layers:
        arrays = [net.params[ls.name][n] for n in param_shapes(ls)]
        arrays += [net.buffers[ls.name][n] for n in graph.LAYER_KINDS[ls.kind].buffers]
        for arr in arrays:
            blob = arr.astype("<f8").tobytes()
            parts += [struct.pack("<Q", len(blob)), blob]
    return b"".join(parts)


def test_format_1_file_loads_as_float64(tmp_path):
    """A float64 model file from before the dtype record loads as float64 and
    embeds bit for bit as the network it came from; save_network still
    writes a float64 network in that layout."""
    spec = build_architecture("ftdnn_msa", 4, dims=REDUCED)
    net = initialize_network(spec, seed=9)
    rng = np.random.default_rng(31)
    seqs = [rng.normal(size=(n, 23)) for n in (70, 90)]
    forward_batch(net, seqs, mode="training")  # move buffers
    path = tmp_path / "v1.xvec"
    path.write_bytes(_format_1_bytes(net))
    loaded = load_network(path)
    assert loaded.dtype == np.float64
    rows = [(0, [(0, 70)]), (1, [(0, 60), (30, 90)]), (1, [(10, 50)])]
    assert np.array_equal(extract_embeddings(loaded, seqs, windows=rows),
                          extract_embeddings(net, seqs, windows=rows))
    save_network(net, tmp_path / "saved.xvec")
    assert (tmp_path / "saved.xvec").read_bytes() == path.read_bytes()


def test_float32_model_file_is_half_the_size(tmp_path):
    net = initialize_network(build_architecture("ftdnn_msa", 4, dims=REDUCED), seed=0)
    save_network(net, tmp_path / "f8.xvec")
    save_network(net.astype(np.float32), tmp_path / "f4.xvec")
    f8, f4 = ((tmp_path / name).stat().st_size for name in ("f8.xvec", "f4.xvec"))
    assert 0.5 < f4 / f8 < 0.51  # the spec text and the length prefixes stay


def _stock(arch, skip_mode):
    """A reduced stock spec whose model-file layer lines all end in skip_mode,
    the skip column the pins below are keyed by."""
    spec = build_architecture(arch, 4, dims=REDUCED)
    lines = [ln for ln in spec_to_text(spec).splitlines() if ln.startswith("layer ")]
    assert {ln.split()[-1] for ln in lines} == {skip_mode}
    return spec


# Pin the initial draw order and the file layout. Factor matrices pass through
# an SVD, so another LAPACK build may move their last bits and these hashes.
INIT_MODEL_SHA256 = {
    ("tdnn", "sum"): "1183977f0c896a2c4f23c643a9885ec208beaf716cbc897390be33bafd735fec",
    ("etdnn", "sum"): "5bc6207a75f7fde2320dbb37f4a483886522dbc3018d7219a5ec079a0411af1d",
    ("ftdnn", "sum"): "fc625e23b9e22531f85c0483a24f7f3cf075b895cef2fa3c1cb8b98b8d36bc29",
    ("ftdnn_msa", "sum"): "76b3e207e4964b8bd3da419e76badc342b6da3d24244b9a925594c8e1e511d20",
}


@pytest.mark.parametrize("arch,skip_mode", sorted(INIT_MODEL_SHA256))
def test_initial_model_bytes_are_pinned(tmp_path, arch, skip_mode):
    path = tmp_path / "init.xvec"
    save_network(initialize_network(_stock(arch, skip_mode), seed=0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INIT_MODEL_SHA256[arch, skip_mode]


def test_initialization_bounds_and_determinism():
    spec = build_architecture("ftdnn", 4, dims=REDUCED)
    a = initialize_network(spec, seed=42)
    b = initialize_network(spec, seed=42)
    c = initialize_network(spec, seed=43)
    w = a.params["frame1"]["W"]
    bound = np.sqrt(1.0 / (23 * 5))
    assert np.abs(w).max() <= bound and np.abs(w).max() > 0.5 * bound
    assert np.array_equal(w, b.params["frame1"]["W"])
    assert not np.array_equal(w, c.params["frame1"]["W"])
    assert np.array_equal(a.params["frame1"]["b"], np.zeros(REDUCED.width))
    # factor bottlenecks start on the constraint manifold
    assert ortho_residual(a.params["frame2"]["M"]) < 1e-10


def _trained_case(arch, skip_mode, dropout):
    """Three seeded training steps on a ragged batch (the last re-projects the
    factors), then inference embeddings of rows that share sequences."""
    net = initialize_network(_stock(arch, skip_mode), seed=0)
    rng = np.random.default_rng(21)
    seqs = [rng.normal(0.1 * i, 1.0 + 0.1 * i, size=(n, 23))
            for i, n in enumerate((96, 81, 110, 88))]
    cfg = TrainConfig(dropout_prob=dropout, window_frames=50, window_shift=25,
                      min_window_frames=40)
    velocity = init_velocity(net)
    for step in range(3):
        train_step(net, velocity, seqs, np.arange(4), 0.05, cfg, rng=rng, project=step == 2)
    rows = [(0, [(0, 60)]), (0, [(20, 80), (40, 96)]), (2, [(0, 110)]),
            (1, [(10, 81)]), (2, [(30, 90)])]
    return net, extract_embeddings(net, seqs[:3], windows=rows)


# Pin every bit of training and inference: the model after three steps and
# the embeddings it gives. The LAPACK caveat above applies.
TRAINED_SHA256 = {
    ("tdnn", "sum", 0.0): (
        "4cacf801aea676d6be8909a4894ba73ae718d7f7af21b8816792b417e5c05f1f",
        "cc9031890bfb14ccbcb7bb0b605814e744f37d527c68f8e7056ea9986ac51004",
    ),
    ("etdnn", "sum", 0.0): (
        "aa08aca989bc0bd34b7afc161ff06f649eac7452d3e947c4fcdd27ac6c42bfd7",
        "520fc3fc6d88e30b0954fec269d720561e2d6e74cb4d45a452d55339ce486efd",
    ),
    ("ftdnn", "sum", 0.0): (
        "7d71ac2cd144e3703c4f2c661dd84a319cd8b51b460097766a3e842089cfcbd3",
        "0b8594f143b60bc1e969e1db2de6ca369da2f1fa922114ce37b520278f26d61e",
    ),
    ("ftdnn_msa", "sum", 0.0): (
        "53d2c9117c5dfbbf965671d82910e788f9a16ce26c54e83c65e32f195a2b4080",
        "d04db12c12256015433eb58aa40a6880d37607bacfe996088e807d98d0ad807a",
    ),
    ("ftdnn_msa", "sum", 0.2): (
        "9373eb9895ad0036635c8d5c21de3bf8b1001d085451443690db2e1e8a5239cf",
        "d7ca42d7780587a6814b20d6b07768de45b351df9d33a3a9e21b45d3c4d238fa",
    ),
}


@pytest.mark.parametrize("arch,skip_mode,dropout", sorted(TRAINED_SHA256))
def test_trained_model_and_embeddings_are_pinned(tmp_path, arch, skip_mode, dropout):
    net, emb = _trained_case(arch, skip_mode, dropout)
    path = tmp_path / "trained.xvec"
    save_network(net, path)
    got = (hashlib.sha256(path.read_bytes()).hexdigest(),
           hashlib.sha256(np.ascontiguousarray(emb).tobytes()).hexdigest())
    assert got == TRAINED_SHA256[arch, skip_mode, dropout]


# Pin every bit of inference apart from training: seed-0 networks whose
# running batch-norm moments come from a seeded generator, embedding rows that
# share sequences, in both engine dtypes. The LAPACK caveat above applies.
INFERENCE_SHA256 = {
    ("tdnn", "float32"):
        "0f1d65f3b040132f5f97bfad65cd5d038f620972839988e1819f72246cf48351",
    ("tdnn", "float64"):
        "400be65152cfb0b4313094fa79717e1d7059d890062c919662a607bac8263f48",
    ("etdnn", "float32"):
        "1eb21af3bc3f1d701f6c798dd0a4385c8ebd29a4a1d09f8a0f93c98f33987093",
    ("etdnn", "float64"):
        "f878e22dc930b995da0f9854dda27de0b3eeba4b3bf5d24c9bc4285eec92b32e",
    ("ftdnn", "float32"):
        "f208030371b93576f2d98ee8715a8c71272f4ad7ea8cd59f0d29830bbe33e3f1",
    ("ftdnn", "float64"):
        "1d52e57700fb90ba7d3ddb0c083fcc115df9eddbdecb9fd0420727830101f74b",
    ("ftdnn_msa", "float32"):
        "7c560c595aacc1902fc392a2072daddf6051d99b8dd2cd9c8eabae5a3e212ece",
    ("ftdnn_msa", "float64"):
        "b225a2f395b63025f46c0d4710a28bde514d52239f2c34db70960b44926b6784",
}


@pytest.mark.parametrize("arch,dtype", sorted(INFERENCE_SHA256))
def test_inference_is_pinned(arch, dtype):
    net = initialize_network(build_architecture(arch, 4, dims=REDUCED), seed=0).astype(dtype)
    rng = np.random.default_rng(23)
    for layer in net.buffers.values():
        layer["running_mean"][...] = rng.uniform(0.0, 0.5, size=layer["running_mean"].shape)
        layer["running_var"][...] = rng.uniform(0.05, 0.5, size=layer["running_var"].shape)
    seqs = [rng.normal(0.1 * i, 1.0 + 0.1 * i, size=(n, 23)) for i, n in enumerate((96, 81, 110))]
    emb = extract_embeddings(net, seqs, windows=F32_ROWS)
    assert emb.dtype == dtype
    assert hashlib.sha256(np.ascontiguousarray(emb).tobytes()).hexdigest() == INFERENCE_SHA256[arch, dtype]


def _arrays(obj):
    """Every ndarray (and numpy scalar) reachable from a tape entry."""
    if isinstance(obj, (np.ndarray, np.generic)):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)
    elif hasattr(obj, "data"):  # a FrameBatch
        yield from _arrays(obj.data)


def _tape_own_fraction(arch, **dropout):
    """Bytes of 2-D tape arrays that share no memory with the forward values,
    as a fraction of the values' bytes."""
    net = initialize_network(build_architecture(arch, 4, dims=REDUCED), seed=0)
    rng = np.random.default_rng(22)
    seqs = [rng.normal(size=(n, 23)) for n in (96, 81, 110)]
    res = forward_batch(net, seqs, mode="training", **dropout)
    held = [getattr(v, "data", v) for v in res.values.values()]
    seen, own = set(), 0
    for arr in _arrays(res.tape):
        if arr.ndim == 2 and id(arr) not in seen:
            seen.add(id(arr))
            if not any(np.shares_memory(arr, h) for h in held):
                own += arr.nbytes
    return own / sum(h.nbytes for h in held)


@pytest.mark.parametrize("arch", ["tdnn", "etdnn", "ftdnn", "ftdnn_msa"])
def test_training_tape_holds_few_activation_copies(arch):
    """The tape reads activations from the forward values; what it holds of
    its own (combined skip inputs, factor bottlenecks) stays small."""
    assert _tape_own_fraction(arch) < 0.5


def test_training_tape_dropout_mask_is_boolean():
    """Dropout adds a one-byte keep-mask per batch-norm layer to the tape,
    not a float64 mask of 1 / (1 - p) values."""
    frac = _tape_own_fraction("ftdnn_msa", dropout_prob=0.2, rng=np.random.default_rng(3))
    assert frac < 0.5


def _batchnorm_case(x, dropout=0.0, seed=0):
    """One training forward of a relu_batchnorm layer on the (n, d) input x,
    its tape entry as backward_batch would pass it, and an output gradient."""
    rng = np.random.default_rng(seed)
    n, d = x.shape
    ls = LayerSpec("bn", "relu_batchnorm", d, d)
    p = {"gamma": rng.uniform(0.5, 1.5, d).astype(x.dtype),
         "beta": rng.normal(size=d).astype(x.dtype)}
    buffers = {"bn": {"running_mean": np.zeros(d, x.dtype), "running_var": np.ones(d, x.dtype)}}
    run = graph._Pass(buffers, [], True, dropout, rng)
    _, cache = graph.LAYER_KINDS["relu_batchnorm"].forward(ls, p, [x], run)
    cache["in_value"] = x
    return ls, p, rng.normal(size=(n, d)).astype(x.dtype), cache


# Peak of one backward call over the input's bytes, measured at 1600 x 750
# float32 before the closed-form gradient: 2.260 without dropout, 3.260 with.
@pytest.mark.parametrize("dropout,bound", [(0.0, 2.27), (0.2, 3.27)])
def test_batchnorm_backward_peak_memory(dropout, bound):
    """Besides per-column vectors a relu_batchnorm backward call holds r, the
    input gradient and the ReLU mask, and with dropout the masked output
    gradient: at paper widths these set train-paper's peak RSS."""
    x = np.random.default_rng(1).normal(size=(1600, 750)).astype(np.float32)
    ls, p, g, cache = _batchnorm_case(x, dropout)
    tracemalloc.start()
    try:
        graph.LAYER_KINDS["relu_batchnorm"].backward(ls, p, g, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / x.nbytes < bound


# ------------------------------------------------------------ float32 engine

# Relative Frobenius distance of the float32 engine from the float64 one on
# the same float32 parameters and inputs. Worst measured over these five
# cases: logits 6.0e-6, embeddings 1.7e-7, gradients 3.6e-5 (float32 eps is
# 6e-8; batch norm over five segment rows amplifies the rounding of its
# inputs by 1/std, which the logits and gradients see and inference does not).
# The bounds leave about ten times that.
F32_BOUNDS = {"logits": 6e-5, "embeddings": 2e-6, "gradients": 4e-4}
F32_ROWS = [(0, [(0, 60)]), (0, [(20, 80), (40, 96)]), (2, [(0, 110)]),
            (1, [(10, 81)]), (2, [(30, 90)])]


def _float32_case(arch, skip_mode):
    """A float32 network whose running moments have moved, the float64
    network with the same values, and float32-representable ragged input."""
    spec = _stock(arch, skip_mode)
    rng = np.random.default_rng(0)
    seqs = [rng.normal(0.1 * i, 1.0 + 0.1 * i, size=(n, 23)).astype(np.float32)
            for i, n in enumerate((96, 81, 110))]
    net = initialize_network(spec, seed=0)
    forward_batch(net, seqs, mode="training")
    net32 = net.astype(np.float32)
    return net32, net32.astype(np.float64), seqs


def _relative(a, ref):
    return float(np.linalg.norm(a.astype(np.float64) - ref) / np.linalg.norm(ref))


@pytest.mark.parametrize("arch,skip_mode", [("tdnn", "sum"), ("etdnn", "sum"), ("ftdnn", "sum"),
                                            ("ftdnn_msa", "sum")])
def test_float32_engine_matches_float64(arch, skip_mode):
    """Logits, embeddings and every parameter gradient of the float32 engine
    against the float64 engine on the same values, with pooling rows that
    share a sequence."""
    net32, net64, seqs = _float32_case(arch, skip_mode)
    res32 = forward_batch(net32, seqs, mode="training", windows=F32_ROWS)
    res64 = forward_batch(net64, seqs, mode="training", windows=F32_ROWS)
    grad_out = np.random.default_rng(4).choice([-1.0, 1.0], size=res64.logits.shape)
    grads32 = backward_batch(net32, res32, grad_out)
    grads64 = backward_batch(net64, res64, grad_out)
    assert set(grads32) == set(grads64) == {ls.name for ls in net64.spec.layers if param_shapes(ls)}
    errors = {
        "logits": _relative(res32.logits, res64.logits),
        "embeddings": _relative(extract_embeddings(net32, seqs, windows=F32_ROWS),
                                extract_embeddings(net64, seqs, windows=F32_ROWS)),
        "gradients": max(_relative(grads32[layer][p], g)
                         for layer, d in grads64.items() for p, g in d.items()),
    }
    assert all(errors[k] < F32_BOUNDS[k] for k in F32_BOUNDS), errors


def test_float32_training_pass_holds_only_float32():
    """Every value, tape entry and gradient of a float32 training pass, and
    the parameters, buffers and velocity after an update and a projection,
    are float32. The float64 moment accumulators (batch norm, pooling) are
    local to their call: nothing a pass keeps is float64."""
    spec = build_architecture("ftdnn_msa", 4, dims=REDUCED)
    net = initialize_network(spec, seed=0).astype(np.float32)
    rng = np.random.default_rng(12)
    seqs = [rng.normal(size=(n, 23)) for n in (96, 81, 110)]  # float64 input
    res = forward_batch(net, seqs, mode="training", windows=F32_ROWS,
                        dropout_prob=0.2, rng=rng)
    grads = backward_batch(net, res, np.ones(res.logits.shape))  # float64 logits gradient
    velocity = init_velocity(net)
    cfg = TrainConfig(window_frames=50, window_shift=25, min_window_frames=40)
    train_step(net, velocity, seqs, np.arange(3), 0.05, cfg, project=True)
    held = [res.values, res.tape, grads, net.params, net.buffers, velocity]
    dtypes = {a.dtype for a in _arrays(held) if a.dtype.kind in "fc"}
    assert dtypes == {np.dtype(np.float32)}
    assert all(e["keep"].dtype == bool for e in res.tape.values() if e.get("keep") is not None)


def _batchnorm_input(n):
    """(n, 6) float64 pre-activations: two ordinary columns, one whose every
    entry is <= 0 (ReLU passes nothing), one constant (variance 0), and two
    mixed ones with exact zeros."""
    x = np.random.default_rng(n).normal(size=(n, 6))
    x[:, 2] = -np.abs(x[:, 2])
    x[0, 2] = 0.0
    x[:, 3] = 0.7
    x[::3, 4] = 0.0
    return x


@pytest.mark.parametrize("n,dropout", [(50, 0.0), (50, 0.3), (7, 0.0), (1, 0.0), (1, 0.3)])
def test_batchnorm_closed_form_matches_xhat_reference(n, dropout):
    """The closed-form relu_batchnorm backward against the x-hat chain rule
    it replaced, on the same tape entry, in float64."""
    ls, p, g, cache = _batchnorm_case(_batchnorm_input(n), dropout, seed=n)
    got_grads, (got_dx,) = graph.LAYER_KINDS["relu_batchnorm"].backward(ls, p, g, cache)
    want_grads, (want_dx,) = batchnorm_reference.backward(p, g, cache)
    pairs = [(got_dx, want_dx)] + [(got_grads[k], want_grads[k]) for k in ("gamma", "beta")]
    for got, want in pairs:
        assert got.dtype == want.dtype == np.float64
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert not got_dx[:, 2].any() and np.array_equal(got_dx[:, 2], want_dx[:, 2])

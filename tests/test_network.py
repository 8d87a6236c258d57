"""Network stack: splicing, layer math, graph behavior, gradients, model files."""

import hashlib
import os
import platform
import re
import struct
import subprocess
import sys
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
from diarkit.training import TrainConfig, init_velocity, train_step
import batchnorm_reference
import pooling_reference
from blas_kernels import PIN_KERNELS, openblas_core
from embedding_reference import extract_embedding, inference_values, stats_pool
from gradcheck_reference import check_gradients, condition_for_fd, fd_gradients, relative_errors
from orthogonal_reference import svd_semi_orthogonalize
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


def _conditioned(rng, rows, cols, cond):
    """U diag(s) V^T with singular values spread geometrically from 1 to
    1/cond, times a random scale."""
    u, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, rows)))
    return (u * np.geomspace(1.0, 1.0 / cond, rows) * rng.uniform(0.1, 10.0)) @ v.T


@pytest.mark.parametrize("cond", [1.0, 10.0, 1e3, 1e4])
@pytest.mark.parametrize("shape", [(6, 15), (16, 64), (32, 32), (180, 725)])
def test_semi_orthogonalize_matches_svd_oracle(shape, cond):
    """The Gram-matrix projection agrees with U V^T from the SVD to a few
    hundred float64 roundings per unit of condition number (worst measured:
    4e-11 at 1e4), and lands on the manifold."""
    m = _conditioned(np.random.default_rng(int(cond) + shape[1]), *shape, cond)
    q = semi_orthogonalize(m)
    assert np.abs(q - svd_semi_orthogonalize(m)).max() < 1e-13 * cond
    assert ortho_residual(q) < 1e-10


def test_float32_projection_is_the_rounded_polar_factor():
    """A paper-width factor draw, projected and rounded to float32 as
    initialization does, equals the polar factor refined by two Bjorck steps
    in extended precision and rounded once: the float64 work is off by a few
    float64 ulps, far below one float32 rounding."""
    bound = 1.0 / np.sqrt(725)
    m = np.random.default_rng(2).uniform(-bound, bound, size=(180, 725))
    ref = semi_orthogonalize(m).astype(np.longdouble)
    for _ in range(2):
        ref = 1.5 * ref - 0.5 * ((ref @ ref.T) @ ref)
    assert np.array_equal(semi_orthogonalize(m).astype(np.float32), ref.astype(np.float32))


def test_semi_orthogonalize_errors():
    with pytest.raises(InvalidInputError):
        semi_orthogonalize(np.zeros((5, 3)))  # more rows than columns
    non_finite = np.eye(2, 4)
    non_finite[1, 3] = np.inf
    singular = [np.zeros((2, 4)), np.ones((2, 4)),
                _conditioned(np.random.default_rng(5), 6, 15, 1e6), non_finite,
                np.full((2, 4), np.nan)]
    for m in singular:
        with pytest.raises(InvalidInputError):
            semi_orthogonalize(m)


def test_ortho_residual_hand_value():
    m = np.diag([2.0, 1.0])
    assert abs(ortho_residual(m) - 3.0) < 1e-12


# Worst residual measured on these matrices: 1.2e-7 (float32 eps is 6e-8)
F32_ORTHO_BOUND = 5e-7


def test_float32_factors_stay_semi_orthogonal():
    """Float32 factor matrices, projected at initialization and again after
    float32 training steps: the projection (Gram eigendecomposition and one
    Bjorck step) runs in float64 and rounds once, so each stored matrix is
    within a few float32 roundings of the manifold, and the float64 Gram
    matrix measures that rather than its own rounding."""
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


def _pooling_case(dtype, dim=5):
    """A stats_pool layer, the frame batch it reads (span 3, so windows end
    up to 3 frames past a sequence's rows), and pooling rows with mixed
    window widths, overlapping windows, a one-frame window, several rows per
    sequence, a repeated window, and a run of equal widths that crosses from
    one sequence to the next."""
    lengths = (40, 33, 25)
    data = np.random.default_rng(31).normal(0.3, 1.5, size=(sum(lengths), dim))
    x = graph.FrameBatch(data.astype(dtype), lengths, span=3)
    rows = [(0, [(0, 20), (5, 25), (10, 30)]), (1, [(3, 23)]), (1, [(0, 36)]), (0, [(0, 43)]),
            (2, [(2, 14), (4, 28), (0, 12), (6, 18)]), (0, [(8, 20), (8, 20)]),
            (1, [(30, 36), (3, 9), (12, 16)]), (2, [(24, 28)]), (0, [(1, 21), (35, 43)])]
    return LayerSpec("stats", "stats_pool", dim, 2 * dim), x, rows


def _pool_engine(ls, x, rows, g):
    """The engine layer's pooled rows and input gradient."""
    kind = graph.LAYER_KINDS["stats_pool"]
    pooled, cache = kind.forward(ls, {}, [x], graph._Pass({}, rows, True, 0.0, None))
    cache["in_value"] = x
    return pooled, kind.backward(ls, {}, g, cache)[1][0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [1, 5])
@pytest.mark.parametrize("block", ["default", "one window"])
def test_stats_pool_layer_matches_per_window_oracle(monkeypatch, dtype, dim, block):
    """The blocked layer, forward and backward, bit for bit against one call
    per window; with the block bound at one value every block is one
    window."""
    if block == "one window":
        monkeypatch.setattr(graph, "POOL_BLOCK_VALUES", 1)
    ls, x, rows = _pooling_case(dtype, dim)
    want, row_caches = pooling_reference.forward(x, rows)
    g = np.random.default_rng(32).normal(size=want.shape).astype(dtype)
    got, gx = _pool_engine(ls, x, rows, g)
    assert got.dtype == gx.dtype == dtype
    assert np.array_equal(got, want)
    assert np.array_equal(gx, pooling_reference.backward(x, g, row_caches))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stats_pool_layer_constant_input(dtype):
    """Constant columns pool to std sqrt(VARIANCE_FLOOR) exactly, and a std
    gradient moves no frame."""
    ls, x, rows = _pooling_case(dtype)
    x.data[:] = np.linspace(-1.0, 2.5, 5)
    g = np.random.default_rng(33).normal(size=(len(rows), 10)).astype(dtype)
    g[:, :5] = 0.0
    got, gx = _pool_engine(ls, x, rows, g)
    want, row_caches = pooling_reference.forward(x, rows)
    assert np.array_equal(got, want)
    assert np.array_equal(got[:, :5], np.broadcast_to(x.data[0], (len(rows), 5)))
    one_window = [r for r, (_, wins) in enumerate(rows) if len(wins) == 1]
    assert np.all(got[one_window, 5:] == dtype(np.sqrt(VARIANCE_FLOOR)))
    assert not gx.any()


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
        values = inference_values(net, [x])
        assert values[last].lengths == (150 - span,)
        assert values[spec.output_layer].shape == (1, 4)
        assert receptive_span(spec) == span
        # every pooling layer, both msa taps included, sees the full span
        pools = [ls for ls in spec.layers if ls.kind == "stats_pool"]
        assert len(pools) == max(1, len(spec.msa_taps))
        for ls in pools:
            assert values[ls.inputs[0]].span == span, ls.name


def test_short_sequence_raises():
    net = initialize_network(build_architecture("ftdnn", 4, dims=REDUCED), seed=1)
    for run in (forward_batch, extract_embeddings):
        with pytest.raises(InvalidInputError):
            run(net, [np.zeros((30, 23))])


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
    bad = Network(NetworkSpec(tuple(layers((-1, 0), "input")), "seg", 3), net.params, net.buffers)
    for run in (forward_batch, extract_embeddings):
        with pytest.raises(InvalidInputError) as run_time:
            run(bad, [np.zeros((10, 5))])
        assert str(run_time.value) == odd


@pytest.mark.parametrize("arch,field,value", [
    ("tdnn", "width", 0), ("ftdnn", "factor_width", -3),
    ("ftdnn_msa", "embed_dim", 0), ("ftdnn_msa", "branch_dim", -1),
])
def test_spec_rejects_non_positive_widths(arch, field, value):
    """A zero or negative layer width fails validation, not the fan-in draw."""
    with pytest.raises(InvalidInputError, match="widths must be positive"):
        build_architecture(arch, 4, dims=replace(REDUCED, **{field: value}))


# ------------------------------------------------------------ graph behavior

def _reduced_msa_net(seed=1):
    spec = build_architecture("ftdnn_msa", 4, dims=REDUCED)
    return initialize_network(spec, seed=seed)


def test_embedding_is_preactivation():
    net = _reduced_msa_net()
    rng = np.random.default_rng(6)
    x = rng.normal(size=(60, 23))
    emb = extract_embedding(net, x)
    assert emb.shape == (REDUCED.embed_dim,)
    assert np.array_equal(emb, inference_values(net, [x])["segment1"][0])
    assert np.array_equal(extract_embeddings(net, [x]), emb[None])
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
    layers stay. It runs every layer once, the frame-level layers and pooling
    before the segment-level layers, so "last" follows that order, not the
    spec's. Checked by weak references taken as each layer runs."""
    net = _reduced_msa_net()
    layers = net.spec.layers
    assert any(ls.skip_from for ls in layers) and net.spec.msa_taps
    kept = {net.spec.embedding_layer, net.spec.output_layer}
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
    ran = [name for name, _ in alive]
    by_name = {ls.name: ls for ls in layers}
    assert sorted(ran) == sorted(by_name)
    last = {src: i for i, name in enumerate(ran) for src in _sources(by_name[name])}
    for i, (name, names) in enumerate(alive):
        assert names == {n for n in ran[:i] if n in kept or last[n] >= i}
    monkeypatch.undo()
    assert np.array_equal(emb, inference_values(net, seqs)[net.spec.embedding_layer])


def test_chunks_hold_whole_rows_within_the_budget(monkeypatch):
    """Rows stay in order and whole. A sequence within the budget goes whole,
    once per chunk; a longer one gives the stretch its rows span, their
    windows shifted onto it, and a row longer than the budget alone is a
    chunk of its own."""
    monkeypatch.setattr(graph, "EMBED_CHUNK_FRAMES", 100)
    rows = [(0, [(0, 80)]), (1, [(0, 20)]), (2, [(0, 150)]), (2, [(100, 180)]),
            (2, [(150, 230)]), (2, [(160, 200)]), (0, [(10, 50)])]
    assert graph._chunks([80, 20, 400], rows) == [
        ({0: (0, 80), 1: (0, 20)}, [(0, [(0, 80)]), (1, [(0, 20)])]),
        ({2: (0, 150)}, [(0, [(0, 150)])]),
        ({2: (100, 180)}, [(0, [(0, 80)])]),
        ({2: (150, 230)}, [(0, [(0, 80)]), (0, [(10, 50)])]),
        ({0: (0, 80)}, [(0, [(10, 50)])]),
    ]


@pytest.mark.parametrize("arch", ["tdnn", "etdnn", "ftdnn", "ftdnn_msa"])
def test_backward_skips_the_network_input_gradient(arch):
    """A layer reading only the network input returns None for its input
    gradient, which backward_batch would discard; the others return arrays.
    Each layer gets its tape entry and its input, a skip sum formed again,
    as backward_batch passes them. Between them the architectures run the
    spliced-map backward of tdnn and factorized_tdnn layers with and without
    an input gradient."""
    net = initialize_network(build_architecture(arch, 4, dims=REDUCED), seed=0)
    x = np.random.default_rng(10).normal(size=(80, 23))
    res = forward_batch(net, [x])
    for ls in net.spec.layers:
        if ls.kind not in ("tdnn", "factorized_tdnn"):
            continue
        g = np.ones_like(res.values[ls.name].data)
        x_in = graph._layer_input(ls, res.values)
        cache = dict(res.tape[ls.name], in_value=x_in)
        _, (gx,) = graph.LAYER_KINDS[ls.kind].backward(ls, net.params[ls.name], g, cache)
        if _sources(ls) == (graph.INPUT_NAME,):
            assert gx is None
        else:
            assert gx.shape == x_in.data.shape


def test_concat_is_ordered_hstack():
    net = _reduced_msa_net()
    x = np.random.default_rng(7).normal(size=(70, 23))
    values = inference_values(net, [x])
    want = np.hstack([values[f"post_stats_{t}_post"] for t in net.spec.msa_taps])
    assert np.array_equal(values["concat"], want)


def test_msa_branches_are_independent():
    net = _reduced_msa_net()
    x = np.random.default_rng(8).normal(size=(70, 23))
    before = inference_values(net, [x])["concat"]
    half = REDUCED.branch_dim
    net.params["pre_stats_frame9"]["W"] += 0.05
    after = inference_values(net, [x])["concat"]
    assert np.array_equal(after[:, :half], before[:, :half])
    assert not np.array_equal(after[:, half:], before[:, half:])


def test_sum_skip_joins_layer_input():
    """A sum skip center-crops the source onto the layer input before the
    convolution runs."""
    net = initialize_network(build_architecture("ftdnn", 4, dims=REDUCED), seed=9)
    x = np.random.default_rng(10).normal(size=(80, 23))
    values = inference_values(net, [x])
    main = values["frame4_post"]
    source = values["frame3_post"]
    left = (main.span - source.span) // 2
    combined = main.data + source.data[left:left + main.data.shape[0]]
    p = net.params["frame5"]
    want = factorized_tdnn_forward(p["M"], p["F"], (0,), combined) + p["b"]
    assert np.allclose(values["frame5"].data, want, rtol=1e-12, atol=1e-15)


def test_conv_layers_match_oracles():
    """Each sequence of a ragged batch convolves on its own."""
    net = initialize_network(build_architecture("ftdnn", 4, dims=REDUCED), seed=9)
    rng = np.random.default_rng(15)
    seqs = [rng.normal(size=(80, 23)), rng.normal(0.3, 1.1, size=(67, 23))]
    values = inference_values(net, seqs)
    p1, p4 = net.params["frame1"], net.params["frame4"]
    for seq, got1, x4, got4 in zip(seqs, values["frame1"].split(),
                                   values["frame3_post"].split(), values["frame4"].split()):
        want1 = tdnn_forward(p1["W"], p1["b"], (-2, -1, 0, 1, 2), seq)
        want4 = factorized_tdnn_forward(p4["M"], p4["F"], (-3, 0, 3), x4) + p4["b"]
        assert np.allclose(got1, want1, rtol=1e-12, atol=1e-14)
        assert np.allclose(got4, want4, rtol=1e-12, atol=1e-14)


STOCK_ARCHS = ["tdnn", "etdnn", "ftdnn", "ftdnn_msa"]
# Inference with the running moments set to a training pass's batch moments
# repeats that pass's embeddings to the rounding of the two batch-norm forms,
# here as a share of the largest embedding value (measured: 3e-12 in float64,
# 1.6e-4 in float32).
MOMENTS_TOL = {np.float64: 1e-10, np.float32: 1e-3}


def _moved_moments_net(arch, dtype, rng):
    """A reduced-width net in dtype whose running moments come from rng."""
    net = initialize_network(build_architecture(arch, 4, dims=REDUCED), seed=0).astype(dtype)
    for layer in net.buffers.values():
        layer["running_mean"][...] = rng.uniform(0.0, 0.5, size=layer["running_mean"].shape)
        layer["running_var"][...] = rng.uniform(0.05, 0.5, size=layer["running_var"].shape)
    return net


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("arch", STOCK_ARCHS)
def test_inference_is_deterministic_and_frozen(arch, dtype):
    """extract_embeddings normalizes by the running moments, never the
    batch's, leaves every buffer as it was, repeats itself bit for bit, and
    returns the embedding layer's pre-activation output."""
    rng = np.random.default_rng(11)
    net = _moved_moments_net(arch, dtype, rng)
    seqs = [rng.normal(0.1 * i, 1.0 + 0.1 * i, size=(n, 23)) for i, n in enumerate((60, 75, 52, 90))]
    before = {n: {k: v.copy() for k, v in d.items()} for n, d in net.buffers.items()}
    emb = extract_embeddings(net, seqs)
    assert emb.dtype == dtype and np.array_equal(extract_embeddings(net, seqs), emb)
    for name, d in net.buffers.items():
        for key, v in d.items():
            assert np.array_equal(v, before[name][key]), (name, key)
    # pre-activation: the ReLU after the embedding layer would zero the negatives
    assert np.array_equal(emb, inference_values(net, seqs)[net.spec.embedding_layer])
    assert (emb < 0).any()

    # running moments set to a training pass's batch moments give that pass's
    # embeddings; the moments drawn above give others
    trained = forward_batch(net, seqs).values
    for ls in net.spec.layers:
        if ls.kind == "relu_batchnorm":
            y = np.maximum(graph._data(trained[ls.inputs[0]]), 0.0).astype(np.float64)
            net.buffers[ls.name] = {"running_mean": y.mean(axis=0).astype(dtype),
                                    "running_var": y.var(axis=0).astype(dtype)}
    want = trained[net.spec.embedding_layer]
    tol = MOMENTS_TOL[dtype] * np.abs(want).max()
    assert np.allclose(extract_embeddings(net, seqs), want, rtol=0, atol=tol)
    assert not np.allclose(emb, want, rtol=0.1, atol=0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("arch", STOCK_ARCHS)
def test_chunked_inference_matches_the_whole_pass(arch, dtype, monkeypatch):
    """With the chunk budget cut to 500 frames, rows of several windows over
    two sequences run in five chunks, one of them a lone row over the budget
    and one holding stretches of both sequences, and still equal, bit for
    bit, one pass over the whole sequences with every value held. Each chunk
    holds at least 300 frames, so every product keeps more rows than
    OpenBLAS's few-row switch points (75 rows at most)."""
    rng = np.random.default_rng(17)
    net = _moved_moments_net(arch, dtype, rng)
    seqs = [rng.normal(size=(900, 23)), rng.normal(0.2, 1.3, size=(640, 23))]
    rows = [(0, [(0, 150), (100, 250)]), (0, [(200, 350)]), (1, [(0, 150), (75, 225)]),
            (1, [(150, 300), (250, 420)]), (0, [(400, 550), (500, 650), (600, 750)]),
            (1, [(0, 640)]), (0, [(600, 900)]), (1, [(500, 640)])]
    monkeypatch.setattr(graph, "EMBED_CHUNK_FRAMES", 500)
    chunks = graph._chunks([len(s) for s in seqs], rows)
    assert [sum(hi - lo for lo, hi in pieces.values()) for pieces, _ in chunks] == [
        350, 420, 350, 640, 440]
    emb = extract_embeddings(net, seqs, rows)
    assert emb.dtype == dtype
    assert np.array_equal(emb, inference_values(net, seqs, rows)[net.spec.embedding_layer])


def test_training_mode_buffer_switch():
    net = _reduced_msa_net()
    rng = np.random.default_rng(12)
    seqs = [rng.normal(size=(60, 23)), rng.normal(0.5, 1.2, size=(55, 23))]
    before = {n: {k: v.copy() for k, v in d.items()} for n, d in net.buffers.items()}
    forward_batch(net, seqs)
    moved = sum(not np.array_equal(v, before[n][k])
                for n, d in net.buffers.items() for k, v in d.items())
    assert moved == 2 * len(net.buffers)
    for removed in ({"mode": "inference"}, {"keep": ()}):  # the pass only trains
        with pytest.raises(TypeError):
            forward_batch(net, seqs, **removed)


def test_repeated_window_equals_single():
    net = _reduced_msa_net()
    x = np.random.default_rng(13).normal(size=(70, 23))
    one = forward_batch(net, [x], windows=[(0, [(0, 70)])])
    two = forward_batch(net, [x], windows=[(0, [(0, 70), (0, 70)])])
    assert np.allclose(one.logits, two.logits, atol=1e-12)


def test_window_average_matches_pool_oracle():
    """Each pooling row averages the statistics of its own windows of its own
    sequence; rows may share a sequence and come in any order."""
    net = _reduced_msa_net()
    rng = np.random.default_rng(14)
    seqs = [rng.normal(size=(70, 23)), rng.normal(size=(50, 23))]
    rows = [(1, [(0, 50)]), (0, [(0, 50), (15, 70)]), (0, [(0, 45)])]
    res = forward_batch(net, seqs, windows=rows)
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
            forward_batch(net, [x], windows=[(0, wins)])
    # rows must name a sequence of the batch and hold at least one window
    for rows in [[(1, [(0, 70)])], [(-1, [(0, 70)])], [(0, [])], [[(0, 70)]],
                 [[(0, 70), (0, 70)]]]:
        with pytest.raises(InvalidInputError):
            forward_batch(net, [x], windows=rows)


def test_backward_requires_tape():
    """backward_batch consumes the result's tape; a second call raises."""
    net = _reduced_msa_net()
    res = forward_batch(net, [np.random.default_rng(16).normal(size=(40, 23))])
    backward_batch(net, res, np.ones((1, 4)))
    with pytest.raises(InvalidInputError, match="tape"):
        backward_batch(net, res, np.ones((1, 4)))


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
            res = forward_batch(net, seqs)
            vals.append(float((grad_out * res.logits).sum()))
        flat[i] = orig
        assert numeric[name][pname].ravel()[i] == (vals[0] - vals[1]) / (2 * step)


def test_conditioning_leaves_margins():
    net = _reduced_msa_net(seed=7)
    rng = np.random.default_rng(1007)
    seqs = [rng.normal(-1.2, 0.7, size=(35, 23)), rng.normal(0.9, 1.3, size=(35, 23))]
    condition_for_fd(net, seqs)
    res = forward_batch(net, seqs)
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
    forward_batch(net, seqs)  # buffers away from their start values

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

def _spec_text(spec):
    """The spec block: three header lines, then one line of nine fields per
    layer."""
    def csv(items):
        return ",".join(str(i) for i in items) or "-"
    lines = [f"embedding {spec.embedding_layer}", f"speakers {spec.num_speakers}",
             f"taps {csv(spec.msa_taps)}"]
    lines += [" ".join(("layer", ls.name, ls.kind, str(ls.in_dim), str(ls.out_dim),
                        csv(ls.context), str(ls.inner_dim), csv(ls.inputs),
                        ls.skip_from or "-"))
              for ls in spec.layers]
    return "\n".join(lines) + "\n"


def _model_bytes(net):
    """A model file as the one layout lays it out, built here field by field:
    magic, u32 version 3, the dtype record, the length-prefixed spec block,
    then each parameter and running moment as a length-prefixed blob."""
    code = {np.dtype(np.float32): b"f4", np.dtype(np.float64): b"f8"}[net.dtype]
    text = _spec_text(net.spec).encode("utf-8")
    parts = [b"XVEC", struct.pack("<I", 3), code, struct.pack("<Q", len(text)), text]
    for ls in net.spec.layers:
        arrays = [net.params[ls.name][n] for n in param_shapes(ls)]
        arrays += [net.buffers[ls.name][n] for n in graph.LAYER_KINDS[ls.kind].buffers]
        for arr in arrays:
            blob = arr.astype("<" + code.decode()).tobytes()
            parts += [struct.pack("<Q", len(blob)), blob]
    return b"".join(parts)


def test_model_roundtrip_bit_exact(tmp_path):
    spec = build_architecture("ftdnn_msa", 5, dims=REDUCED, taps=("frame7", "frame9"))
    for dtype in (np.float64, np.float32):
        net = initialize_network(spec, seed=6).astype(dtype)
        rng = np.random.default_rng(30)
        forward_batch(net, [rng.normal(size=(60, 23))])  # move buffers
        path = tmp_path / f"model-{net.dtype}.xvec"
        save_network(net, path)
        assert path.read_bytes() == _model_bytes(net)
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
    bad.write_bytes(raw[:4] + struct.pack("<I", 4) + raw[8:])
    with pytest.raises(FormatError, match="version 4"):
        load_network(bad)
    # cut after the magic, the version, the dtype, the spec length, the spec
    # block, and each blob's length and values but the last
    (text_len,) = struct.unpack_from("<Q", raw, 10)
    ends, pos = [4, 8, 10, 18, 18 + text_len], 18 + text_len
    while pos < len(raw):
        (blob_len,) = struct.unpack_from("<Q", raw, pos)
        pos += 8 + blob_len
        ends += [pos - blob_len, pos]
    for cut in ends[:-1]:
        bad.write_bytes(raw[:cut])
        with pytest.raises(FormatError, match="truncated model file"):
            load_network(bad)
    last = len(raw) - 8  # the last blob's last value
    bad.write_bytes(raw[:last] + struct.pack("<d", np.nan))
    with pytest.raises(FormatError, match="contains non-finite values"):
        load_network(bad)
    bad.write_bytes(raw[:18] + b"\xff" + raw[19:])
    with pytest.raises(FormatError, match="spec block is not UTF-8"):
        load_network(bad)

    save_network(net.astype(np.float32), path)
    raw = path.read_bytes()
    assert raw[4:10] == struct.pack("<I", 3) + b"f4"
    for record in (b"f2", b"i4", b"\xff4"):
        bad.write_bytes(raw[:8] + record + raw[10:])
        with pytest.raises(FormatError, match="dtype"):
            load_network(bad)
    bad.write_bytes(raw[:8] + b"f8" + raw[10:])  # float32 blobs are half the size
    with pytest.raises(FormatError, match="expected"):
        load_network(bad)
    with pytest.raises(InvalidInputError, match="float16"):
        save_network(net.astype(np.float16), path)


@pytest.mark.parametrize("version", [1, 2])
def test_model_files_of_earlier_versions_are_rejected(tmp_path, version):
    """Files that earlier versions wrote, format 1 (float64, no dtype record)
    and format 2 (a dtype record, and a tenth, skip-mode column on each layer
    line), are rejected by their version number."""
    raw = _model_bytes(initialize_network(build_architecture("tdnn", 3, dims=REDUCED), seed=0))
    header = struct.pack("<I", version) + (b"f8" if version == 2 else b"")
    path = tmp_path / f"v{version}.xvec"
    path.write_bytes(raw[:4] + header + raw[10:])
    with pytest.raises(FormatError, match=f"version {version}$"):
        load_network(path)


def test_float32_model_file_is_half_the_size(tmp_path):
    net = initialize_network(build_architecture("ftdnn_msa", 4, dims=REDUCED), seed=0)
    save_network(net, tmp_path / "f8.xvec")
    save_network(net.astype(np.float32), tmp_path / "f4.xvec")
    f8, f4 = ((tmp_path / name).stat().st_size for name in ("f8.xvec", "f4.xvec"))
    assert 0.5 < f4 / f8 < 0.51  # the spec text and the length prefixes stay


@pytest.mark.skipif(platform.machine() != "x86_64" or openblas_core() == "unknown",
                    reason="needs numpy's bundled OpenBLAS on x86-64")
def test_pin_message_names_the_kernels_the_process_runs():
    """The sha256 pins' message reads the core OpenBLAS chose at load time,
    which OPENBLAS_CORETYPE overrides for the one child it is set in."""
    child = subprocess.run(
        [sys.executable, "-c", "import blas_kernels; print(blas_kernels.PIN_KERNELS)"],
        cwd=os.path.dirname(__file__), env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
        capture_output=True, text=True, check=True)
    assert child.stdout.strip().endswith("this run uses Haswell")
    assert PIN_KERNELS.endswith(f"this run uses {openblas_core()}")


def _stock(arch):
    """A reduced stock spec, as the pins below build it."""
    return build_architecture(arch, 4, dims=REDUCED)


def _stock_id(arch, *rest):
    """The test id of a case on _stock(arch): the architecture, "sum" (every
    skip adds), then any other key, so each pin keeps the id its digests are
    logged under."""
    return "-".join((arch, "sum", *map(str, rest)))


# Pin the initial draw order and the file layout. Factor matrices pass through
# a symmetric eigendecomposition (LAPACK syevd), so another LAPACK build may
# move their last bits and these hashes.
INIT_MODEL_SHA256 = {
    "tdnn": "e522ae9bb2f12c6e4b67487ad71227a2908dcebf4a6a96c52fee1bf62167ba48",
    "etdnn": "612d37f2c1688725aa95a0febe4e0d61fd79b255dcdccefe9d7fe048195c9e7f",
    "ftdnn": "1561d56300aa1456c4bbb493b0bd73e9de3d73ee83e23511c3873d6f13621879",
    "ftdnn_msa": "d9b12347fccfa3436c8dd19020e8d35b78c432dae279a4dc4cc7ddbf35cfe4d0",
}


@pytest.mark.parametrize("arch", sorted(INIT_MODEL_SHA256), ids=_stock_id)
def test_initial_model_bytes_are_pinned(tmp_path, arch):
    path = tmp_path / "init.xvec"
    save_network(initialize_network(_stock(arch), seed=0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INIT_MODEL_SHA256[arch], PIN_KERNELS


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


def _trained_case(arch, dropout, dtype=np.float64):
    """Three seeded training steps on a ragged batch (the last re-projects the
    factors), then inference embeddings of rows that share sequences."""
    net = initialize_network(_stock(arch), seed=0).astype(dtype)
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
    ("tdnn", 0.0): (
        "7ddf7f1dea6009542dfc401073034913d15aa912091df9759947d2f77dd9571a",
        "b030256267ca6fb660892b6872324059c99a1c88938380d6eff8a2a64d8a446b",
    ),
    ("etdnn", 0.0): (
        "68ab5449c7511bdd0c46e1f1dafdc9261ee1dd00facf67866e22b2ec058fe42d",
        "01487f00621730470ea8e5091c7af47b00f5e378574273c8caf0ef65a9bcb5ed",
    ),
    ("ftdnn", 0.0): (
        "dff43359c8b5095a5423c85850a5d02521b61eee91372e4a5fdfc25da0e0fc6a",
        "11257c4606a3ec0b3f5fe8ce8e8e617052ed7ac0d6a0685e69946292536751d5",
    ),
    ("ftdnn_msa", 0.0): (
        "93e43bf90f3f6fe0023bfe3043a2bd3ccb905ecc16db126175a8c62b00f54998",
        "2b84f060e0c09b70a6cf0659cfada1acdcecec40d99a0f86994936f98163aca2",
    ),
    ("ftdnn_msa", 0.2): (
        "dd83116df56446b18c159ce8ed0ba8591f8ff53c95c48aced0c6e945090ff555",
        "5d6c0607c2cd14599f9232cf2b7162f92a0a54a0ec28cb301681cc96d5ea63ef",
    ),
}


@pytest.mark.parametrize("arch,dropout", sorted(TRAINED_SHA256),
                         ids=[_stock_id(*key) for key in sorted(TRAINED_SHA256)])
def test_trained_model_and_embeddings_are_pinned(tmp_path, arch, dropout):
    net, emb = _trained_case(arch, dropout)
    path = tmp_path / "trained.xvec"
    save_network(net, path)
    got = (hashlib.sha256(path.read_bytes()).hexdigest(),
           hashlib.sha256(np.ascontiguousarray(emb).tobytes()).hexdigest())
    assert got == TRAINED_SHA256[arch, dropout], PIN_KERNELS


# The same pin for the float32 engine that ``diarkit train`` runs, on the
# factorized networks, whose factors are projected in float64 and rounded once.
TRAINED_F32_SHA256 = {
    ("ftdnn", 0.0): (
        "0c3ab6c976d1f4fd98ff93149f349ebe9771ff89f0c49d68d36434492811a83b",
        "32024a6ea6cb28923412a4832b1efaf1548d169601a29128296778325ebbf041",
    ),
    ("ftdnn_msa", 0.0): (
        "67d77c6eb1432811b1268339ed487fcde746a70217d0f581dcb7fcb8cece54bb",
        "f94f8dc0fa0c72fef979d33be2b64762338433e5fd1d4dfe0459560e0046d6e0",
    ),
    ("ftdnn_msa", 0.2): (
        "39aa16a1211334744383120a7c185482e15e13109edc7ab4fef684b8bb9459dc",
        "61123bef9b8c353cc8a36fe65dbfda45d5c5a5d156f55a6d2bdac14ab4b7b60d",
    ),
}


@pytest.mark.parametrize("arch,dropout", sorted(TRAINED_F32_SHA256))
def test_float32_trained_model_and_embeddings_are_pinned(tmp_path, arch, dropout):
    net, emb = _trained_case(arch, dropout, dtype=np.float32)
    path = tmp_path / "trained.xvec"
    save_network(net, path)
    got = (hashlib.sha256(path.read_bytes()).hexdigest(),
           hashlib.sha256(np.ascontiguousarray(emb).tobytes()).hexdigest())
    assert got == TRAINED_F32_SHA256[arch, dropout], PIN_KERNELS


# The seed-0 factor matrices at the paper widths, as ``diarkit train`` starts
# from them: projected in float64, then cast to float32. The two networks
# share their frame-level stack and draw order, so their factors hash alike.
PAPER_F32_FACTORS_SHA256 = {
    "ftdnn": "cbf9eec6b98f69a74f181eaa8aafd4908d3d4f635f6331c09f85d97c23906f7d",
    "ftdnn_msa": "cbf9eec6b98f69a74f181eaa8aafd4908d3d4f635f6331c09f85d97c23906f7d",
}


@pytest.mark.parametrize("arch", sorted(PAPER_F32_FACTORS_SHA256))
def test_paper_width_float32_factors_are_pinned(arch):
    net = initialize_network(build_architecture(arch, 4, dims=DimOverrides()), seed=0)
    digest = hashlib.sha256()
    for m in net.astype(np.float32).factor_matrices():
        digest.update(np.ascontiguousarray(m).tobytes())
    assert digest.hexdigest() == PAPER_F32_FACTORS_SHA256[arch], PIN_KERNELS


# Pin every bit of inference apart from training: seed-0 networks whose
# running batch-norm moments come from a seeded generator, embedding rows that
# share sequences, in both engine dtypes. The LAPACK caveat above applies.
INFERENCE_SHA256 = {
    ("tdnn", "float32"):
        "8d7f7defafce28db22146200f25cf109d76634bb530aeb57c179177965c4fce3",
    ("tdnn", "float64"):
        "e8134522dbbf50987de62d8dcaa5c83dac4a8d2271db87142096d6fd1adefeec",
    ("etdnn", "float32"):
        "bee87b060cfb2ec126ffe519477bbdc73bf3d80f6928ae3e3282518fe78c2c58",
    ("etdnn", "float64"):
        "9f5690f8409cfe501e0f4568b73fe429cd6497769df045ea862ca4b101d6aba4",
    ("ftdnn", "float32"):
        "fa0f9a7f44c2609a37a3a144ba817fb103326f4475724d87d3a798c29361edfc",
    ("ftdnn", "float64"):
        "45a6e9339deb5eb5c0ceb29e0870ddfac3a5857cd9c5226964dc9256de878b8b",
    ("ftdnn_msa", "float32"):
        "9271c6129dcf8776066d4402dfa81d1aad2d2ab11aec2d8e9f9a05365d854ec8",
    ("ftdnn_msa", "float64"):
        "7deb953ae6e295d02353464b755e017d75a0a4de6683628321e18bcc4449c7d4",
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
    digest = hashlib.sha256(np.ascontiguousarray(emb).tobytes()).hexdigest()
    assert digest == INFERENCE_SHA256[arch, dtype], PIN_KERNELS


def test_backward_frees_each_value_before_its_layer_runs(monkeypatch):
    """backward_batch consumes the forward result: when layer i's backward
    runs, no output or tape array of layer i or a later layer is alive but
    the logits, while every earlier layer's output and tape entry still is.
    Checked by weak references taken as each layer runs forward."""
    net = _reduced_msa_net()
    layers = net.spec.layers
    made, alive = {}, []  # layer -> weak references to (output, tape arrays)
    for kind in {ls.kind for ls in layers}:
        orig_forward, orig_backward = graph.LAYER_KINDS[kind].forward, graph.LAYER_KINDS[kind].backward

        def forward(ls, p, xs, run, orig=orig_forward):
            out, cache = orig(ls, p, xs, run)
            tape = [weakref.ref(a) for a in _arrays(cache) if isinstance(a, np.ndarray)]
            made[ls.name] = (weakref.ref(graph._data(out)), tape)
            return out, cache

        def backward(ls, p, g, cache, orig=orig_backward):
            alive.append((ls.name, {n for n, (out, _) in made.items() if out() is not None},
                          {n for n, (_, tape) in made.items() if any(r() is not None for r in tape)}))
            return orig(ls, p, g, cache)

        monkeypatch.setattr(graph.LAYER_KINDS[kind], "forward", forward)
        monkeypatch.setattr(graph.LAYER_KINDS[kind], "backward", backward)
    rng = np.random.default_rng(9)
    seqs = [rng.normal(size=(n, 23)) for n in (70, 64)]
    res = forward_batch(net, seqs, dropout_prob=0.2, rng=rng)
    backward_batch(net, res, np.ones(res.logits.shape))
    assert [name for name, _, _ in alive] == [ls.name for ls in reversed(layers)]
    with_tape = {name for name, (_, tape) in made.items() if tape}
    for name, outputs, tapes in alive:
        i = [ls.name for ls in layers].index(name)
        earlier = {ls.name for ls in layers[:i]}
        assert outputs == earlier | {net.spec.output_layer}
        assert tapes == (earlier | {name}) & with_tape
    assert set(res.values) == {graph.INPUT_NAME} and not res.tape
    with pytest.raises(InvalidInputError, match="tape"):
        backward_batch(net, res, np.ones(res.logits.shape))


def vstack_skip_sum(ls, main, skip):
    """Reference skip sum: stack the center-cropped skip rows, then add."""
    left = graph._skip_crop(ls, main.span, skip.span)
    cropped = np.vstack([seq_skip[left : left + seq_main.shape[0]]
                         for seq_main, seq_skip in zip(main.split(), skip.split())])
    return main.data + cropped


# _add_skip's traced peak over its output's bytes. Summing each sequence into
# its slice of one output array measured 1.0; stacking the cropped skip rows
# first measured 2.0.
SKIP_SUM_PEAK_BOUND = 1.1


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_skip_sum_matches_stacked_form_in_one_array(dtype):
    """The skip sum at paper width (725) over eight ragged sequences equals
    the stack-then-add form bit for bit, and allocates only its output."""
    rng = np.random.default_rng(4)
    lengths = (382, 370, 391, 360, 382, 377, 385, 366)
    ls = LayerSpec("f", "dense", 725, 725, (0,), 0, ("m",), "s")
    main = graph.FrameBatch(rng.normal(size=(sum(lengths), 725)).astype(dtype), lengths, 6)
    skip_lengths = tuple(n + 4 for n in lengths)
    skip = graph.FrameBatch(rng.normal(size=(sum(skip_lengths), 725)).astype(dtype),
                            skip_lengths, 2)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = graph._add_skip(ls, main, skip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.lengths == lengths and got.span == 6 and got.data.dtype == dtype
    assert np.array_equal(got.data, vstack_skip_sum(ls, main, skip))
    assert (peak - start) / got.data.nbytes <= SKIP_SUM_PEAK_BOUND


# backward_batch's traced peak above its starting level, over the largest
# frame-level value, in the test below: 1.72 to 1.75 measured, float64 and
# float32, with and without dropout. Holding every value and tape entry to
# the end of the step, and allocating new arrays for batch norm's masked
# output gradient and its input gradient, measured 6.0 to 7.1.
BACKWARD_PEAK_BOUND = 2.25


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_backward_peak_memory_is_bounded_by_the_largest_value(dtype, dropout):
    """A reduced ftdnn-msa training step: backward_batch frees each value
    and tape entry as it passes them, so what it holds above its starting
    level stays within a small multiple of the largest frame-level value."""
    net = _reduced_msa_net().astype(dtype)
    rng = np.random.default_rng(5)
    seqs = [rng.normal(size=(n, 23)) for n in (300, 260, 340, 280)]
    tracemalloc.start()
    try:
        res = forward_batch(net, seqs, dropout_prob=dropout, rng=rng)
        largest = max(v.data.nbytes for v in res.values.values() if isinstance(v, graph.FrameBatch))
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward_batch(net, res, np.ones(res.logits.shape))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / largest < BACKWARD_PEAK_BOUND


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
    res = forward_batch(net, seqs, **dropout)
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
    """The tape holds no layer input, a skip sum included; what it holds of
    its own (factor bottlenecks, pooling statistics) stays small."""
    assert _tape_own_fraction(arch) < 0.5


def test_training_tape_dropout_mask_is_boolean():
    """Dropout adds a one-byte keep-mask per batch-norm layer to the tape,
    not a float64 mask of 1 / (1 - p) values."""
    frac = _tape_own_fraction("ftdnn_msa", dropout_prob=0.2, rng=np.random.default_rng(3))
    assert frac < 0.5


@pytest.mark.parametrize("block_values,shape", [(None, (200, 1500)), (26, (1000, 7)), (1, (50, 7))])
def test_dropout_mask_blocks_match_one_draw(monkeypatch, block_values, shape):
    """The keep-mask drawn in row blocks equals rng.random(shape) >= p drawn
    at once, and leaves the generator where one draw leaves it; the row
    counts cross several block edges (43, 3 and 1 rows per block)."""
    if block_values is not None:
        monkeypatch.setattr(graph, "DROPOUT_BLOCK_VALUES", block_values)
    got_rng, want_rng = np.random.default_rng(17), np.random.default_rng(17)
    got = graph._keep_mask(got_rng, shape, 0.3)
    want = want_rng.random(shape) >= 0.3
    assert got.dtype == bool and np.array_equal(got, want)
    assert got_rng.random() == want_rng.random()


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


@pytest.mark.parametrize("dtype,bound", [(np.float64, 1e-13), (np.float32, 1e-6)])
@pytest.mark.parametrize("training,dropout", [(True, 0.0), (True, 0.3), (False, 0.0)])
@pytest.mark.parametrize("n", [50, 7, 1])
def test_batchnorm_folded_forward_matches_unfolded_reference(dtype, bound, training, dropout, n):
    """The folded relu_batchnorm forward (BLAS mean, one scale, one shift)
    against the unfolded one on the same input, parameters and running
    moments: the output, the running moments a training pass leaves, and
    the tape entry the backward pass reads."""
    x = _batchnorm_input(n).astype(dtype)
    rng = np.random.default_rng(n)
    p = {"gamma": rng.uniform(0.5, 1.5, 6).astype(dtype), "beta": rng.normal(size=6).astype(dtype)}
    moments = {"running_mean": rng.uniform(0.0, 0.5, 6).astype(dtype),
               "running_var": rng.uniform(0.05, 0.5, 6).astype(dtype)}
    got_buf, want_buf = ({k: v.copy() for k, v in moments.items()} for _ in range(2))
    run = graph._Pass({"bn": got_buf}, [], training, dropout, np.random.default_rng(7))
    got, cache = graph.LAYER_KINDS["relu_batchnorm"].forward(
        LayerSpec("bn", "relu_batchnorm", 6, 6), p, [x], run)
    want, want_cache = batchnorm_reference.forward(p, x, want_buf, training, dropout,
                                                   np.random.default_rng(7))
    pairs = [(got, want), (cache["mu"], want_cache["mu"]), (cache["istd"], want_cache["istd"])]
    pairs += [(got_buf[k], want_buf[k]) for k in moments]
    for a, b in pairs:
        assert a.dtype == b.dtype == dtype
        assert np.linalg.norm(a - b) <= bound * np.linalg.norm(b)
    assert (cache["keep"] is None) == (want_cache["keep"] is None)
    if dropout:
        assert np.array_equal(cache["keep"], want_cache["keep"])
        assert cache["scale"] == want_cache["scale"]


def test_float32_batchnorm_tracks_float64_at_training_rows():
    """At the train workload's 9,500 frame rows, a float32 relu_batchnorm
    pass (forward, input and gamma gradients) stays within 1e-6 relative of
    the float64 reference on the same values. One running float32 sum per
    column misses this by more than ten times (1.2e-5 on the forward)."""
    rng = np.random.default_rng(8)
    x = rng.normal(0.2, 1.0, size=(9500, 32)).astype(np.float32)
    p = {"gamma": rng.uniform(0.5, 1.5, 32).astype(np.float32),
         "beta": rng.normal(size=32).astype(np.float32)}
    g = rng.normal(size=x.shape).astype(np.float32)
    ls = LayerSpec("bn", "relu_batchnorm", 32, 32)
    moments = {"running_mean": np.zeros(32), "running_var": np.ones(32)}
    run = graph._Pass({"bn": {k: v.astype(np.float32) for k, v in moments.items()}},
                      [], True, 0.0, None)
    got, cache = graph.LAYER_KINDS["relu_batchnorm"].forward(ls, p, [x], run)
    cache["in_value"] = x
    got_grads, (got_dx,) = graph.LAYER_KINDS["relu_batchnorm"].backward(ls, p, g.copy(), cache)
    p64 = {k: v.astype(np.float64) for k, v in p.items()}
    want, want_cache = batchnorm_reference.forward(p64, x.astype(np.float64), moments, True)
    want_cache["in_value"] = x.astype(np.float64)
    want_grads, (want_dx,) = batchnorm_reference.backward(p64, g.astype(np.float64), want_cache)
    for a, b in [(got, want), (got_dx, want_dx), (got_grads["gamma"], want_grads["gamma"]),
                 (got_grads["beta"], want_grads["beta"])]:
        assert a.dtype == np.float32
        assert np.linalg.norm(a - b) <= 1e-6 * np.linalg.norm(b)


# Peak of one backward call over the input's bytes, measured at 1600 x 750
# float32: 1.018 with and without dropout (r and per-column vectors). Before
# the backward wrote into its output gradient it was 2.260 without dropout
# and 3.260 with. The bound leaves 0.03 of the input's bytes above 1.018.
BATCHNORM_BACKWARD_PEAK_BOUND = 1.05


@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_batchnorm_backward_peak_memory(dropout):
    """A relu_batchnorm backward call owns its output gradient: it applies
    the keep-mask and forms the input gradient in that array, so besides
    per-column vectors it holds r, then the ReLU mask once r is gone. At
    paper widths these set train-paper's peak RSS."""
    x = np.random.default_rng(1).normal(size=(1600, 750)).astype(np.float32)
    ls, p, g, cache = _batchnorm_case(x, dropout)
    tracemalloc.start()
    try:
        graph.LAYER_KINDS["relu_batchnorm"].backward(ls, p, g, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / x.nbytes < BATCHNORM_BACKWARD_PEAK_BOUND


# ------------------------------------------------------------ float32 engine

# Relative Frobenius distance of the float32 engine from the float64 one on
# the same float32 parameters and inputs. Worst measured over these five
# cases: logits 6.5e-6, embeddings 1.8e-7, gradients 3.4e-5 (float32 eps is
# 6e-8; batch norm over five segment rows amplifies the rounding of its
# inputs by 1/std, which the logits and gradients see and inference does not).
# The bounds leave about ten times that.
F32_BOUNDS = {"logits": 6e-5, "embeddings": 2e-6, "gradients": 4e-4}
F32_ROWS = [(0, [(0, 60)]), (0, [(20, 80), (40, 96)]), (2, [(0, 110)]),
            (1, [(10, 81)]), (2, [(30, 90)])]


def _float32_case(arch):
    """A float32 network whose running moments have moved, the float64
    network with the same values, and float32-representable ragged input."""
    spec = _stock(arch)
    rng = np.random.default_rng(0)
    seqs = [rng.normal(0.1 * i, 1.0 + 0.1 * i, size=(n, 23)).astype(np.float32)
            for i, n in enumerate((96, 81, 110))]
    net = initialize_network(spec, seed=0)
    forward_batch(net, seqs)
    net32 = net.astype(np.float32)
    return net32, net32.astype(np.float64), seqs


def _relative(a, ref):
    return float(np.linalg.norm(a.astype(np.float64) - ref) / np.linalg.norm(ref))


@pytest.mark.parametrize("arch", ["tdnn", "etdnn", "ftdnn", "ftdnn_msa"], ids=_stock_id)
def test_float32_engine_matches_float64(arch):
    """Logits, embeddings and every parameter gradient of the float32 engine
    against the float64 engine on the same values, with pooling rows that
    share a sequence."""
    net32, net64, seqs = _float32_case(arch)
    res32 = forward_batch(net32, seqs, windows=F32_ROWS)
    res64 = forward_batch(net64, seqs, windows=F32_ROWS)
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
    are float32. Pooling's float64 moment accumulators are local to its
    call: nothing a pass keeps is float64."""
    spec = build_architecture("ftdnn_msa", 4, dims=REDUCED)
    net = initialize_network(spec, seed=0).astype(np.float32)
    rng = np.random.default_rng(12)
    seqs = [rng.normal(size=(n, 23)) for n in (96, 81, 110)]  # float64 input
    res = forward_batch(net, seqs, windows=F32_ROWS, dropout_prob=0.2, rng=rng)
    forward = list(_arrays([res.values, res.tape]))  # before backward_batch consumes them
    masks = [e["keep"] for e in res.tape.values() if e.get("keep") is not None]
    assert masks and all(m.dtype == bool for m in masks)
    grads = backward_batch(net, res, np.ones(res.logits.shape))  # float64 logits gradient
    velocity = init_velocity(net)
    cfg = TrainConfig(window_frames=50, window_shift=25, min_window_frames=40)
    train_step(net, velocity, seqs, np.arange(3), 0.05, cfg, project=True)
    held = [forward, grads, net.params, net.buffers, velocity]
    dtypes = {a.dtype for a in _arrays(held) if a.dtype.kind in "fc"}
    assert dtypes == {np.dtype(np.float32)}


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
    got_grads, (got_dx,) = graph.LAYER_KINDS["relu_batchnorm"].backward(ls, p, g.copy(), cache)
    want_grads, (want_dx,) = batchnorm_reference.backward(p, g, cache)
    pairs = [(got_dx, want_dx)] + [(got_grads[k], want_grads[k]) for k in ("gamma", "beta")]
    for got, want in pairs:
        assert got.dtype == want.dtype == np.float64
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert not got_dx[:, 2].any() and np.array_equal(got_dx[:, 2], want_dx[:, 2])

"""Training loop: manifest io, loss, updates, projections, sampling, schedules."""

import tracemalloc

import numpy as np
import pytest

from diarkit.errors import FormatError, InvalidInputError, TrainingDivergedError
from diarkit.features import write_features
from diarkit.network import DimOverrides, build_architecture, forward_batch, initialize_network
from diarkit.training import (
    ManifestEntry,
    TrainConfig,
    build_train_set,
    init_velocity,
    learning_rate,
    load_manifest,
    load_train_set,
    max_ortho_residual,
    pool_windows,
    project_factors,
    read_manifest,
    receptive_span,
    sample_batch,
    sgd_update,
    softmax_cross_entropy,
    train,
    train_step,
    write_manifest,
)

SMALL = DimOverrides(feat_dim=8, width=16, factor_width=16, inner_dim=8,
                     pool_width=16, branch_dim=16, embed_dim=16)


def _toy_set(rng, n_speakers=2, utts_per_speaker=3, frames=60, dim=8):
    means = rng.normal(size=(n_speakers, dim)) * 1.5
    entries, feats = [], []
    for s in range(n_speakers):
        for u in range(utts_per_speaker):
            entries.append(ManifestEntry(f"u{s}_{u}", f"spk{s}", f"unused_{s}_{u}"))
            feats.append(means[s] + rng.normal(size=(frames, dim)))
    return build_train_set(entries, feats)


# ------------------------------------------------------------- manifest io

def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "train.lst"
    entries = [ManifestEntry("utt1", "spkA", "a.fea"), ManifestEntry("utt2", "spkB", "b.fea")]
    write_manifest(path, entries)
    assert read_manifest(path) == entries


def test_manifest_blank_lines_and_errors(tmp_path):
    path = tmp_path / "train.lst"
    path.write_text("utt1 spkA a.fea\n\nutt2 spkB b.fea\n")
    assert len(read_manifest(path)) == 2

    path.write_text("utt1 spkA a.fea\nutt2 spkB\n")
    with pytest.raises(FormatError, match=":2:"):
        read_manifest(path)

    path.write_text("\n\n")
    with pytest.raises(FormatError, match="empty"):
        read_manifest(path)


def test_load_train_set_reads_feature_files(tmp_path):
    rng = np.random.default_rng(0)
    entries = []
    for i, spk in enumerate(["b", "a", "b"]):
        fpath = tmp_path / f"utt{i}.fea"
        write_features(fpath, rng.normal(size=(55 + i, 8)))
        entries.append(ManifestEntry(f"utt{i}", spk, str(fpath)))
    manifest = tmp_path / "train.lst"
    write_manifest(manifest, entries)
    ts = load_train_set(manifest)
    assert ts.speakers == ("a", "b")   # sorted speaker ids define the labels
    assert ts.labels.tolist() == [1, 0, 1]
    assert ts.by_speaker == ((1,), (0, 2))
    assert ts.features[2].shape == (57, 8)


def _feature_corpus(tmp_path, rng, n_utts, frames, dim=8):
    """n_utts utterances of two speakers written as feature files, and their
    manifest, with paths relative to it."""
    tmp_path.mkdir(exist_ok=True)
    entries = []
    for i in range(n_utts):
        write_features(tmp_path / f"u{i}.fea", rng.normal(0.5 * (i % 2), 1.0, size=(frames, dim)))
        entries.append(ManifestEntry(f"u{i}", f"spk{i % 2}", f"u{i}.fea"))
    write_manifest(tmp_path / "train.lst", entries)
    return tmp_path / "train.lst"


def test_file_backed_set_trains_as_the_held_set(tmp_path):
    """train() on load_train_set, which reads a batch's files when it draws
    them, leaves the same parameters and batch-norm moments, bit for bit, as
    on build_train_set over the same features read up front: float32, four
    steps with dropout."""
    manifest = _feature_corpus(tmp_path, np.random.default_rng(30), 6, 90)
    entries, feats, _ = load_manifest(manifest)
    held = build_train_set(entries, list(feats))
    cfg = TrainConfig(epochs=2, batch_size=3, dropout_prob=0.2, window_frames=60,
                      window_shift=30, min_window_frames=50, seed=4)
    nets = []
    for ts in (load_train_set(manifest), held):
        assert ts.shapes == ((90, 8),) * 6
        net = initialize_network(build_architecture("ftdnn_msa", 2, dims=SMALL), seed=3)
        nets.append(net.astype(np.float32))
        assert len(train(nets[-1], ts, cfg)) == 4
    a, b = nets
    for (_, _, x), (_, _, y) in zip(a.parameters(), b.parameters()):
        assert x.dtype == np.float32 and np.array_equal(x, y)
    for name, moments in a.buffers.items():
        for k, v in moments.items():
            assert np.array_equal(v, b.buffers[name][k])


def test_training_memory_follows_the_batch_not_the_corpus(tmp_path):
    """Loading and training on 64 utterances traces a peak within 0.5 MB of
    8 utterances of the same length at the same batch size. Holding every
    utterance's features, the 56 more would add 2.6 MB."""
    peaks = []
    for n in (8, 64):
        manifest = _feature_corpus(tmp_path / f"n{n}", np.random.default_rng(31), n, 1500)
        net = initialize_network(build_architecture("tdnn", 2, dims=SMALL), seed=3)
        net = net.astype(np.float32)
        tracemalloc.start()
        try:
            train(net, load_train_set(manifest), TrainConfig(epochs=1, batch_size=4, seed=5))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**19, peaks


def test_single_speaker_rejected():
    entries = [ManifestEntry("u1", "only", "x"), ManifestEntry("u2", "only", "y")]
    with pytest.raises(InvalidInputError):
        build_train_set(entries, [np.zeros((60, 8))] * 2)


# ------------------------------------------------------------------- loss

def test_softmax_cross_entropy_matches_naive():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(5, 4)) * 3
    labels = rng.integers(0, 4, size=5)
    loss, grad = softmax_cross_entropy(logits.copy(), labels)
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    want_loss = float(-np.log(p[np.arange(5), labels]).mean())
    assert abs(loss - want_loss) < 1e-12
    want_grad = p.copy()
    want_grad[np.arange(5), labels] -= 1
    assert np.allclose(grad, want_grad / 5, atol=1e-12)


def test_softmax_gradient_matches_fd():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(3, 4))
    labels = np.array([0, 2, 1])
    _, grad = softmax_cross_entropy(logits.copy(), labels)
    h = 1e-6
    for i in range(3):
        for j in range(4):
            hi = logits.copy(); hi[i, j] += h
            lo = logits.copy(); lo[i, j] -= h
            fd = (softmax_cross_entropy(hi, labels)[0] - softmax_cross_entropy(lo, labels)[0]) / (2 * h)
            assert abs(fd - grad[i, j]) < 1e-8


def test_softmax_is_overflow_safe():
    logits = np.array([[1000.0, 0.0], [0.0, -1000.0]])
    loss, grad = softmax_cross_entropy(logits, np.array([0, 1]))
    assert np.isfinite(loss) and np.all(np.isfinite(grad))


# ---------------------------------------------------------------- updates

def test_l2_is_exact_shrinkage():
    net = initialize_network(build_architecture("tdnn", 2, dims=SMALL), seed=0)
    cfg = TrainConfig(l2_coeff=0.01, momentum=0.9)
    before = {n: {k: v.copy() for k, v in d.items()} for n, d in net.params.items()}
    sgd_update(net, init_velocity(net), {}, lr=0.5, cfg=cfg)
    for name, tensors in net.params.items():
        for pname, v in tensors.items():
            assert np.array_equal(v, before[name][pname] * (1.0 - 0.5 * 0.01)), (name, pname)


def test_momentum_accumulates_geometrically():
    net = initialize_network(build_architecture("tdnn", 2, dims=SMALL), seed=0)
    cfg = TrainConfig(l2_coeff=0.0, momentum=0.9)
    vel = init_velocity(net)
    w0 = net.params["frame4"]["W"].copy()
    ones = {"frame4": {"W": np.ones_like(w0)}}
    sgd_update(net, vel, ones, lr=0.1, cfg=cfg)
    sgd_update(net, vel, ones, lr=0.1, cfg=cfg)
    # v1 = -lr, v2 = 0.9 v1 - lr; theta = w0 + v1 + v2
    assert np.allclose(net.params["frame4"]["W"], w0 - 0.1 - 0.19, atol=1e-15)


# ---------------------------------------------------------------- windows

def test_pool_windows_cover_the_utterance():
    cfg = TrainConfig()
    assert pool_windows(150, cfg) == [(0, 150)]
    assert pool_windows(300, cfg) == [(0, 150), (75, 225), (150, 300)]
    assert pool_windows(320, cfg) == [(0, 150), (75, 225), (150, 300), (225, 320)]
    assert pool_windows(170, cfg) == [(0, 150), (75, 170)]
    assert pool_windows(50, cfg) == [(0, 50)]
    with pytest.raises(InvalidInputError):
        pool_windows(49, cfg)


# ----------------------------------------------------------------- training

def test_fixed_batch_loss_strictly_decreases():
    rng = np.random.default_rng(3)
    ts = _toy_set(rng)
    net = initialize_network(build_architecture("tdnn", 2, dims=SMALL), seed=1)
    cfg = TrainConfig(lr_start=1e-3, lr_end=1e-3, l2_coeff=1e-4, ortho_interval=1000)
    vel = init_velocity(net)
    labels = ts.labels
    losses = [train_step(net, vel, ts.features, labels, 1e-3, cfg) for _ in range(10)]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_projection_keeps_factors_semi_orthogonal():
    rng = np.random.default_rng(4)
    ts = _toy_set(rng, n_speakers=3, utts_per_speaker=2)
    net = initialize_network(build_architecture("ftdnn", 3, dims=SMALL), seed=2)
    cfg = TrainConfig(epochs=12, batch_size=6, lr_start=5e-3, lr_end=1e-3,
                      ortho_interval=4, seed=0)
    records = train(net, ts, cfg)
    assert len(records) == 12
    projected = [r for r in records if r.step % 4 == 0]
    drifting = [r for r in records if r.step % 4 != 0]
    assert all(r.ortho_residual < 1e-6 for r in projected)
    assert max(r.ortho_residual for r in drifting) > max(r.ortho_residual for r in projected)


def test_training_is_bit_deterministic():
    rng = np.random.default_rng(5)
    ts = _toy_set(rng)
    cfg = TrainConfig(epochs=3, batch_size=4, seed=11)
    runs = []
    for _ in range(2):
        net = initialize_network(build_architecture("tdnn", 2, dims=SMALL), seed=3)
        records = train(net, ts, cfg)
        runs.append((records, {n: {k: v.copy() for k, v in d.items()}
                               for n, d in net.params.items()}))
    assert runs[0][0] == runs[1][0]
    for name, tensors in runs[0][1].items():
        for pname, v in tensors.items():
            assert np.array_equal(v, runs[1][1][name][pname])


def test_log_lines_have_the_four_fields():
    rng = np.random.default_rng(6)
    ts = _toy_set(rng)
    net = initialize_network(build_architecture("tdnn", 2, dims=SMALL), seed=4)
    lines = []
    train(net, ts, TrainConfig(epochs=1, batch_size=6), log=lines.append)
    assert lines
    step, loss, resid, lr = lines[0].split()
    assert step == "0" and float(loss) > 0 and float(resid) >= 0 and float(lr) > 0


def test_sampling_is_uniform_over_speakers():
    entries = [ManifestEntry(f"a{i}", "spkA", "x") for i in range(9)]
    entries.append(ManifestEntry("b0", "spkB", "y"))
    ts = build_train_set(entries, [np.zeros((60, 8))] * 10)
    rng = np.random.default_rng(7)
    idx = np.concatenate([sample_batch(ts, 100, rng) for _ in range(100)])
    labels = ts.labels[idx]
    share_b = float(np.mean(labels == 1))
    assert abs(share_b - 0.5) < 0.02   # speaker B holds 10% of utterances but half the draws
    counts = np.bincount(idx, minlength=10)
    a_counts = counts[ts.labels == 0]
    assert a_counts.min() > 0.5 * a_counts.max()  # within-speaker draws stay uniform


def test_train_validates_inputs():
    rng = np.random.default_rng(8)
    ts = _toy_set(rng, n_speakers=3)
    net = initialize_network(build_architecture("tdnn", 2, dims=SMALL), seed=5)
    with pytest.raises(InvalidInputError, match="speakers"):
        train(net, ts, TrainConfig(epochs=1))

    short = _toy_set(rng, n_speakers=2, frames=30)
    net2 = initialize_network(build_architecture("tdnn", 2, dims=SMALL), seed=5)
    with pytest.raises(InvalidInputError, match="shortest utterance"):
        train(net2, short, TrainConfig(epochs=1))

    net3 = initialize_network(build_architecture("ftdnn", 2, dims=SMALL), seed=5)
    span = receptive_span(net3.spec)
    bad = TrainConfig(epochs=1, window_frames=span, min_window_frames=span)
    ts2 = _toy_set(rng, n_speakers=2)
    with pytest.raises(InvalidInputError, match="receptive span"):
        train(net3, ts2, bad)


def test_divergence_raises():
    # batch norm shrugs off absurd learning rates, so poison the loss directly
    rng = np.random.default_rng(9)
    ts = _toy_set(rng)
    ts.features[0][5, 3] = np.nan
    net = initialize_network(build_architecture("tdnn", 2, dims=SMALL), seed=6)
    with pytest.raises(TrainingDivergedError):
        train(net, ts, TrainConfig(epochs=4, batch_size=6, seed=0))


def test_non_finite_factor_is_divergence_not_an_svd_error():
    net = initialize_network(build_architecture("ftdnn", 2, dims=SMALL), seed=6)
    net.params["frame7"]["M"][0, 0] = np.nan
    assert np.isnan(max_ortho_residual(net))  # not hidden behind a finite layer's value
    with pytest.raises(TrainingDivergedError, match="factor matrix"):
        project_factors(net)


@pytest.mark.parametrize("field,value", [
    ("lr_start", float("inf")), ("lr_end", float("nan")), ("lr_start", 0.0),
    ("momentum", float("nan")), ("momentum", 1.0), ("momentum", -0.1),
    ("l2_coeff", float("nan")), ("l2_coeff", -1e-4), ("l2_coeff", float("inf")),
    ("window_shift", 0), ("window_shift", -5),
])
def test_train_config_rejects_values_outside_their_domain(field, value):
    with pytest.raises(InvalidInputError):
        TrainConfig(**{field: value})


def test_learning_rate_schedule_is_geometric():
    cfg = TrainConfig(lr_start=1e-2, lr_end=1e-4)
    total = 11
    lrs = [learning_rate(t, total, cfg) for t in range(total)]
    assert lrs[0] == pytest.approx(1e-2, rel=1e-12)
    assert lrs[-1] == pytest.approx(1e-4, rel=1e-12)
    ratios = [b / a for a, b in zip(lrs, lrs[1:])]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)
    assert learning_rate(0, 1, cfg) == 1e-2


def test_max_ortho_residual_reports_worst_layer():
    net = initialize_network(build_architecture("ftdnn", 2, dims=SMALL), seed=8)
    assert max_ortho_residual(net) < 1e-10
    net.params["frame5"]["M"] *= 2.0
    assert max_ortho_residual(net) > 1.0


@pytest.mark.parametrize("p", [1.0, 1.5, -0.5, float("nan")])
def test_dropout_outside_unit_interval_is_rejected(p):
    with pytest.raises(InvalidInputError, match=r"dropout_prob must be in \[0, 1\)"):
        TrainConfig(dropout_prob=p)
    net = initialize_network(build_architecture("tdnn", 2, dims=SMALL), seed=0)
    with pytest.raises(InvalidInputError, match=r"dropout_prob must be in \[0, 1\)"):
        forward_batch(net, [np.zeros((60, 8))], dropout_prob=p,
                      rng=np.random.default_rng(0))

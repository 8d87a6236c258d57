"""Glue-layer tests: manifests to embeddings, embeddings to timelines."""

import tracemalloc

import numpy as np
import pytest

from diarkit.backend import EmbeddingRecord
from diarkit.errors import InvalidInputError
from diarkit.features import SadMark, Segment, read_features, write_features
from diarkit.network import (
    DimOverrides,
    build_architecture,
    extract_embeddings,
    forward_batch,
    graph,
    initialize_network,
)
from diarkit.pipeline import (
    conversation_embeddings,
    conversation_scores,
    conversation_segments,
    diarize_conversation,
    fit_backend,
    speech_span,
    windowed_utterance_embeddings,
)
from diarkit.training import ManifestEntry, load_train_set, write_manifest
from embedding_reference import extract_embedding


def _toy_net(num_speakers=3, seed=0):
    dims = DimOverrides(feat_dim=6, width=8, pool_width=10)
    return initialize_network(build_architecture("tdnn", num_speakers, dims=dims), seed=seed)


def _marks(end_s, conv="conv0"):
    return [SadMark(conv, 0.0, end_s)]


# ----------------------------------------------------------------- segments

def test_conversation_segments_clips_to_features():
    segs = conversation_segments(240, _marks(3.0), min_frames=16)
    assert [s.frame_range for s in segs] == [(0, 150), (75, 225), (150, 240)]


def test_conversation_segments_drops_short_tail():
    segs = conversation_segments(160, _marks(3.0), min_frames=16)
    assert [s.frame_range for s in segs] == [(0, 150), (75, 160)]


def test_conversation_segments_nothing_left():
    assert conversation_segments(10, _marks(3.0), min_frames=16) == []


def test_near_empty_conversation_runs_no_network(monkeypatch):
    def no_pass(*args, **kwargs):
        raise AssertionError("the network ran")

    net = _toy_net()
    dim = extract_embeddings(net, [np.zeros((50, 6))]).shape[1]
    monkeypatch.setattr("diarkit.pipeline.extract_embeddings", no_pass)
    # two regions under 0.5 s, and 1 s that the features clip to 0.1 s
    marks = [SadMark("c", 0.0, 0.4), SadMark("c", 1.0, 1.3), SadMark("c", 2.5, 3.5)]
    segments, vecs = conversation_embeddings(net, np.zeros((260, 6)), marks)
    assert segments == []
    assert vecs.shape == (0, dim)
    assert speech_span(marks) == Segment("c", 0.0, 3.5)


# --------------------------------------------------------------- embeddings

def test_conversation_embeddings_match_single_extraction():
    net = _toy_net()
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(300, 6))
    segs, vecs = conversation_embeddings(net, feats, _marks(3.0))
    assert len(segs) == len(vecs) == 3
    for seg, vec in zip(segs, vecs):
        a, b = seg.frame_range
        assert np.allclose(vec, extract_embedding(net, feats[a:b]),
                           rtol=0, atol=1e-12)


TOY_DIMS = DimOverrides(feat_dim=6, width=8, factor_width=8, inner_dim=4,
                       pool_width=8, branch_dim=8, embed_dim=8)
# ftdnn has sum skips; taps frame7 and frame9 pool at spans 26 and 32
REGION_ARCHS = [("tdnn", None), ("etdnn", None), ("ftdnn", None),
                ("ftdnn_msa", ("frame7", "frame9"))]


def _region_net(arch, taps, rng):
    """Toy-width net whose batch-norm running moments have moved off 0 and 1."""
    net = initialize_network(build_architecture(arch, 3, taps=taps, dims=TOY_DIMS), seed=2)
    forward_batch(net, [rng.normal(0.3, 1.5, size=(120, 6))])
    return net


def _assert_matches_oracle(net, values, ranges, vecs):
    assert len(vecs) == len(ranges)
    for (a, b), vec in zip(ranges, vecs):
        assert np.allclose(vec, extract_embedding(net, values[a:b]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("arch,taps", REGION_ARCHS)
def test_conversation_embeddings_match_per_segment_oracle(arch, taps, monkeypatch):
    """Two SAD regions split by a gap, a third shorter than a segment, and a
    tail segment cut short by the end of the features: every segment's
    embedding from the shared region pass equals a forward over its frames."""
    rng = np.random.default_rng(40)
    net = _region_net(arch, taps, rng)
    feats = rng.normal(size=(690, 6))
    marks = [SadMark("c", 0.0, 2.6), SadMark("c", 3.5, 4.5), SadMark("c", 5.0, 7.0)]
    seen = []

    def recording(net, sequences, windows=None):
        seen.append([len(s) for s in sequences])
        return extract_embeddings(net, sequences, windows)

    monkeypatch.setattr("diarkit.pipeline.extract_embeddings", recording)
    segs, vecs = conversation_embeddings(net, feats, marks)
    assert seen == [[260, 100, 190]]  # one pass per speech region
    ranges = [s.frame_range for s in segs]
    assert ranges == [(0, 150), (75, 225), (150, 260), (350, 450),
                      (500, 650), (575, 690)]
    _assert_matches_oracle(net, feats, ranges, vecs)


@pytest.mark.parametrize("arch,taps", REGION_ARCHS)
def test_windowed_utterance_embeddings_match_per_segment_oracle(tmp_path, arch, taps):
    """An utterance with a truncated tail window and one shorter than a
    segment: every window's embedding equals a forward over its frames."""
    rng = np.random.default_rng(41)
    net = _region_net(arch, taps, rng)
    arrays = {"long": rng.normal(size=(330, 6)), "short": rng.normal(size=(100, 6))}
    want = {"long": [(0, 150), (75, 225), (150, 300), (225, 330)], "short": [(0, 100)]}
    for utt, arr in arrays.items():
        write_features(tmp_path / f"{utt}.fea", arr)
    write_manifest(tmp_path / "m.txt", [ManifestEntry("long", "ann", "long.fea"),
                                        ManifestEntry("short", "ben", "short.fea")])
    recs = windowed_utterance_embeddings(net, tmp_path / "m.txt")
    for utt, arr in arrays.items():
        mine = [r for r in recs if r.conversation_id == utt]
        ranges = [(round(r.start_s * 100), round(r.end_s * 100)) for r in mine]
        assert ranges == want[utt]
        stored = arr.astype(np.float32).astype(np.float64)
        _assert_matches_oracle(net, stored, ranges, [r.vector for r in mine])


def test_features_stay_float32_from_file_to_network(tmp_path):
    """The .fea matrix reaches the network as the file's float32 values; a
    float64 network upcasts them exactly, so it sees what it would have seen
    from a float64 copy, and a float32 network needs no cast at all."""
    rng = np.random.default_rng(43)
    write_features(tmp_path / "u0.fea", rng.normal(size=(690, 6)))
    write_features(tmp_path / "u1.fea", rng.normal(size=(120, 6)))
    feats = read_features(tmp_path / "u0.fea")
    assert feats.dtype == np.float32 and feats.dtype.isnative
    assert feats.flags.writeable
    write_manifest(tmp_path / "m.txt", [ManifestEntry("u0", "ann", "u0.fea"),
                                        ManifestEntry("u1", "ben", "u1.fea")])
    assert {f.dtype for f in load_train_set(tmp_path / "m.txt").features} == {np.dtype(np.float32)}

    marks = [SadMark("c", 0.0, 2.6), SadMark("c", 3.5, 4.5), SadMark("c", 5.0, 7.0)]
    net64 = _region_net("ftdnn_msa", ("frame7", "frame9"), rng)
    for net in (net64, net64.astype(np.float32)):
        segs, vecs = conversation_embeddings(net, feats, marks)
        segs64, vecs64 = conversation_embeddings(net, feats.astype(np.float64), marks)
        assert segs == segs64 and len(segs) == 6
        assert vecs.dtype == net.dtype
        assert np.array_equal(vecs, vecs64)
        # no segment long enough to embed: no rows, still in the network's dtype
        segs, vecs = conversation_embeddings(net, feats[:10], marks)
        assert segs == [] and vecs.shape == (0, 8) and vecs.dtype == net.dtype


# the acceptance experiment's widths (tests/test_acceptance.py)
ACCEPTANCE_DIMS = DimOverrides(width=32, factor_width=32, inner_dim=16, pool_width=48,
                               branch_dim=24, embed_dim=24)


def _acceptance_net(arch, dtype, rng):
    net = initialize_network(build_architecture(arch, 3, dims=ACCEPTANCE_DIMS), seed=2)
    forward_batch(net, [rng.normal(0.3, 1.5, size=(200, 23))])
    return net.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("arch", ["ftdnn_msa", "tdnn"])
def test_chunked_embeddings_equal_one_pass(arch, dtype, monkeypatch):
    """Two long runs and a short one: with the chunk budget cut to 400
    frames the frame-level layers run in 8 chunks, the long runs cut into 5
    and 3 stretches, and every embedding equals, bit for bit, the one-chunk
    pass at the production budget. Each chunk holds at least 300 frames and
    each cut stretch at least 200, so every product keeps more rows than the
    largest few-row switch point of OpenBLAS (75 rows)."""
    rng = np.random.default_rng(50)
    net = _acceptance_net(arch, dtype, rng)
    feats = rng.normal(size=(2700, 23)).astype(np.float32)
    marks = [SadMark("c", 0.0, 14.25), SadMark("c", 15.25, 16.45), SadMark("c", 17.25, 26.25)]
    chunks, real = [], graph._chunks

    def recording(lengths, rows):
        chunks.append((lengths, real(lengths, rows)))
        return chunks[-1][1]

    monkeypatch.setattr(graph, "_chunks", recording)
    segs, whole = conversation_embeddings(net, feats, marks)
    monkeypatch.setattr(graph, "EMBED_CHUNK_FRAMES", 400)
    cut_segs, cut = conversation_embeddings(net, feats, marks)
    (lengths, one), (_, eight) = chunks
    assert lengths == [1425, 120, 900] and len(one) == 1 and len(eight) == 8
    assert all(sum(hi - lo for lo, hi in pieces.values()) >= 300 for pieces, _ in eight)
    stretches = [hi - lo for pieces, _ in eight for i, (lo, hi) in pieces.items()
                 if hi - lo < lengths[i]]
    assert len(stretches) == 8 and min(stretches) >= 200
    assert cut_segs == segs and len(segs) == 30
    assert cut.dtype == dtype and np.array_equal(cut, whole)


def test_embedding_memory_follows_the_chunk_not_the_conversation():
    """One SAD run at acceptance widths: embedding 60,000 frames traces a
    peak within 4 MB of embedding 6,000 frames. One pass over every frame
    peaked at 48.0 MB against 4.8 MB."""
    rng = np.random.default_rng(51)
    net = _acceptance_net("ftdnn_msa", np.float32, rng)
    peaks = []
    for frames in (6000, 60000):
        feats = rng.normal(size=(frames, 23)).astype(np.float32)
        tracemalloc.start()
        try:
            segs, _ = conversation_embeddings(net, feats, [SadMark("c", 0.0, frames / 100)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(segs) == frames // 75 - 1
    assert peaks[1] < peaks[0] + 4 * 2**20, peaks


def test_windowed_utterance_embeddings(tmp_path):
    net = _toy_net()
    rng = np.random.default_rng(13)
    arr = rng.normal(size=(300, 6))  # 3 s -> windows at 0, 0.75, 1.5
    write_features(tmp_path / "u0.fea", arr)
    write_features(tmp_path / "u1.fea", rng.normal(size=(150, 6)))
    write_manifest(tmp_path / "m.txt", [ManifestEntry("long", "ann", "u0.fea"),
                                        ManifestEntry("short", "ben", "u1.fea")])
    recs = windowed_utterance_embeddings(net, tmp_path / "m.txt")
    assert [(r.conversation_id, r.speaker, r.start_s, r.end_s) for r in recs] == [
        ("long", "ann", 0.0, 1.5),
        ("long", "ann", 0.75, 2.25),
        ("long", "ann", 1.5, 3.0),
        ("short", "ben", 0.0, 1.5),
    ]
    stored = arr.astype(np.float32).astype(np.float64)
    want = extract_embedding(net, stored[75:225])
    assert np.allclose(recs[1].vector, want, rtol=0, atol=1e-10)


def test_windowed_utterance_embeddings_reject_short_utterance(tmp_path):
    net = _toy_net()
    write_features(tmp_path / "u0.fea", np.zeros((100, 6)))
    write_features(tmp_path / "u1.fea", np.zeros((14, 6)))
    write_manifest(tmp_path / "m.txt", [ManifestEntry("a", "s1", "u0.fea"),
                                        ManifestEntry("b", "s2", "u1.fea")])
    with pytest.raises(InvalidInputError, match="^b: no usable segments within the features$"):
        windowed_utterance_embeddings(net, tmp_path / "m.txt")


# ------------------------------------------------------------------ backend

def _labeled_records(rng, speakers=20, per=15, dim=16):
    recs = []
    for k in range(speakers):
        mean = rng.normal(scale=3.0, size=dim)
        for j in range(per):
            recs.append(EmbeddingRecord(f"u{k}-{j}", 0.0, 1.0, f"s{k:02d}",
                                        mean + rng.normal(size=dim)))
    return recs


def test_fit_backend_shapes_and_psi():
    rng = np.random.default_rng(21)
    whitener, plda = fit_backend(_labeled_records(rng))
    assert whitener.transform.shape == (16, 16)
    assert plda.psi.shape == (16,)
    assert np.all(np.diff(plda.psi) <= 0)

    reduced, _ = fit_backend(_labeled_records(rng), pca_dim=10)
    assert reduced.transform.shape == (10, 16)


def test_fit_backend_requires_labels():
    rng = np.random.default_rng(2)
    recs = _labeled_records(rng, speakers=4, per=8, dim=5)
    recs[7] = recs[7]._replace(speaker="")
    with pytest.raises(InvalidInputError):
        fit_backend(recs)


def _two_blob_setup(rng, n_each=6, dim=16):
    whitener, plda = fit_backend(_labeled_records(rng, dim=dim))
    a = np.array([4.0] + [0.0] * (dim - 1))
    b = np.array([-4.0] + [0.0] * (dim - 1))
    vecs = np.concatenate([
        a + 0.2 * rng.normal(size=(n_each, dim)),
        b + 0.2 * rng.normal(size=(n_each, dim)),
    ])
    return whitener, plda, vecs


def test_conversation_scores_separate_blobs():
    rng = np.random.default_rng(33)
    whitener, plda, vecs = _two_blob_setup(rng)
    s = conversation_scores(vecs, whitener, plda)
    assert s.shape == (12, 12)
    within = [s[i, j] for i in range(12) for j in range(12)
              if i != j and (i < 6) == (j < 6)]
    cross = [s[i, j] for i in range(6) for j in range(6, 12)]
    assert min(within) > max(cross)


def test_conversation_scores_without_pairs():
    rng = np.random.default_rng(34)
    whitener, plda, vecs = _two_blob_setup(rng)
    for rows in (vecs[:1], vecs[:0]):
        s = conversation_scores(rows, whitener, plda)
        assert s.shape == (1, 1) and s[0, 0] == 0.0


def test_conversation_scores_reject_another_width():
    """Embeddings of another model's width are rejected, even when they form
    no pair."""
    rng = np.random.default_rng(35)
    whitener, plda, vecs = _two_blob_setup(rng)
    wider = np.hstack([vecs, vecs[:, :2]])
    for rows in (wider, wider[:1], wider[:0]):
        with pytest.raises(InvalidInputError, match=f"have {wider.shape[1]} dimensions, "
                                                    f"but the back-end takes {vecs.shape[1]}"):
            conversation_scores(rows, whitener, plda)


# ----------------------------------------------------------------- diarize

def _tiled_segments(n, conv="conv0"):
    segs = []
    for i in range(n):
        start = 0.75 * i
        segs.append(Segment(conv, start, start + 1.5, (int(100 * start), int(100 * start) + 150)))
    return segs


def test_diarize_conversation_oracle_k():
    rng = np.random.default_rng(5)
    whitener, plda, vecs = _two_blob_setup(rng, n_each=4)
    scores = conversation_scores(vecs, whitener, plda)
    entries = diarize_conversation(_tiled_segments(8), scores, oracle_k=2)
    assert [(e.speaker, e.start_s, e.end_s) for e in entries] == [
        ("spk0", 0.0, 3.375),  # midpoint of the label change
        ("spk1", 3.375, 6.75),
    ]
    assert all(e.conversation_id == "conv0" for e in entries)


def test_diarize_single_segment():
    seg = Segment("c", 0.0, 1.5, (0, 150))
    for rule in ({"oracle_k": 1}, {"threshold": 5.0}):
        entries = diarize_conversation([seg], np.zeros((1, 1)), **rule)
        assert len(entries) == 1
        assert (entries[0].start_s, entries[0].end_s, entries[0].speaker) == (0.0, 1.5, "spk0")


@pytest.mark.parametrize("n,k,speakers", [(1, 2, ["spk0"]), (2, 3, ["spk0", "spk1"])])
def test_diarize_oracle_count_above_segments(n, k, speakers):
    segs = [Segment("c", 2.0 * i, 2.0 * i + 1.5, (200 * i, 200 * i + 150)) for i in range(n)]
    scores = np.full((n, n), 3.0)  # even a strong pair stays apart
    entries = diarize_conversation(segs, scores, oracle_k=k)
    assert [(e.start_s, e.end_s, e.speaker) for e in entries] == [
        (s.start_s, s.end_s, spk) for s, spk in zip(segs, speakers)]


def test_diarize_length_mismatch():
    rng = np.random.default_rng(7)
    whitener, plda, vecs = _two_blob_setup(rng)
    scores = conversation_scores(vecs, whitener, plda)
    with pytest.raises(InvalidInputError):
        diarize_conversation(_tiled_segments(3), scores, oracle_k=2)

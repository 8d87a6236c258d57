"""Composition helpers: features to embeddings to scores to timelines.

These are the pieces the command line wires together; they stay importable so
experiments can drive the same code without shelling out.
"""

from __future__ import annotations

import numpy as np

from .backend import (
    CONV_PCA_FRACTION,
    EmbeddingRecord,
    Plda,
    Whitener,
    apply_whitener,
    conversation_pca,
    fit_pca_whitener,
    fit_plda,
    length_normalize,
    project_plda,
    score_matrix,
)
from .clustering import ahc
from .der import TimelineEntry, build_hypothesis
from .errors import InvalidInputError
from .features import FRAME_SHIFT_S, FeatureMatrix, SadMark, Segment, segment_speech
from .network import Network, extract_embeddings, receptive_span
from .training import load_manifest_features


def utterance_embeddings(net: Network, manifest_path) -> list[EmbeddingRecord]:
    """One whole-utterance embedding per manifest entry, labeled by speaker."""
    entries, feats = load_manifest_features(manifest_path)
    span = receptive_span(net.spec)
    for e, f in zip(entries, feats):
        if f.shape[0] <= span:
            raise InvalidInputError(
                f"utterance {e.utterance_id} has {f.shape[0]} frames, "
                f"needs more than {span}")
    vecs = extract_embeddings(net, feats)
    return [EmbeddingRecord(e.utterance_id, 0.0, f.shape[0] * FRAME_SHIFT_S,
                            e.speaker_id, v)
            for e, f, v in zip(entries, feats, vecs)]


def windowed_utterance_embeddings(net: Network, manifest_path) -> list[EmbeddingRecord]:
    """Labeled embeddings of each utterance's sliding windows.

    Cut with the same segmenter the diarizer uses, so a backend fit on these
    sees the within-speaker spread of the short segments it will later score;
    whole-utterance embeddings are far tighter and miscalibrate the PLDA.
    """
    entries, feats = load_manifest_features(manifest_path)
    span = receptive_span(net.spec)
    out = []
    for e, f in zip(entries, feats):
        fm = FeatureMatrix(f)
        marks = [SadMark(e.utterance_id, 0.0, f.shape[0] * FRAME_SHIFT_S)]
        segments = conversation_segments(fm, marks, min_frames=span + 2)
        vecs = _segment_embeddings(net, fm.values, segments)
        out.extend(EmbeddingRecord(e.utterance_id, s.start_s, s.end_s, e.speaker_id, v)
                   for s, v in zip(segments, vecs))
    return out


def conversation_segments(feats: FeatureMatrix, marks: list[SadMark],
                          min_frames: int) -> list[Segment]:
    """Scoring segments for one conversation, clipped to the feature matrix.

    SAD times can slightly outrun the features (the MFCC window eats a few
    trailing frames in audio mode); anything that no longer spans min_frames
    after clipping is dropped.
    """
    out = []
    for seg in segment_speech(marks):
        a, b = seg.frame_range
        b = min(b, feats.num_frames)
        if b - a >= min_frames:
            out.append(Segment(seg.conversation_id, seg.start_s, seg.end_s, (a, b)))
    if not out:
        raise InvalidInputError(
            f"{marks[0].conversation_id}: no usable segments within the features")
    return out


def conversation_embeddings(net: Network, feats: FeatureMatrix,
                            marks: list[SadMark]) -> tuple[list[Segment], np.ndarray]:
    span = receptive_span(net.spec)
    segments = conversation_segments(feats, marks, min_frames=span + 2)
    return segments, _segment_embeddings(net, feats.values, segments)


def _segment_embeddings(net: Network, values: np.ndarray,
                        segments: list[Segment]) -> np.ndarray:
    """One embedding per segment, segments in order of start frame.

    Segments whose frame ranges overlap or touch form one run, and the
    network sees each run once, as one sequence with a pooling row per
    segment. That is exact: in inference batch norm uses its running
    moments and dropout is off, so frame-level row j of a run depends only on
    its input frames [j, j + span], and a segment's window pools the same
    numbers a forward pass over values[a:b] alone would.
    """
    runs: list[list[int]] = []
    rows = []
    for a, b in (s.frame_range for s in segments):
        if runs and a <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], b)
        else:
            runs.append([a, b])
        start = runs[-1][0]
        rows.append((len(runs) - 1, [(a - start, b - start)]))
    return extract_embeddings(net, [values[a:b] for a, b in runs], rows)


def fit_backend(records: list[EmbeddingRecord], pca_dim: int | None = None
                ) -> tuple[Whitener, Plda]:
    """Whitener plus PLDA from labeled embeddings (length-normalized first)."""
    missing = [r.conversation_id for r in records if not r.speaker]
    if missing:
        raise InvalidInputError(
            f"{len(missing)} embeddings have no speaker label (first: {missing[0]})")
    x = length_normalize(np.stack([r.vector for r in records]))
    whitener = fit_pca_whitener(x, n_components=pca_dim)
    plda = fit_plda(apply_whitener(whitener, x), [r.speaker for r in records])
    return whitener, plda


def conversation_scores(vectors: np.ndarray, whitener: Whitener, plda: Plda,
                        pca_fraction: float = CONV_PCA_FRACTION) -> np.ndarray:
    """Pair score matrix for one conversation's segment embeddings:
    length-normalize, whiten, denoise in the conversation subspace, project
    through the PLDA diagonalizer, score all pairs."""
    x = apply_whitener(whitener, length_normalize(vectors))
    x, _ = conversation_pca(x, pca_fraction)
    return score_matrix(plda, project_plda(plda, x))


def diarize_conversation(
    segments: list[Segment],
    vectors: np.ndarray,
    whitener: Whitener,
    plda: Plda,
    threshold: float | None = None,
    oracle_k: int | None = None,
    pca_fraction: float = CONV_PCA_FRACTION,
) -> list[TimelineEntry]:
    if len(segments) != len(vectors):
        raise InvalidInputError(f"{len(segments)} segments but {len(vectors)} embeddings")
    if len(segments) == 1:  # nothing to cluster
        labels = np.zeros(1, dtype=np.int64)
    else:
        scores = conversation_scores(vectors, whitener, plda, pca_fraction)
        labels = ahc(scores, threshold=threshold, oracle_k=oracle_k)
    return build_hypothesis(segments, labels.tolist())

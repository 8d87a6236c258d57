"""Composition helpers: features to embeddings to scores to timelines.

These are the pieces the command line wires together; they stay importable so
experiments can drive the same code without shelling out.
A conversation with no segment long enough to embed is one speaker over its
speech span; an oracle speaker count above a conversation's segments is capped.
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
from .features import FRAME_SHIFT_S, SadMark, Segment, segment_speech
from .network import Network, extract_embeddings, receptive_span
from .training import load_manifest


def load_utterances(net: Network, manifest_path):
    """load_manifest's entries and features, once every utterance is known,
    by its shape, to hold a segment the network can embed."""
    entries, feats, shapes = load_manifest(manifest_path)
    for e, (frames, _) in zip(entries, shapes):
        marks = [SadMark(e.utterance_id, 0.0, frames * FRAME_SHIFT_S)]
        if not conversation_segments(frames, marks, _min_segment_frames(net)):
            raise InvalidInputError(f"{e.utterance_id}: no usable segments within the features")
    return entries, feats


def windowed_utterance_embeddings(net: Network, manifest_path) -> list[EmbeddingRecord]:
    """Labeled embeddings of each utterance's sliding windows.

    Cut with the same segmenter the diarizer uses, so a backend fit on these
    sees the within-speaker spread of the short segments it will later score;
    whole-utterance embeddings are far tighter and miscalibrate the PLDA.
    load_utterances checks every file and utterance first, so a corrupt file
    or an utterance too short to embed fails before the first embedding.
    Each utterance's features are then read, embedded and dropped in turn.
    """
    entries, feats = load_utterances(net, manifest_path)
    out = []
    for e, f in zip(entries, feats):
        marks = [SadMark(e.utterance_id, 0.0, f.shape[0] * FRAME_SHIFT_S)]
        segments, vecs = conversation_embeddings(net, f, marks)
        out.extend(EmbeddingRecord(e.utterance_id, s.start_s, s.end_s, e.speaker_id, v)
                   for s, v in zip(segments, vecs))
    return out


def conversation_segments(num_frames: int, marks: list[SadMark],
                          min_frames: int) -> list[Segment]:
    """Scoring segments for one conversation, clipped to its num_frames frames.

    SAD times can slightly outrun the features (the MFCC window eats a few
    trailing frames in audio mode); anything that no longer spans min_frames
    after clipping is dropped, so a near-empty conversation has none.
    """
    out = []
    for seg in segment_speech(marks):
        a, b = seg.frame_range
        b = min(b, num_frames)
        if b - a >= min_frames:
            out.append(Segment(seg.conversation_id, seg.start_s, seg.end_s, (a, b)))
    return out


def conversation_embeddings(net: Network, feats: np.ndarray,
                            marks: list[SadMark]) -> tuple[list[Segment], np.ndarray]:
    """Segments of one conversation and an embedding for each, in the
    network's dtype; no rows, and no network pass, when no segment is long
    enough to embed."""
    segments = conversation_segments(feats.shape[0], marks, _min_segment_frames(net))
    if not segments:
        return segments, np.empty((0, net.params[net.spec.embedding_layer]["W"].shape[0]),
                                  dtype=net.dtype)
    return segments, _segment_embeddings(net, feats, segments)


def _min_segment_frames(net: Network) -> int:
    """Fewest frames a segment needs: two frame-level rows after the receptive span."""
    return receptive_span(net.spec) + 2


def speech_span(marks: list[SadMark]) -> Segment:
    """One segment from a conversation's first speech to its last. It stands
    in for a conversation with no segment long enough to embed."""
    return Segment(marks[0].conversation_id, min(m.start_s for m in marks),
                   max(m.end_s for m in marks))


def _segment_embeddings(net: Network, values: np.ndarray,
                        segments: list[Segment]) -> np.ndarray:
    """One embedding per segment, segments in order of start frame.

    Segments whose frame ranges overlap or touch form one run, and the
    network sees each run once, as one sequence with a pooling row per
    segment. That is exact: in inference batch norm uses its running
    moments and dropout is off, so frame-level row j of a run depends only on
    its input frames [j, j + span], and a segment's window pools the same
    numbers a forward pass over values[a:b] alone would. extract_embeddings
    takes the runs in chunks of whole segments, at most EMBED_CHUNK_FRAMES
    (8,192) frames each, and a run longer than that in stretches; less speech
    than that is one chunk, the runs whole.
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
    through the PLDA diagonalizer, score all pairs. Fewer than two vectors
    (one segment, or a `speech_span`) leave no pair: a 1 x 1 zero matrix.
    The embeddings must be as wide as the whitener's input."""
    width = whitener.transform.shape[1]
    if vectors.shape[1] != width:
        raise InvalidInputError(f"the embeddings have {vectors.shape[1]} dimensions, "
                                f"but the back-end takes {width}")
    if len(vectors) < 2:
        return np.zeros((1, 1))
    x = apply_whitener(whitener, length_normalize(vectors))
    x, _ = conversation_pca(x, pca_fraction)
    return score_matrix(plda, project_plda(plda, x))


def diarize_conversation(segments: list[Segment], scores: np.ndarray,
                         threshold: float | None = None,
                         oracle_k: int | None = None) -> list[TimelineEntry]:
    """Cluster one conversation's pair scores (one stopping rule, as in `ahc`)
    and build its timeline. An oracle count above the segment count is capped
    at it, so a one-segment conversation is always spk0."""
    if len(segments) != len(scores):
        raise InvalidInputError(f"{len(segments)} segments but {len(scores)} score rows")
    if oracle_k is not None:
        oracle_k = min(oracle_k, len(segments))
    labels = ahc(scores, threshold=threshold, oracle_k=oracle_k)
    return build_hypothesis(segments, labels.tolist())

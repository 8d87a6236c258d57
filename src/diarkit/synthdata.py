"""Deterministic synthetic speakers, conversations, and corpora.

Speakers are Gaussian emitters in MFCC space: a mean on a sphere whose radius
sets how separable the population is, a diagonal covariance, and AR(1) frame
smoothing to mimic the temporal correlation of real cepstra. Conversations
are non-overlapping turn sequences with exact frame-quantized references, so
a diarization hypothesis can be scored against ground truth with no
annotation noise.

Everything is generated straight in feature space for speed; the optional
audio mode renders each turn as a speaker-specific sine mixture so the wav
front end can be exercised end to end.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.signal

from .der import TimelineEntry, write_rttm, write_speaker_counts
from .errors import InvalidInputError
from .features import (
    FRAME_SHIFT_S,
    NUM_COEFFS,
    SAMPLE_RATE,
    SadMark,
    write_features,
    write_sad,
    write_wav,
)
from .training import ManifestEntry, write_manifest

DEFAULT_SMOOTHING = 0.9
MIN_TURN_S = 1.5  # every turn must admit at least one scoring segment
_FPS = int(round(1.0 / FRAME_SHIFT_S))


@dataclass(frozen=True)
class SynthSpeaker:
    speaker_id: str
    mean: np.ndarray
    covariance: np.ndarray  # diagonal entries
    smoothing: float = DEFAULT_SMOOTHING

    def __post_init__(self):
        if self.mean.shape != self.covariance.shape or self.mean.ndim != 1:
            raise InvalidInputError("speaker mean and covariance shapes disagree")
        if not np.all(self.covariance > 0):
            raise InvalidInputError(f"{self.speaker_id}: covariance must be positive")
        check_smoothing(self.smoothing)


@dataclass(frozen=True)
class SynthConversation:
    conversation_id: str
    turns: list[tuple[str, float]]  # (speaker_id, duration_s)
    reference: list[TimelineEntry]
    features: np.ndarray  # (frames, NUM_COEFFS)
    sad: list[SadMark]


def check_smoothing(smoothing: float) -> None:
    """The AR(1) coefficient of a speaker's frames is in [0, 1)."""
    if not 0.0 <= smoothing < 1.0:
        raise InvalidInputError(f"smoothing must be in [0, 1), got {smoothing}")


def check_positive(value, name: str = "value") -> None:
    """A count or a length in seconds is finite and positive."""
    if not 0 < value < math.inf:
        raise InvalidInputError(f"{name} must be finite and positive, got {value}")


def check_turn_length(seconds: float) -> None:
    """A turn-length bound is finite and admits at least one scoring segment."""
    if not MIN_TURN_S < seconds < math.inf:
        raise InvalidInputError(f"turn length must be finite and above {MIN_TURN_S} s, got {seconds}")


def check_turns(total_s: float, turn_range_s: tuple[float, float]) -> None:
    """Two turn-length bounds lo <= hi, and room for one turn in total_s."""
    lo, hi = turn_range_s
    check_turn_length(lo)
    check_turn_length(hi)
    if lo > hi or total_s < lo:
        raise InvalidInputError(f"turn range {turn_range_s} is empty or longer than {total_s} s")


def check_separation(separation: float) -> None:
    """The radius of the speaker-mean sphere is finite and nonnegative."""
    if not 0.0 <= separation < np.inf:
        raise InvalidInputError(f"separation must be finite and nonnegative, got {separation}")


def generate_speakers(
    n: int,
    separation: float,
    seed,  # int or SeedSequence
    smoothing: float = DEFAULT_SMOOTHING,
) -> list[SynthSpeaker]:
    """Means drawn uniformly on the sphere of radius `separation`."""
    if n < 2:
        raise InvalidInputError(f"need at least 2 speakers, got {n}")
    check_separation(separation)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        direction = rng.normal(size=NUM_COEFFS)
        norm = np.linalg.norm(direction)
        while norm < 1e-12:
            direction = rng.normal(size=NUM_COEFFS)
            norm = np.linalg.norm(direction)
        out.append(SynthSpeaker(f"spk{i:03d}", separation * direction / norm,
                                np.ones(NUM_COEFFS), smoothing))
    return out


def _ar1_frames(rng: np.random.Generator, speaker: SynthSpeaker, frames: int) -> np.ndarray:
    """Stationary AR(1) deviations around the speaker mean: the first frame
    carries full variance, later ones mix in sqrt(1-c^2)-scaled innovations."""
    c = speaker.smoothing
    sd = np.sqrt(speaker.covariance)
    eps = rng.normal(size=(frames, len(sd)))
    u = eps * (sd * math.sqrt(1.0 - c * c))
    u[0] = eps[0] * sd
    dev = scipy.signal.lfilter([1.0], [1.0, -c], u, axis=0)
    return speaker.mean + dev


def generate_utterance(speaker: SynthSpeaker, duration_s: float, seed) -> np.ndarray:
    frames = int(round(duration_s * _FPS))
    if frames < 1:
        raise InvalidInputError(f"utterance of {duration_s} s has no frames")
    rng = np.random.default_rng(seed)
    return _ar1_frames(rng, speaker, frames)


def generate_conversation(
    speakers: Sequence[SynthSpeaker],
    total_s: float,
    turn_range_s: tuple[float, float],
    seed,
    conversation_id: str = "conv",
) -> SynthConversation:
    """Random no-immediate-repeat turn taking with frame-exact references.

    Turn lengths are uniform over the range on the 10 ms frame grid; a tail
    shorter than the minimum turn is absorbed into the final turn, so every
    turn admits at least one scoring segment. SAD covers the full duration.
    """
    if len(speakers) < 2:
        raise InvalidInputError("a conversation needs at least 2 speakers")
    check_turns(total_s, turn_range_s)
    ids = {s.speaker_id for s in speakers}
    if len(ids) != len(speakers):
        raise InvalidInputError("duplicate speaker ids in conversation cast")

    rng = np.random.default_rng(seed)
    lo, hi = turn_range_s
    total_f = int(round(total_s * _FPS))
    lo_f, hi_f = int(round(lo * _FPS)), int(round(hi * _FPS))
    turns_f: list[tuple[int, int]] = []  # (speaker index, frames)
    t = 0
    prev = -1
    while t < total_f:
        dur = int(rng.integers(lo_f, hi_f + 1))
        if total_f - (t + dur) < lo_f:
            dur = total_f - t
        choices = [i for i in range(len(speakers)) if i != prev]
        idx = choices[int(rng.integers(0, len(choices)))]
        turns_f.append((idx, dur))
        t += dur
        prev = idx

    blocks, reference, turns = [], [], []
    t = 0
    for idx, dur in turns_f:
        spk = speakers[idx]
        blocks.append(_ar1_frames(rng, spk, dur))
        reference.append(TimelineEntry(conversation_id, t / _FPS, (t + dur) / _FPS,
                                       spk.speaker_id))
        turns.append((spk.speaker_id, dur / _FPS))
        t += dur
    features = np.vstack(blocks)
    sad = [SadMark(conversation_id, 0.0, total_f / _FPS)]
    return SynthConversation(conversation_id, turns, reference, features, sad)


# ----------------------------------------------------------------- audio mode

def conversation_audio(conv: SynthConversation, speakers: Sequence[SynthSpeaker]) -> np.ndarray:
    """Samples at SAMPLE_RATE rendering each turn as a small sine mixture
    keyed to the speaker, plus white noise of std 0.01; enough structure for the
    MFCC front end to tell speakers apart, no pretense of being speech."""
    order = {s.speaker_id: i for i, s in enumerate(speakers)}
    # zlib.crc32 is stable across processes, unlike hash()
    rng = np.random.default_rng(zlib.crc32(conv.conversation_id.encode("utf-8")))
    pieces = []
    for spk_id, dur in conv.turns:
        idx = order[spk_id]
        n = int(round(dur * SAMPLE_RATE))
        t = np.arange(n) / SAMPLE_RATE
        f0 = 180.0 + 60.0 * idx
        tone = (0.4 * np.sin(2 * np.pi * f0 * t)
                + 0.25 * np.sin(2 * np.pi * 2.1 * f0 * t)
                + 0.15 * np.sin(2 * np.pi * 3.3 * f0 * t))
        pieces.append(tone + 0.01 * rng.normal(size=n))
    return np.concatenate(pieces)


# -------------------------------------------------------------- corpus writer

@dataclass(frozen=True)
class CorpusSpec:
    """Everything needed to lay a train/eval corpus on disk."""

    n_speakers: int = 20
    separation: float = 3.0
    train_utts: int = 10          # utterances per speaker
    train_utt_s: float = 12.0
    n_convs: int = 50
    conv_s: float = 60.0
    turn_min_s: float = 3.0
    turn_max_s: float = 6.0
    speakers_per_conv: int = 2
    smoothing: float = DEFAULT_SMOOTHING
    seed: int = 0
    audio: bool = False

    def __post_init__(self):
        if self.speakers_per_conv > self.n_speakers:
            raise InvalidInputError("more speakers per conversation than speakers")
        if self.speakers_per_conv < 2:
            raise InvalidInputError("conversations need at least 2 speakers")
        for name in ("n_speakers", "train_utts", "train_utt_s", "n_convs", "conv_s"):
            check_positive(getattr(self, name), name)
        check_smoothing(self.smoothing)
        check_turns(self.conv_s, (self.turn_min_s, self.turn_max_s))


def write_corpus(out_dir, spec: CorpusSpec) -> dict[str, str]:
    """Write a full corpus; returns the paths of the top-level artifacts.

    Layout: train/manifest.txt plus train/feats/*.fea for the single-speaker
    training utterances; eval/feats/*.fea, eval/ref.rttm, eval/sad.lab and
    eval/oracle_k.txt for the conversations (plus eval/wav/*.wav in audio
    mode). All randomness descends from one seed sequence, so the same spec
    writes the same corpus.
    """
    root = os.fspath(out_dir)
    train_feats = os.path.join(root, "train", "feats")
    eval_feats = os.path.join(root, "eval", "feats")
    os.makedirs(train_feats, exist_ok=True)
    os.makedirs(eval_feats, exist_ok=True)
    if spec.audio:
        os.makedirs(os.path.join(root, "eval", "wav"), exist_ok=True)

    seeds = np.random.SeedSequence(spec.seed)
    speaker_seed, train_seed, eval_seed = seeds.spawn(3)
    speakers = generate_speakers(
        spec.n_speakers, spec.separation,
        seed=speaker_seed, smoothing=spec.smoothing)

    entries = []
    utt_seeds = train_seed.spawn(spec.n_speakers * spec.train_utts)
    for i, spk in enumerate(speakers):
        for j in range(spec.train_utts):
            utt_id = f"{spk.speaker_id}-u{j:02d}"
            rel = os.path.join("feats", f"{utt_id}.fea")
            feats = generate_utterance(spk, spec.train_utt_s,
                                       seed=utt_seeds[i * spec.train_utts + j])
            write_features(os.path.join(root, "train", rel), feats)
            entries.append(ManifestEntry(utt_id, spk.speaker_id, rel))
    manifest_path = os.path.join(root, "train", "manifest.txt")
    write_manifest(manifest_path, entries)

    reference: list[TimelineEntry] = []
    sad_marks: list[SadMark] = []
    counts: dict[str, int] = {}
    cast_rng = np.random.default_rng(eval_seed)
    conv_seeds = eval_seed.spawn(spec.n_convs)
    for i in range(spec.n_convs):
        conv_id = f"conv{i:03d}"
        cast_idx = cast_rng.choice(spec.n_speakers, size=spec.speakers_per_conv, replace=False)
        cast = [speakers[k] for k in sorted(cast_idx)]
        conv = generate_conversation(cast, spec.conv_s,
                                     (spec.turn_min_s, spec.turn_max_s),
                                     seed=conv_seeds[i], conversation_id=conv_id)
        write_features(os.path.join(eval_feats, f"{conv_id}.fea"), conv.features)
        if spec.audio:
            write_wav(os.path.join(root, "eval", "wav", f"{conv_id}.wav"),
                      conversation_audio(conv, cast))
        reference.extend(conv.reference)
        sad_marks.extend(conv.sad)
        counts[conv_id] = len({spk for spk, _ in conv.turns})

    ref_path = os.path.join(root, "eval", "ref.rttm")
    sad_path = os.path.join(root, "eval", "sad.lab")
    oracle_path = os.path.join(root, "eval", "oracle_k.txt")
    write_rttm(reference, ref_path)
    write_sad(sad_path, sad_marks)
    write_speaker_counts(oracle_path, counts)
    return {
        "manifest": manifest_path,
        "train_feats": train_feats,
        "eval_feats": eval_feats,
        "reference": ref_path,
        "sad": sad_path,
        "oracle_k": oracle_path,
    }

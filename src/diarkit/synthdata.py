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

The smoothing is numpy's own, and no scipy is loaded: y[t] = c * y[t-1] +
u[t], one multiply and one add per value, the same roundings as
scipy.signal.lfilter([1], [1, -c], u, axis=0). write_corpus draws every
block's noise first (each utterance and each conversation turn, each from its
own generator, in a fixed order), then steps all the blocks of up to
SMOOTH_BLOCK_VALUES values together, so the Python steps follow the longest
block, not the number of blocks.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .der import TimelineEntry, write_rttm, write_speaker_counts
from .errors import Interval, InvalidInputError
from .features import (
    FRAME_SHIFT_S,
    NUM_COEFFS,
    SAMPLE_RATE,
    SadMark,
    write_features,
    write_sad,
    write_wav,
)
from .training import SEED_DOMAIN, ManifestEntry, write_manifest

DEFAULT_SMOOTHING = 0.9
SMOOTHING_DOMAIN = Interval("smoothing", 0.0, 1.0)  # a speaker's AR(1) coefficient
SEPARATION_DOMAIN = Interval("separation", 0.0)  # radius of the speaker-mean sphere
SPEAKERS_DOMAIN = Interval("speaker count", 2)  # of a population or a conversation
MIN_TURN_S = 1.5  # every turn must admit at least one scoring segment
TURN_DOMAIN = Interval("turn length", MIN_TURN_S, ends="()")  # seconds
UTTERANCE_DOMAIN = Interval("utterance length", FRAME_SHIFT_S)  # seconds: one frame at least
TRAIN_UTTS_DOMAIN = Interval("train_utts", 1)  # per speaker
CONVS_DOMAIN = Interval("n_convs", 1)
CONV_S_DOMAIN = Interval("conv_s", 0.0, ends="()")
_FPS = int(round(1.0 / FRAME_SHIFT_S))
SMOOTH_BLOCK_VALUES = 1 << 20  # values one AR(1) recursion holds (8 MB)


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
        SMOOTHING_DOMAIN.check(self.smoothing)


@dataclass(frozen=True)
class SynthConversation:
    conversation_id: str
    turns: list[tuple[str, float]]  # (speaker_id, duration_s)
    reference: list[TimelineEntry]
    features: np.ndarray  # (frames, NUM_COEFFS)
    sad: list[SadMark]


def check_turns(total_s: float, turn_range_s: tuple[float, float]) -> None:
    """Two turn-length bounds lo <= hi, and room for one turn in total_s."""
    lo, hi = turn_range_s
    TURN_DOMAIN.check(lo)
    TURN_DOMAIN.check(hi)
    if lo > hi or total_s < lo:
        raise InvalidInputError(f"turn range {turn_range_s} is empty or longer than {total_s} s")


def generate_speakers(
    n: int,
    separation: float,
    seed,  # int or SeedSequence
    smoothing: float = DEFAULT_SMOOTHING,
) -> list[SynthSpeaker]:
    """Means drawn uniformly on the sphere of radius `separation`."""
    SPEAKERS_DOMAIN.check(n)
    SEPARATION_DOMAIN.check(separation)
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


_Block = tuple[SynthSpeaker, np.ndarray]  # (speaker, noise) before the recursion, frames after


class _Recursion:
    """Blocks of noise made into stationary AR(1) frames by one recursion.

    add() scales each block into one block-major buffer as it comes, so no
    block's noise is held twice: by the speaker's standard deviation on the
    first frame, and by that times sqrt(1-c^2) on later ones. That is the
    input u. The frames are the speaker mean plus y[t] = c * y[t-1] + u[t],
    one multiply and one add per value, the roundings of
    scipy.signal.lfilter([1], [1, -c], u, axis=0).

    frames() steps all blocks together, so the Python steps follow the
    longest block, not the number of blocks. It ranks the blocks longest
    first and packs them step by step without padding: a step holds one row
    of each block still active, in rank order, and each run of steps between
    two block ends is one (steps, blocks, dim) array.
    """

    def __init__(self, rows: int, dim: int):
        self.values = np.empty((rows, dim))
        self.speakers: list[SynthSpeaker] = []
        self.lengths: list[int] = []
        self.rows = 0

    def add(self, speaker: SynthSpeaker, noise: np.ndarray) -> None:
        c, sd = speaker.smoothing, np.sqrt(speaker.covariance)
        u = self.values[self.rows:self.rows + len(noise)]
        np.multiply(noise, sd * math.sqrt(1.0 - c * c), out=u)
        u[0] = noise[0] * sd
        self.speakers.append(speaker)
        self.lengths.append(len(noise))
        self.rows += len(noise)

    def frames(self, dtype=np.float64) -> Iterator[_Block]:
        """Each block's (speaker, frames) in the order added, the frames
        rounded to `dtype` once, from the float64 sum."""
        lengths, values = self.lengths, self.values[:self.rows]
        dim = values.shape[1]
        starts = np.cumsum([0] + lengths)
        order = np.argsort([-n for n in lengths], kind="stable")
        bounds = [0] + sorted(set(lengths))  # the active blocks change where one ends
        ascending = np.sort(lengths)
        runs = [(a, b, len(lengths) - int(np.searchsorted(ascending, a, side="right")))
                for a, b in zip(bounds, bounds[1:])]  # (first step, end step, blocks active)
        src = np.concatenate([(starts[order[:k]] + np.arange(a, b)[:, None]).ravel()
                              for a, b, k in runs])  # the block row each packed row takes
        packed = values.take(src, axis=0)

        coef = np.repeat([self.speakers[j].smoothing for j in order], dim)
        coef = coef.reshape(len(order), dim)  # full rows: no broadcast in the step
        scaled = np.empty_like(coef)
        at, y = 0, None
        for a, b, k in runs:
            steps = packed[at:at + (b - a) * k].reshape(b - a, k, dim)
            at += (b - a) * k
            c, cy = coef[:k], scaled[:k]
            rows = iter(steps)
            y = next(rows) if y is None else y[:k]  # step 0 is u itself
            for row in rows:
                np.multiply(c, y, cy)
                np.add(row, cy, row)
                y = row

        dst = np.empty_like(src)
        dst[src] = np.arange(len(src))
        packed.take(dst, axis=0, out=values, mode="clip")  # clip: raise would buffer
        del packed, y  # y views packed
        for spk, lo, hi in zip(self.speakers, starts, starts[1:]):
            out = np.empty((hi - lo, dim), dtype)
            yield spk, np.add(spk.mean, values[lo:hi], out=out)


def _utterance(speaker: SynthSpeaker, duration_s: float, seed) -> list[_Block]:
    """An utterance's one block."""
    UTTERANCE_DOMAIN.check(duration_s)
    rng = np.random.default_rng(seed)
    return [(speaker, rng.normal(size=(int(round(duration_s * _FPS)), len(speaker.mean))))]


def _turns(
    speakers: Sequence[SynthSpeaker],
    total_s: float,
    turn_range_s: tuple[float, float],
    seed,
) -> list[_Block]:
    """A conversation's blocks, one per turn, from random no-immediate-repeat
    turn taking. Turn lengths are uniform over the range on the 10 ms frame
    grid; a tail shorter than the minimum turn is absorbed into the final
    turn, so every turn admits at least one scoring segment."""
    SPEAKERS_DOMAIN.check(len(speakers))
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
    return [(speakers[idx], rng.normal(size=(dur, len(speakers[idx].mean))))
            for idx, dur in turns_f]


def _conversation(conversation_id: str, turns: Sequence[_Block]) -> SynthConversation:
    """The conversation of smoothed turns, in order, with frame-exact
    references; SAD covers the full duration."""
    reference, spoken = [], []
    t = 0
    for spk, frames in turns:
        dur = len(frames)
        reference.append(TimelineEntry(conversation_id, t / _FPS, (t + dur) / _FPS,
                                       spk.speaker_id))
        spoken.append((spk.speaker_id, dur / _FPS))
        t += dur
    features = np.vstack([frames for _, frames in turns])
    sad = [SadMark(conversation_id, 0.0, t / _FPS)]
    return SynthConversation(conversation_id, spoken, reference, features, sad)


def _smooth_items(items: Iterable[tuple[object, list[_Block]]]
                  ) -> Iterator[tuple[object, list[_Block]]]:
    """(key, blocks) items in order, each with its blocks smoothed to float32
    frames, as feature files hold them. Whole items share one recursion of
    at most SMOOTH_BLOCK_VALUES values (or one item, if it is larger), so
    memory does not grow with the corpus."""
    keys, rec = [], None
    for key, blocks in items:
        rows, dim = sum(len(noise) for _, noise in blocks), blocks[0][1].shape[1]
        if rec is not None and rec.rows + rows > len(rec.values):
            yield from _regroup(keys, rec.frames(np.float32))
            rec = None  # freed before the next one is made
        if rec is None:
            keys, rec = [], _Recursion(max(rows, SMOOTH_BLOCK_VALUES // dim), dim)
        for spk, noise in blocks:
            rec.add(spk, noise)
        keys.append((key, len(blocks)))
    yield from _regroup(keys, rec.frames(np.float32))


def _regroup(keys: list[tuple[object, int]], smoothed: Iterator[_Block]
             ) -> Iterator[tuple[object, list[_Block]]]:
    """Each key with its next n smoothed blocks; returning drops `smoothed`
    and with it the recursion's buffers."""
    for key, n in keys:
        yield key, [next(smoothed) for _ in range(n)]


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
        SPEAKERS_DOMAIN.check(self.n_speakers)
        SEPARATION_DOMAIN.check(self.separation)
        TRAIN_UTTS_DOMAIN.check(self.train_utts)
        UTTERANCE_DOMAIN.check(self.train_utt_s)
        CONVS_DOMAIN.check(self.n_convs)
        CONV_S_DOMAIN.check(self.conv_s)
        SPEAKERS_DOMAIN.check(self.speakers_per_conv)
        SMOOTHING_DOMAIN.check(self.smoothing)
        SEED_DOMAIN.check(self.seed)
        if self.speakers_per_conv > self.n_speakers:
            raise InvalidInputError("more speakers per conversation than speakers")
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

    utt_seeds = train_seed.spawn(spec.n_speakers * spec.train_utts)
    cast_rng = np.random.default_rng(eval_seed)
    conv_seeds = eval_seed.spawn(spec.n_convs)

    def draws():  # every block's noise, each item's from its own generator
        for i, spk in enumerate(speakers):
            for j in range(spec.train_utts):
                utt_id = f"{spk.speaker_id}-u{j:02d}"
                rel = os.path.join("feats", f"{utt_id}.fea")
                yield (ManifestEntry(utt_id, spk.speaker_id, rel),
                       _utterance(spk, spec.train_utt_s, utt_seeds[i * spec.train_utts + j]))
        for i in range(spec.n_convs):
            cast_idx = cast_rng.choice(spec.n_speakers, size=spec.speakers_per_conv, replace=False)
            cast = [speakers[k] for k in sorted(cast_idx)]
            yield (f"conv{i:03d}", cast), _turns(cast, spec.conv_s,
                                                 (spec.turn_min_s, spec.turn_max_s), conv_seeds[i])

    entries: list[ManifestEntry] = []
    reference: list[TimelineEntry] = []
    sad_marks: list[SadMark] = []
    counts: dict[str, int] = {}
    for key, turns in _smooth_items(draws()):
        if isinstance(key, ManifestEntry):
            write_features(os.path.join(root, "train", key.path), turns[0][1])
            entries.append(key)
            continue
        conv_id, cast = key
        conv = _conversation(conv_id, turns)
        write_features(os.path.join(eval_feats, f"{conv_id}.fea"), conv.features)
        if spec.audio:
            write_wav(os.path.join(root, "eval", "wav", f"{conv_id}.wav"),
                      conversation_audio(conv, cast))
        reference.extend(conv.reference)
        sad_marks.extend(conv.sad)
        counts[conv_id] = len({spk for spk, _ in conv.turns})

    manifest_path = os.path.join(root, "train", "manifest.txt")
    write_manifest(manifest_path, entries)
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

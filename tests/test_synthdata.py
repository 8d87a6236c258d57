"""Synthetic corpus tests: sphere geometry, AR(1) statistics against the
closed-form variance of a stationary AR(1) sample mean, reference exactness,
and corpus determinism on disk."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from diarkit import synthdata
from diarkit.der import read_rttm, read_speaker_counts
from diarkit.errors import InvalidInputError
from diarkit.features import compute_mfcc, read_features, read_sad
from diarkit.synthdata import (
    CorpusSpec,
    SynthSpeaker,
    _Recursion,
    conversation_audio,
    generate_speakers,
    write_corpus,
)
from diarkit.training import load_train_set

from blas_kernels import PIN_KERNELS
from synth_alone import generate_conversation, generate_utterance, smooth


# ------------------------------------------------------------------- speakers

def test_speaker_means_on_sphere():
    spk = generate_speakers(8, separation=3.5, seed=0)
    assert len(spk) == 8
    for s in spk:
        assert np.linalg.norm(s.mean) == pytest.approx(3.5, abs=1e-12)
        assert np.all(s.covariance > 0)
    # chord length between two points on a radius-r sphere never exceeds 2r
    dists = [np.linalg.norm(a.mean - b.mean) for a in spk for b in spk if a is not b]
    assert max(dists) <= 2 * 3.5 + 1e-9
    # and concentrates near sqrt(2) * r in high dimension
    assert np.mean(dists) == pytest.approx(math.sqrt(2) * 3.5, rel=0.15)


def test_speaker_zero_separation_collapses():
    for s in generate_speakers(4, separation=0.0, seed=1):
        assert np.allclose(s.mean, 0.0)


def test_speakers_deterministic():
    a = generate_speakers(5, 2.0, seed=7)
    b = generate_speakers(5, 2.0, seed=7)
    c = generate_speakers(5, 2.0, seed=8)
    for x, y in zip(a, b):
        assert np.array_equal(x.mean, y.mean)
    assert not np.array_equal(a[0].mean, c[0].mean)


@pytest.mark.parametrize("separation", [float("nan"), float("inf"), -float("inf")])
def test_speakers_reject_bad_separation(separation):
    with pytest.raises(InvalidInputError, match=r"separation must be in \[0, inf\)"):
        generate_speakers(3, separation, seed=0)


def test_speaker_validation():
    with pytest.raises(InvalidInputError):
        generate_speakers(1, 1.0, seed=0)
    with pytest.raises(InvalidInputError):
        generate_speakers(3, -1.0, seed=0)
    with pytest.raises(InvalidInputError):
        SynthSpeaker("x", np.zeros(3), np.zeros(3))
    with pytest.raises(InvalidInputError):
        SynthSpeaker("x", np.zeros(3), np.ones(3), smoothing=1.0)


# ----------------------------------------------------------------- utterances

def test_utterance_shape_and_mean():
    spk = generate_speakers(2, 4.0, seed=2)[0]
    feats = generate_utterance(spk, 30.0, seed=3)
    assert feats.shape == (3000, 23)
    assert np.all(np.isfinite(feats))
    # AR(1) with c=0.9 inflates the sample-mean std by ~sqrt(19)
    c = spk.smoothing
    bound = 4.0 * math.sqrt((1 + c) / (1 - c) / 3000)
    assert np.abs(feats.mean(axis=0) - spk.mean).max() < bound


def test_ar1_sample_mean_variance_matches_theory():
    # exact variance of the mean of T stationary AR(1) samples:
    # (sigma^2/T) * [(1+c)/(1-c) - 2c(1-c^T)/(T(1-c)^2)]
    spk = SynthSpeaker("x", np.zeros(4), np.ones(4), smoothing=0.9)
    T, reps = 150, 3000
    rng = np.random.default_rng(4)
    means = np.stack([
        generate_utterance(spk, T / 100.0, seed=int(rng.integers(1 << 30))).mean(axis=0)
        for _ in range(reps)
    ])
    c = 0.9
    expect = ((1 + c) / (1 - c) - 2 * c * (1 - c**T) / (T * (1 - c) ** 2)) / T
    got = means.var(axis=0, ddof=1)
    assert np.all(np.abs(got - expect) < 0.12 * expect)


def test_utterance_deterministic():
    spk = generate_speakers(2, 1.0, seed=5)[1]
    a = generate_utterance(spk, 2.0, seed=9)
    b = generate_utterance(spk, 2.0, seed=9)
    assert np.array_equal(a, b)


# ------------------------------------------------------- the AR(1) recursion

def _lfilter_frames(speaker, noise):
    """The smoothing as scipy.signal computes it, the oracle of the recursion."""
    import scipy.signal

    c, sd = speaker.smoothing, np.sqrt(speaker.covariance)
    u = noise * (sd * math.sqrt(1.0 - c * c))
    u[0] = noise[0] * sd
    return speaker.mean + scipy.signal.lfilter([1.0], [1.0, -c], u, axis=0)


def _random_speaker(rng, name, smoothing):
    return SynthSpeaker(name, rng.normal(size=23), rng.uniform(0.25, 4.0, size=23), smoothing)


@pytest.mark.parametrize("frames", [1, 2, 150, 1200])
@pytest.mark.parametrize("c", [0.0, 1e-9, 0.3, 0.9, 0.999999])
def test_recursion_matches_lfilter_byte_for_byte(c, frames):
    rng = np.random.default_rng(frames)
    spk = _random_speaker(rng, "x", c)
    noise = rng.normal(size=(frames, 23))
    (got_spk, got), = smooth([(spk, noise)])
    assert got_spk is spk and got.dtype == np.float64
    assert got.tobytes() == _lfilter_frames(spk, noise).tobytes()


def test_ragged_batch_matches_lfilter_and_each_block_alone():
    """Blocks of mixed lengths and smoothing in one recursion: each block
    equals the oracle, and the same block smoothed alone."""
    rng = np.random.default_rng(11)
    speakers = [_random_speaker(rng, f"s{i}", c)
                for i, c in enumerate([0.0, 1e-9, 0.3, 0.9, 0.999999])]
    lengths = [150, 1, 1200, 2, 333, 150, 1, 600, 7, 1200, 2]
    blocks = [(speakers[i % 5], rng.normal(size=(n, 23))) for i, n in enumerate(lengths)]
    batch = list(smooth(blocks))
    assert [len(frames) for _, frames in batch] == lengths
    for (spk, noise), (got_spk, got) in zip(blocks, batch):
        assert got_spk is spk
        assert got.tobytes() == _lfilter_frames(spk, noise).tobytes()
        (_, alone), = smooth([(spk, noise)])
        assert np.array_equal(alone, got)


def test_float32_frames_round_the_float64_sum_once():
    rng = np.random.default_rng(12)
    blocks = [(_random_speaker(rng, f"s{i}", c), rng.normal(size=(n, 23)))
              for i, (c, n) in enumerate([(0.9, 300), (0.5, 41), (0.0, 1)])]
    rec = _Recursion(400, 23)  # room to spare, as a corpus batch has
    for spk, noise in blocks:
        rec.add(spk, noise)
    for (spk, noise), (_, got) in zip(blocks, rec.frames(np.float32)):
        assert got.dtype == np.float32
        assert got.tobytes() == _lfilter_frames(spk, noise).astype(np.float32).tobytes()


# -------------------------------------------------------------- conversations

def test_fixed_turn_schedule():
    speakers = generate_speakers(2, 3.0, seed=6)
    conv = generate_conversation(speakers, 60.0, (5.0, 5.0), seed=0, conversation_id="c0")
    assert len(conv.turns) == 12
    for i, e in enumerate(conv.reference):
        assert e.start_s == pytest.approx(5.0 * i, abs=1e-12)
        assert e.end_s == pytest.approx(5.0 * (i + 1), abs=1e-12)
    # two speakers with no immediate repeat means strict alternation
    ids = [spk for spk, _ in conv.turns]
    assert all(a != b for a, b in zip(ids, ids[1:]))
    assert conv.features.shape == (6000, 23)
    assert conv.sad[0].start_s == 0.0 and conv.sad[0].end_s == 60.0


def test_reference_tiles_duration_exactly():
    rng = np.random.default_rng(7)
    speakers = generate_speakers(4, 2.0, seed=8)
    for trial in range(20):
        total = float(rng.integers(20, 80))
        lo = float(rng.integers(16, 30)) / 10.0
        hi = lo + float(rng.integers(0, 30)) / 10.0
        conv = generate_conversation(speakers, total, (lo, hi), seed=trial)
        assert conv.reference[0].start_s == 0.0
        for a, b in zip(conv.reference, conv.reference[1:]):
            assert a.end_s == b.start_s       # no gap, no overlap
            assert a.speaker != b.speaker     # no immediate repeat
        assert conv.reference[-1].end_s == pytest.approx(total, abs=1e-9)
        for _, dur in conv.turns:
            assert dur >= lo - 1e-9           # tail absorbed, never dangling
        frames = sum(int(round(d * 100)) for _, d in conv.turns)
        assert conv.features.shape == (frames, 23)
        assert np.all(np.isfinite(conv.features))


def test_turn_frames_track_speaker_mean():
    speakers = generate_speakers(2, 6.0, seed=9)
    conv = generate_conversation(speakers, 60.0, (4.0, 6.0), seed=1)
    by_id = {s.speaker_id: s for s in speakers}
    offset = 0
    for spk_id, dur in conv.turns:
        n = int(round(dur * 100))
        block = conv.features[offset:offset + n]
        c = by_id[spk_id].smoothing
        bound = 4.0 * math.sqrt((1 + c) / (1 - c) / n)
        assert np.abs(block.mean(axis=0) - by_id[spk_id].mean).max() < bound
        offset += n


def test_conversation_deterministic():
    speakers = generate_speakers(3, 2.0, seed=10)
    a = generate_conversation(speakers, 30.0, (2.0, 4.0), seed=5)
    b = generate_conversation(speakers, 30.0, (2.0, 4.0), seed=5)
    c = generate_conversation(speakers, 30.0, (2.0, 4.0), seed=6)
    assert a.turns == b.turns
    assert np.array_equal(a.features, b.features)
    assert (a.turns != c.turns) or not np.array_equal(a.features, c.features)


def test_conversation_validation():
    speakers = generate_speakers(2, 2.0, seed=11)
    with pytest.raises(InvalidInputError):
        generate_conversation(speakers[:1], 30.0, (2.0, 4.0), seed=0)
    with pytest.raises(InvalidInputError):
        generate_conversation(speakers, 30.0, (1.5, 4.0), seed=0)  # lo must exceed 1.5
    with pytest.raises(InvalidInputError):
        generate_conversation(speakers, 30.0, (4.0, 2.0), seed=0)
    with pytest.raises(InvalidInputError):
        generate_conversation(speakers, 1.0, (2.0, 4.0), seed=0)
    with pytest.raises(InvalidInputError):
        generate_conversation(speakers, 30.0, (2.0, np.inf), seed=0)


def test_conversation_audio_feeds_front_end():
    speakers = generate_speakers(2, 3.0, seed=12)
    conv = generate_conversation(speakers, 10.0, (2.0, 3.0), seed=2, conversation_id="c9")
    wave = conversation_audio(conv, speakers)
    assert wave.shape == (80000,)
    assert np.all(np.isfinite(wave))
    feats = compute_mfcc(wave)
    assert feats.shape[0] > 950
    assert np.all(np.isfinite(feats))
    again = conversation_audio(conv, speakers)
    assert np.array_equal(wave, again)


# -------------------------------------------------------------------- corpora

def _tiny_spec(seed=0, audio=False):
    return CorpusSpec(n_speakers=3, separation=3.0, train_utts=2, train_utt_s=3.0,
                      n_convs=3, conv_s=12.0, turn_min_s=2.0, turn_max_s=3.0,
                      speakers_per_conv=2, seed=seed, audio=audio)


def test_corpus_layout_and_contents(tmp_path):
    paths = write_corpus(tmp_path / "corpus", _tiny_spec())
    ts = load_train_set(paths["manifest"])
    assert ts.speakers == ("spk000", "spk001", "spk002")
    assert len(ts.features) == 6
    assert ts.features[0].shape == (300, 23)

    ref = read_rttm(paths["reference"])
    convs = {e.conversation_id for e in ref}
    assert convs == {"conv000", "conv001", "conv002"}
    sad = read_sad(paths["sad"])
    assert {m.conversation_id for m in sad} == convs
    for m in sad:
        assert m.start_s == 0.0 and m.end_s == 12.0
    counts = read_speaker_counts(paths["oracle_k"])
    assert counts == {c: 2 for c in convs}
    feats = read_features(tmp_path / "corpus" / "eval" / "feats" / "conv001.fea")
    assert feats.shape == (1200, 23)


def test_corpus_deterministic(tmp_path):
    p1 = write_corpus(tmp_path / "a", _tiny_spec(seed=3))
    p2 = write_corpus(tmp_path / "b", _tiny_spec(seed=3))
    p3 = write_corpus(tmp_path / "c", _tiny_spec(seed=4))
    read = lambda p: open(p, "rb").read()
    assert read(p1["reference"]) == read(p2["reference"])
    assert read(p1["reference"]) != read(p3["reference"])
    f = ("eval", "feats", "conv000.fea")
    assert read(tmp_path.joinpath("a", *f)) == read(tmp_path.joinpath("b", *f))
    assert read(p1["manifest"]) == read(p2["manifest"])


def test_corpus_audio_mode(tmp_path):
    """Audio mode adds eval/wav/*.wav and leaves every other byte as feature
    mode writes it: the eval features still come from the synthetic frames."""
    write_corpus(tmp_path / "audio", _tiny_spec(audio=True))
    write_corpus(tmp_path / "features", _tiny_spec())
    wavs = sorted((tmp_path / "audio" / "eval" / "wav").iterdir())
    assert [w.name for w in wavs] == ["conv000.wav", "conv001.wav", "conv002.wav"]

    def files(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}

    audio, features = files(tmp_path / "audio"), files(tmp_path / "features")
    assert {k: v for k, v in audio.items() if not k.startswith("eval/wav/")} == features
    assert any(k.startswith("train/feats/") for k in features)
    assert any(k.startswith("eval/feats/") for k in features)


# Every byte write_corpus lays down for two small specs, taken before the
# AR(1) smoothing moved from scipy.signal.lfilter to synthdata's own
# recursion. generate_speakers normalizes through np.linalg.norm, which goes
# through BLAS, so other kernels may move the last bits of the means.
CORPUS_SHA256 = {
    "features": "dcb04e6da198761b6e508130ce899084b7a0de436a3650019b50323dd32e055b",
    "audio": "d533a9fa194e8a2cb6439a8b9ba01ac493f39d0df61e60dcce82562c502e8e37",
}


def _corpus_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("mode", ["features", "audio"])
def test_corpus_bytes_are_pinned(tmp_path, mode):
    spec = (_tiny_spec(seed=1) if mode == "features"
            else replace(_tiny_spec(seed=2, audio=True), smoothing=0.5))
    write_corpus(tmp_path / mode, spec)
    assert _corpus_digest(tmp_path / mode) == CORPUS_SHA256[mode], PIN_KERNELS


def test_corpus_bytes_do_not_depend_on_the_batch_size(tmp_path, monkeypatch):
    """One recursion per utterance or conversation writes what one recursion
    over the whole corpus writes."""
    spec = _tiny_spec(seed=1)
    write_corpus(tmp_path / "whole", spec)
    monkeypatch.setattr(synthdata, "SMOOTH_BLOCK_VALUES", 1)
    write_corpus(tmp_path / "each", spec)
    assert _corpus_digest(tmp_path / "each") == _corpus_digest(tmp_path / "whole")


def test_corpus_spec_validation():
    with pytest.raises(InvalidInputError):
        CorpusSpec(n_speakers=2, speakers_per_conv=3)
    with pytest.raises(InvalidInputError):
        CorpusSpec(speakers_per_conv=1)
    with pytest.raises(InvalidInputError):
        CorpusSpec(n_convs=0)
    # every value write_corpus would reject later, after writing files
    for bad in ({"conv_s": np.inf}, {"train_utt_s": np.nan}, {"smoothing": 1.5},
                {"turn_max_s": np.inf}, {"turn_min_s": 7.0}, {"conv_s": 2.0}):
        with pytest.raises(InvalidInputError):
            CorpusSpec(**bad)

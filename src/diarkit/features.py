"""Acoustic front end: MFCC extraction, sliding-window mean normalization,
SAD-driven sub-segmentation, and the file formats that carry features and
speech marks between pipeline stages.

The recipe is the fixed x-vector front end, and the module constants below
are all of it: 16-bit PCM mono audio at 8 kHz (any other layout is rejected);
23 mel filters and 23 cepstra over 25 ms Hamming windows (200 samples, a
256-point FFT) at a 10 ms shift, after 0.97 pre-emphasis, with filter
energies floored at 1e-10; a 300-frame sliding mean (the one value the
command line can change); and 1.5 s scoring segments at a 0.75 s shift, none
shorter than 0.5 s. A signal of n samples gives round(n / 80) frames, by
reflective edge padding, so a 1.5 s window always yields exactly 150 frames.

Features are plain float32 (frames, dim) arrays from the .fea file to the
network, which casts them to its own dtype exactly.
"""

from __future__ import annotations

import struct
import wave as _wave
from dataclasses import dataclass, field

import numpy as np

from .binfile import BinaryReader
from .errors import FormatError, Interval, InvalidInputError

SAMPLE_RATE = 8000
NUM_COEFFS = 23
FRAME_SHIFT_S = 0.010
FRAME_SHIFT = 80  # samples
FRAME_LENGTH = 200  # samples: 25 ms
FFT_SIZE = 256  # the least power of two that holds a frame
PREEMPHASIS = 0.97
ENERGY_FLOOR = 1e-10
CMN_WINDOW_FRAMES = 300
CMN_WINDOW_DOMAIN = Interval("CMN window", 1)  # frames

SEGMENT_LENGTH_S = 1.5
SEGMENT_SHIFT_S = 0.75
SEGMENT_MIN_S = 0.5
STRIDE_DOMAIN = Interval("window length and shift", 0.0, ends="()")

FEATURE_MAGIC = b"FEA1"


@dataclass(frozen=True)
class SadMark:
    """One speech region of a conversation, in seconds."""

    conversation_id: str
    start_s: float
    end_s: float

    def __post_init__(self):
        if not (0.0 <= self.start_s < self.end_s < np.inf):
            raise InvalidInputError(
                f"bad SAD mark for {self.conversation_id!r}: [{self.start_s}, {self.end_s}]"
            )


@dataclass(frozen=True)
class Segment:
    """A scoring sub-segment with its frame range in the feature matrix."""

    conversation_id: str
    start_s: float
    end_s: float
    frame_range: tuple[int, int] = field(default=(0, 0))


def _mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def _mel_inv(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """NUM_COEFFS triangular mel filters spanning 0..Nyquist at SAMPLE_RATE,
    evaluated at the centers of the FFT_SIZE-point FFT's bins."""
    edges_hz = _mel_inv(np.linspace(_mel(0.0), _mel(SAMPLE_RATE / 2.0), NUM_COEFFS + 2))
    bin_hz = np.arange(FFT_SIZE // 2 + 1) * (SAMPLE_RATE / FFT_SIZE)
    weights = np.zeros((NUM_COEFFS, bin_hz.shape[0]))
    for m in range(NUM_COEFFS):
        lo, mid, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        up = (bin_hz - lo) / (mid - lo)
        down = (hi - bin_hz) / (hi - mid)
        weights[m] = np.maximum(0.0, np.minimum(up, down))
    return weights


def compute_mfcc(samples: np.ndarray) -> np.ndarray:
    """MFCC matrix (frames x NUM_COEFFS, float64) of an 8 kHz sample vector.

    Frames are centered at t*shift + shift/2 and taken from a reflectively
    padded signal, giving exactly round(num_samples / shift) rows.
    """
    from scipy.fftpack import dct

    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidInputError("waveform must be a 1-D sample vector")
    flen, shift = FRAME_LENGTH, FRAME_SHIFT
    if x.shape[0] < flen:
        raise InvalidInputError(
            f"signal of {x.shape[0]} samples is shorter than one {flen}-sample frame"
        )

    pre = np.concatenate([x[:1], x[1:] - PREEMPHASIS * x[:-1]])
    num_frames = (x.shape[0] + shift // 2) // shift
    pad_left = flen // 2 - shift // 2
    last_end = (num_frames - 1) * shift - pad_left + flen
    pad_right = max(0, last_end - x.shape[0])
    padded = np.pad(pre, (pad_left, pad_right), mode="reflect")

    starts = np.arange(num_frames) * shift
    frames = padded[starts[:, None] + np.arange(flen)[None, :]]
    window = np.hamming(flen)
    spectrum = np.fft.rfft(frames * window, n=FFT_SIZE, axis=1)
    power = spectrum.real**2 + spectrum.imag**2

    fbank = mel_filterbank()
    log_energy = np.log(np.maximum(power @ fbank.T, ENERGY_FLOOR))
    return dct(log_energy, type=2, axis=1, norm="ortho")[:, :NUM_COEFFS]


def sliding_cmn(x: np.ndarray, window_frames: int = CMN_WINDOW_FRAMES) -> np.ndarray:
    """Subtract from each frame the mean of a centered window around it.

    Windows keep their full length by sliding inward at the utterance edges;
    utterances no longer than the window degrade to whole-utterance mean
    subtraction.
    """
    CMN_WINDOW_DOMAIN.check(window_frames)
    total = x.shape[0]
    if total == 0:
        raise InvalidInputError("cannot normalize an empty feature matrix")
    w = min(window_frames, total)
    csum = np.vstack([np.zeros((1, x.shape[1])), np.cumsum(x, axis=0)])
    lo = np.clip(np.arange(total) - window_frames // 2, 0, total - w)
    means = (csum[lo + w] - csum[lo]) / w
    return x - means


def stride_windows(start, end, length, shift, min_length):
    """Windows [s, min(s+length, end)) at the given stride, stopping once a
    window reaches the region end; windows shorter than min_length are
    dropped. Works uniformly in seconds or in frames."""
    STRIDE_DOMAIN.check(length)
    STRIDE_DOMAIN.check(shift)
    out = []
    s = start
    while True:
        e = min(s + length, end)
        if e - s >= min_length - 1e-9:
            out.append((s, e))
        if e >= end - 1e-9:
            break
        s += shift
    return out


def merge_sad_marks(marks: list[SadMark]) -> list[SadMark]:
    """Sort marks and merge overlapping or touching regions per conversation."""
    merged: list[SadMark] = []
    by_conv: dict[str, list[SadMark]] = {}
    for m in marks:
        by_conv.setdefault(m.conversation_id, []).append(m)
    for conv in sorted(by_conv):
        runs: list[list[float]] = []
        for m in sorted(by_conv[conv], key=lambda m: (m.start_s, m.end_s)):
            if runs and m.start_s <= runs[-1][1] + 1e-9:
                runs[-1][1] = max(runs[-1][1], m.end_s)
            else:
                runs.append([m.start_s, m.end_s])
        merged.extend(SadMark(conv, a, b) for a, b in runs)
    return merged


def segment_speech(marks: list[SadMark]) -> list[Segment]:
    """Cut SAD regions into overlapping sub-segments.

    Each region is tiled with SEGMENT_LENGTH_S windows at SEGMENT_SHIFT_S;
    the final window is truncated at the region end, and windows shorter than
    SEGMENT_MIN_S are dropped. A region shorter than one segment yields the
    region itself (if long enough).
    """
    segments = []
    for mark in merge_sad_marks(marks):
        for a, b in stride_windows(mark.start_s, mark.end_s, SEGMENT_LENGTH_S,
                                   SEGMENT_SHIFT_S, SEGMENT_MIN_S):
            frame_range = (int(round(a / FRAME_SHIFT_S)), int(round(b / FRAME_SHIFT_S)))
            segments.append(Segment(mark.conversation_id, a, b, frame_range))
    return segments


def read_wav(path) -> np.ndarray:
    """Samples of a RIFF PCM 16-bit mono 8 kHz file, rejecting anything else."""
    try:
        with _wave.open(str(path), "rb") as w:
            channels = w.getnchannels()
            width = w.getsampwidth()
            rate = w.getframerate()
            comp = w.getcomptype()
            data = w.readframes(w.getnframes())
    except (_wave.Error, EOFError) as exc:
        raise FormatError(f"{path}: not a readable RIFF wave file ({exc})") from exc
    if comp != "NONE":
        raise FormatError(f"{path}: compressed wave data is not supported")
    if channels != 1:
        raise FormatError(f"{path}: expected mono audio, got {channels} channels")
    if width != 2:
        raise FormatError(f"{path}: expected 16-bit samples, got {8 * width}-bit")
    if rate != SAMPLE_RATE:
        raise FormatError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz")
    return np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0


def write_wav(path, samples: np.ndarray) -> None:
    scaled = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with _wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(scaled.tobytes())


def read_sad(path) -> list[SadMark]:
    """Parse `<conversation_id> <start_s> <end_s>` lines."""
    marks = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
            conv = fields[0]
            try:
                start, end = float(fields[1]), float(fields[2])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-numeric time field") from exc
            try:
                marks.append(SadMark(conv, start, end))
            except InvalidInputError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return marks


def write_sad(path, marks: list[SadMark]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for m in marks:
            fh.write(f"{m.conversation_id} {m.start_s:.3f} {m.end_s:.3f}\n")


def write_features(path, feats: np.ndarray) -> None:
    """Binary feature dump: magic, u32 frame count, u32 dim, f32 rows."""
    values = np.ascontiguousarray(feats, dtype="<f4")
    if values.ndim != 2:
        raise InvalidInputError("feature matrix must be 2-D (frames x coefficients)")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", values.shape[0], values.shape[1]))
        fh.write(values.tobytes())


def read_features(path) -> np.ndarray:
    """The file's (frames, dim) matrix as a writable native float32 array."""
    reader = BinaryReader(path, FEATURE_MAGIC, "feature file")
    num_frames, dim = reader.unpack("<II", "header")
    values = reader.values("<f4", num_frames * dim, "feature matrix")
    reader.close()
    return values.reshape(num_frames, dim).astype(np.float32)

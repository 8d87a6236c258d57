"""Cross-entropy training for the embedding networks.

Minibatch SGD with momentum, exponential learning-rate decay, L2 shrinkage,
and periodic re-projection of the factorized bottlenecks onto the
semi-orthogonal manifold. Training pools statistics over short sliding
windows of each utterance and averages the pooled vectors, so one utterance
contributes one segment-level row regardless of length; gradients flow
through the average.

A training set loaded from a manifest holds each utterance's shape, not its
features: load_manifest (train's and embed --manifest's) reads every feature
file once to check it and keeps its shape; train reads a batch's files again
when it draws the batch, so memory follows the batch, not the corpus.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import FormatError, Interval, InvalidInputError, TrainingDivergedError
from .features import read_features, stride_windows
from .network import (
    DROPOUT_DOMAIN,
    Network,
    NetworkSpec,
    backward_batch,
    forward_batch,
    ortho_residual,
    receptive_span,
    semi_orthogonalize,
)


def check_window_span(spec: NetworkSpec, min_window_frames: int) -> None:
    """Every pooling window must keep frames after the network's receptive span."""
    span = receptive_span(spec)
    if min_window_frames <= span:
        raise InvalidInputError(
            f"pooling windows of {min_window_frames} frames cannot cover a "
            f"{span}-frame receptive span"
        )


EPOCHS_DOMAIN = Interval("epochs", 1)
BATCH_SIZE_DOMAIN = Interval("batch_size", 1)
LEARNING_RATE_DOMAIN = Interval("learning rate", 0.0, ends="()")
MOMENTUM_DOMAIN = Interval("momentum", 0.0, 1.0)
L2_DOMAIN = Interval("l2_coeff", 0.0)
ORTHO_INTERVAL_DOMAIN = Interval("ortho_interval", 1)
WINDOW_FRAMES_DOMAIN = Interval("window_frames", 1)
WINDOW_SHIFT_DOMAIN = Interval("window_shift", 1)
MIN_WINDOW_FRAMES_DOMAIN = Interval("min_window_frames", 1)
SEED_DOMAIN = Interval("seed", 0)  # numpy's generators take non-negative integers


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2
    batch_size: int = 64
    lr_start: float = 1e-3
    lr_end: float = 1e-4
    momentum: float = 0.9
    l2_coeff: float = 1e-4
    dropout_prob: float = 0.0
    ortho_interval: int = 4    # steps between factor re-projections
    window_frames: int = 150   # 1.5 s at the 10 ms frame shift
    window_shift: int = 75
    min_window_frames: int = 50
    seed: int = 0

    def __post_init__(self):
        EPOCHS_DOMAIN.check(self.epochs)
        BATCH_SIZE_DOMAIN.check(self.batch_size)
        LEARNING_RATE_DOMAIN.check(self.lr_start)
        LEARNING_RATE_DOMAIN.check(self.lr_end)
        MOMENTUM_DOMAIN.check(self.momentum)
        L2_DOMAIN.check(self.l2_coeff)
        DROPOUT_DOMAIN.check(self.dropout_prob)
        ORTHO_INTERVAL_DOMAIN.check(self.ortho_interval)
        WINDOW_FRAMES_DOMAIN.check(self.window_frames)
        WINDOW_SHIFT_DOMAIN.check(self.window_shift)
        MIN_WINDOW_FRAMES_DOMAIN.check(self.min_window_frames)
        SEED_DOMAIN.check(self.seed)
        if self.min_window_frames > self.window_frames:
            raise InvalidInputError(f"min_window_frames {self.min_window_frames} exceeds "
                                    f"window_frames {self.window_frames}")


class ManifestEntry(NamedTuple):
    utterance_id: str
    speaker_id: str
    path: str


class TrainRecord(NamedTuple):
    step: int
    loss: float
    ortho_residual: float
    lr: float


def read_manifest(path) -> list[ManifestEntry]:
    """Parse an utterance manifest: one "utt_id speaker_id feature_path" per line."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 3:
                raise FormatError(f"{path}:{ln}: expected 3 fields, got {len(fields)}")
            entries.append(ManifestEntry(*fields))
    if not entries:
        raise FormatError(f"{path}: manifest is empty")
    return entries


def write_manifest(path, entries: Sequence[ManifestEntry]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(f"{e.utterance_id} {e.speaker_id} {e.path}\n")


@dataclass
class TrainSet:
    """Utterance features with integer labels; label i names speakers[i].

    features[i] is utterance i's matrix and shapes[i] its (frames, dim). In a
    set loaded from a manifest, indexing features reads the file then, so the
    set itself holds no features."""

    features: Sequence[np.ndarray]
    shapes: tuple[tuple[int, int], ...]
    labels: np.ndarray
    speakers: tuple[str, ...]
    by_speaker: tuple[tuple[int, ...], ...]


def build_train_set(entries: Sequence[ManifestEntry], features: Sequence[np.ndarray],
                    shapes: Optional[Sequence[tuple[int, int]]] = None) -> TrainSet:
    """shapes default to the arrays' own; pass them for features read on
    indexing, which would otherwise be read to measure them."""
    speakers = tuple(sorted({e.speaker_id for e in entries}))
    if len(speakers) < 2:
        raise InvalidInputError("training needs at least two speakers")
    index = {s: i for i, s in enumerate(speakers)}
    labels = np.array([index[e.speaker_id] for e in entries])
    by_speaker = tuple(tuple(np.flatnonzero(labels == i)) for i in range(len(speakers)))
    shapes = tuple(f.shape for f in features) if shapes is None else tuple(shapes)
    return TrainSet(features, shapes, labels, speakers, by_speaker)


class _FeatureFiles(Sequence):
    """Feature files as a sequence of matrices; indexing reads the file."""

    def __init__(self, paths: list[str]):
        self._paths = paths

    def __len__(self) -> int:
        return len(self._paths)

    def __getitem__(self, i) -> np.ndarray:
        return read_features(self._paths[i])


def load_manifest(manifest_path) -> tuple[list[ManifestEntry], Sequence[np.ndarray],
                                           list[tuple[int, int]]]:
    """A manifest's entries, their features and their shapes. Every feature
    file is read here once, so a corrupt one fails before any work, and only
    its shape is kept: indexing the features reads the file again, so
    iterating holds one utterance at a time. Relative feature paths resolve
    against the manifest's own directory, so a generated corpus stays
    relocatable."""
    entries = read_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(os.fspath(manifest_path)))
    feats = _FeatureFiles([p if os.path.isabs(p) else os.path.join(base, p)
                           for p in (e.path for e in entries)])
    return entries, feats, [f.shape for f in feats]


def load_train_set(manifest_path) -> TrainSet:
    """A training set from load_manifest; training reads a file again when a
    batch draws it."""
    return build_train_set(*load_manifest(manifest_path))


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its gradient w.r.t. the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = logits.shape[0]
    rows = np.arange(n)
    loss = float(-logp[rows, labels].mean())
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


def init_velocity(net: Network) -> dict[str, dict[str, np.ndarray]]:
    return {name: {k: np.zeros_like(v) for k, v in tensors.items()}
            for name, tensors in net.params.items()}


def sgd_update(net: Network, velocity, grads, lr: float, cfg: TrainConfig) -> None:
    """One momentum step. L2 is applied as decoupled multiplicative shrinkage,
    so with a zero gradient and zero velocity a parameter scales by exactly
    (1 - lr * l2_coeff)."""
    shrink = 1.0 - lr * cfg.l2_coeff
    for name, tensors in net.params.items():
        layer_grads = grads.get(name, {})
        for pname, theta in tensors.items():
            theta *= shrink
            v = velocity[name][pname]
            v *= cfg.momentum
            g = layer_grads.get(pname)
            if g is not None:
                v -= lr * g
            theta += v


def project_factors(net: Network) -> None:
    """Put every factor matrix back on the semi-orthogonal manifold. A factor
    that is not finite means training diverged, and is not projected."""
    for m in net.factor_matrices():
        if not np.isfinite(m).all():
            raise TrainingDivergedError("a factor matrix holds non-finite values")
        m[:] = semi_orthogonalize(m)


def max_ortho_residual(net: Network) -> float:
    """The worst factor's residual; NaN when some factor's residual is NaN."""
    return float(np.max([ortho_residual(m) for m in net.factor_matrices()], initial=0.0))


def pool_windows(num_frames: int, cfg: TrainConfig) -> list[tuple[int, int]]:
    wins = stride_windows(0, num_frames, cfg.window_frames, cfg.window_shift,
                          cfg.min_window_frames)
    if not wins:
        raise InvalidInputError(
            f"utterance of {num_frames} frames is shorter than the "
            f"{cfg.min_window_frames}-frame pooling minimum"
        )
    return [(int(a), int(b)) for a, b in wins]


def train_step(
    net: Network,
    velocity,
    seqs: Sequence[np.ndarray],
    labels: np.ndarray,
    lr: float,
    cfg: TrainConfig,
    rng=None,
    project: bool = False,
) -> float:
    """Forward, loss, backward, update; optionally re-project the factors."""
    windows = [(i, pool_windows(s.shape[0], cfg)) for i, s in enumerate(seqs)]
    res = forward_batch(net, seqs, windows=windows, dropout_prob=cfg.dropout_prob, rng=rng)
    loss, logit_grad = softmax_cross_entropy(res.logits, labels)
    if not math.isfinite(loss):
        raise TrainingDivergedError(f"loss is not finite: {loss}")
    grads = backward_batch(net, res, logit_grad)
    sgd_update(net, velocity, grads, lr, cfg)
    if project:
        project_factors(net)
    return loss


def sample_batch(ts: TrainSet, batch_size: int, rng) -> np.ndarray:
    """Utterance indices drawn uniformly over speakers, then uniformly within
    the chosen speaker, so skewed utterance counts cannot skew the labels."""
    spk = rng.integers(0, len(ts.speakers), size=batch_size)
    return np.array([ts.by_speaker[s][rng.integers(0, len(ts.by_speaker[s]))] for s in spk])


def learning_rate(step: int, total_steps: int, cfg: TrainConfig) -> float:
    if total_steps <= 1:
        return cfg.lr_start
    frac = step / (total_steps - 1)
    return cfg.lr_start * (cfg.lr_end / cfg.lr_start) ** frac


def train(
    net: Network,
    ts: TrainSet,
    cfg: TrainConfig,
    log: Optional[Callable[[str], None]] = None,
) -> list[TrainRecord]:
    """Full training run; returns one record per step.

    Every log line is "step loss ortho_residual lr" with the residual taken
    after any projection scheduled for that step. A loss, a factor about to be
    projected, or at the end any parameter or batch-norm moment that is not
    finite raises TrainingDivergedError.
    """
    if len(ts.speakers) != net.spec.num_speakers:
        raise InvalidInputError(
            f"network has {net.spec.num_speakers} outputs but the training set "
            f"has {len(ts.speakers)} speakers"
        )
    check_window_span(net.spec, cfg.min_window_frames)
    shortest = min(n for n, _ in ts.shapes)
    if shortest < cfg.min_window_frames:
        raise InvalidInputError(
            f"shortest utterance has {shortest} frames, need at least {cfg.min_window_frames}"
        )

    rng = np.random.default_rng(cfg.seed)
    velocity = init_velocity(net)
    steps_per_epoch = max(1, math.ceil(len(ts.shapes) / cfg.batch_size))
    total = cfg.epochs * steps_per_epoch
    records = []
    for step in range(total):
        lr = learning_rate(step, total, cfg)
        idx = sample_batch(ts, cfg.batch_size, rng)
        seqs = [ts.features[i] for i in idx]
        loss = train_step(net, velocity, seqs, ts.labels[idx], lr, cfg, rng=rng,
                          project=step % cfg.ortho_interval == 0)
        resid = max_ortho_residual(net)
        records.append(TrainRecord(step, loss, resid, lr))
        if log is not None:
            log(f"{step} {loss:.6f} {resid:.3e} {lr:.6e}")
    held = [a for _, _, a in net.parameters()] + [b for d in net.buffers.values() for b in d.values()]
    if not all(np.isfinite(a).all() for a in held):
        raise TrainingDivergedError("training left non-finite parameters or batch-norm moments")
    return records

"""Cross-entropy training for the embedding networks.

Minibatch SGD with momentum, exponential learning-rate decay, L2 shrinkage,
and periodic re-projection of the factorized bottlenecks onto the
semi-orthogonal manifold. Training pools statistics over short sliding
windows of each utterance and averages the pooled vectors, so one utterance
contributes one segment-level row regardless of length; gradients flow
through the average.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import FormatError, InvalidInputError, TrainingDivergedError
from .features import read_features, stride_windows
from .network import (
    Network,
    backward_batch,
    forward_batch,
    ortho_residual,
    receptive_span,
    semi_orthogonalize,
)


def check_learning_rate(lr: float) -> None:
    if not 0.0 < lr < math.inf:
        raise InvalidInputError(f"learning rate must be positive and finite, got {lr}")


def check_momentum(momentum: float) -> None:
    if not 0.0 <= momentum < 1.0:
        raise InvalidInputError(f"momentum must be in [0, 1), got {momentum}")


def check_l2(coeff: float) -> None:
    if not 0.0 <= coeff < math.inf:
        raise InvalidInputError(f"L2 coefficient must be finite and nonnegative, got {coeff}")


def check_window_shift(frames: int) -> None:
    if frames < 1:
        raise InvalidInputError(f"window shift must be a positive frame count, got {frames}")


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
        if self.epochs < 1 or self.batch_size < 1 or self.ortho_interval < 1:
            raise InvalidInputError("epochs, batch_size and ortho_interval must be positive")
        check_learning_rate(self.lr_start)
        check_learning_rate(self.lr_end)
        check_momentum(self.momentum)
        check_l2(self.l2_coeff)
        if not 0.0 <= self.dropout_prob < 1.0:
            raise InvalidInputError(f"dropout_prob must be in [0, 1), got {self.dropout_prob}")
        check_window_shift(self.window_shift)
        if not 0 < self.min_window_frames <= self.window_frames:
            raise InvalidInputError("need 0 < min_window_frames <= window_frames")


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
    """Utterance features with integer labels; label i names speakers[i]."""

    features: list[np.ndarray]
    labels: np.ndarray
    speakers: tuple[str, ...]
    by_speaker: tuple[tuple[int, ...], ...]


def build_train_set(entries: Sequence[ManifestEntry], features: Sequence[np.ndarray]) -> TrainSet:
    speakers = tuple(sorted({e.speaker_id for e in entries}))
    if len(speakers) < 2:
        raise InvalidInputError("training needs at least two speakers")
    index = {s: i for i, s in enumerate(speakers)}
    labels = np.array([index[e.speaker_id] for e in entries])
    by_speaker = tuple(tuple(np.flatnonzero(labels == i)) for i in range(len(speakers)))
    return TrainSet(list(features), labels, speakers, by_speaker)


def load_manifest_features(manifest_path) -> tuple[list[ManifestEntry], list[np.ndarray]]:
    """Relative feature paths resolve against the manifest's own directory,
    so a generated corpus stays relocatable."""
    entries = read_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(os.fspath(manifest_path)))
    feats = [read_features(p if os.path.isabs(p) else os.path.join(base, p))
             for p in (e.path for e in entries)]
    return entries, feats


def load_train_set(manifest_path) -> TrainSet:
    entries, feats = load_manifest_features(manifest_path)
    return build_train_set(entries, feats)


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
    that is not finite means training diverged, and gets no SVD."""
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
    res = forward_batch(net, seqs, mode="training", windows=windows,
                        dropout_prob=cfg.dropout_prob, rng=rng)
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
    span = receptive_span(net.spec)
    if cfg.min_window_frames <= span:
        raise InvalidInputError(
            f"pooling windows of {cfg.min_window_frames} frames cannot cover a "
            f"{span}-frame receptive span"
        )
    shortest = min(f.shape[0] for f in ts.features)
    if shortest < cfg.min_window_frames:
        raise InvalidInputError(
            f"shortest utterance has {shortest} frames, need at least {cfg.min_window_frames}"
        )

    rng = np.random.default_rng(cfg.seed)
    velocity = init_velocity(net)
    steps_per_epoch = max(1, math.ceil(len(ts.features) / cfg.batch_size))
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

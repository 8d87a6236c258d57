"""Embedding back-end: normalization, whitening, PLDA scoring, embedding files.

Scoring order for one conversation: length-normalize, apply the globally
trained whitener, denoise with conversation-dependent PCA, project through
the PLDA diagonalizer, then score all pairs.

The PLDA here is the two-covariance flavor reduced to closed form: after the
diagonalizing transform the noise covariance is the identity and the speaker
covariance is diagonal (psi), so the pair log-likelihood ratio factors over
dimensions.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .binfile import BinaryReader
from .errors import Interval, InvalidInputError

EMBED_MAGIC = b"XEMB"
BACKEND_MAGIC = b"XBKD"
CONV_PCA_FRACTION = 0.10
PCA_FRACTION_DOMAIN = Interval("fraction", 0.0, 1.0, "(]")
# a whitener keeps at least one direction; the upper bound, the embeddings'
# dimension, is known only once they are read
PCA_DIM_DOMAIN = Interval("n_components", 1)


def length_normalize(vectors: np.ndarray) -> np.ndarray:
    """Scale each row of an (n, dim) stack to norm sqrt(dim), the expected
    norm of a standard gaussian, so covariances keep a meaningful scale."""
    x = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise InvalidInputError("cannot length-normalize a zero vector")
    return x * (math.sqrt(x.shape[1]) / norms)


def _canonical_signs(eigvecs: np.ndarray) -> np.ndarray:
    # columns are eigenvectors; pin each one's dominant component positive
    flips = np.sign(eigvecs[np.abs(eigvecs).argmax(axis=0), np.arange(eigvecs.shape[1])])
    return eigvecs * np.where(flips == 0, 1.0, flips)


@dataclass(frozen=True)
class Whitener:
    mean: np.ndarray
    transform: np.ndarray  # rows scale eigenvector projections to unit variance


def fit_pca_whitener(vectors: np.ndarray, n_components: int | None = None) -> Whitener:
    """PCA whitener; n_components keeps only the top-variance directions.

    A direction whose variance is below n * eps times the rows' mean square
    holds rounding, not data; whitening would blow its rounding noise up to
    unit variance, so it is dropped. With no direction left, the input is
    rejected."""
    x = np.asarray(vectors, dtype=np.float64)
    n, d = x.shape
    if n < d + 1:
        raise InvalidInputError(f"whitening {d} dims needs more than {d} vectors, got {n}")
    if n_components is not None and PCA_DIM_DOMAIN.check(n_components) > d:
        raise InvalidInputError(f"n_components must be in [1, {d}], got {n_components}")
    mean = x.mean(axis=0)
    cov = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))  # 0-d for one column
    lam, vecs = np.linalg.eigh(cov)
    vecs = _canonical_signs(vecs)
    order = np.argsort(lam)[::-1]
    order = order[lam[order] > n * np.finfo(np.float64).eps * np.mean(x * x)]
    if order.size == 0:
        raise InvalidInputError(f"covariance is singular (largest eigenvalue {lam[-1]:.3g})")
    transform = (vecs[:, order] / np.sqrt(lam[order])).T
    if n_components is not None:
        transform = transform[:n_components]
    return Whitener(mean, transform)


def apply_whitener(w: Whitener, vectors: np.ndarray) -> np.ndarray:
    return (np.asarray(vectors, dtype=np.float64) - w.mean) @ w.transform.T


def conversation_pca(vectors: np.ndarray, fraction: float = CONV_PCA_FRACTION) -> tuple[np.ndarray, int]:
    """Rank-limited denoising in the conversation's own principal subspace.

    Keeps ceil(fraction * n) components (at least one, at most the dimension)
    and reconstructs in the original space, so the output feeds the same PLDA
    as the input would. Returns the denoised vectors and the retained rank.
    """
    x = np.asarray(vectors, dtype=np.float64)
    n, d = x.shape
    if n < 2:
        raise InvalidInputError("conversation PCA needs at least two segments")
    PCA_FRACTION_DOMAIN.check(fraction)
    rank = min(max(1, math.ceil(fraction * n)), d)
    mean = x.mean(axis=0)
    centered = x - mean
    _, vecs = np.linalg.eigh(centered.T @ centered)
    basis = vecs[:, -rank:]  # top-variance directions
    return mean + (centered @ basis) @ basis.T, rank


@dataclass(frozen=True)
class Plda:
    mean: np.ndarray
    transform: np.ndarray  # diagonalizer: noise cov -> identity
    psi: np.ndarray        # speaker variance per dimension, descending


def fit_plda(vectors: np.ndarray, labels) -> Plda:
    """Two-covariance PLDA via the generalized eigenproblem of the between and
    within scatters. The average class size corrects the between scatter for
    the noise leaked through the class means."""
    import scipy.linalg

    x = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels)
    n, d = x.shape
    classes, inverse = np.unique(labels, return_inverse=True)
    k = len(classes)
    if k < 2:
        raise InvalidInputError("PLDA needs at least two speakers")
    n_bar = n / k
    if n_bar <= 1.0:
        raise InvalidInputError("PLDA needs repeated utterances per speaker")

    means = np.stack([x[inverse == i].mean(axis=0) for i in range(k)])
    centered = x - means[inverse]
    within = centered.T @ centered / n
    mu = means.mean(axis=0)
    between = (means - mu).T @ (means - mu) / k
    try:
        lam, vecs = scipy.linalg.eigh(between, within)
    except scipy.linalg.LinAlgError:
        raise InvalidInputError(
            "within-speaker scatter is singular; need more utterances than dimensions"
        ) from None
    order = np.argsort(lam)[::-1]
    scale = (n_bar - 1.0) / n_bar
    transform = math.sqrt(scale) * _canonical_signs(vecs)[:, order].T
    psi = np.maximum(scale * lam[order] - 1.0 / n_bar, 0.0)
    return Plda(mu, transform, psi)


def project_plda(plda: Plda, vectors: np.ndarray) -> np.ndarray:
    return (np.asarray(vectors, dtype=np.float64) - plda.mean) @ plda.transform.T


def score_matrix(plda: Plda, projected: np.ndarray) -> np.ndarray:
    """All-pairs same/different-speaker log-likelihood ratios of projected
    vectors, from per-dimension constants shared by every pair."""
    u = np.asarray(projected, dtype=np.float64)
    a = plda.psi + 1.0
    b = plda.psi
    gap = a * a - b * b
    const = float(np.sum(-0.5 * np.log(gap / (a * a))))
    c_self = -a / (2.0 * gap) + 1.0 / (2.0 * a)
    c_cross = b / gap
    q = (u * u) @ c_self
    return const + q[:, None] + q[None, :] + (u * c_cross) @ u.T


# ------------------------------------------------------------ embedding files

class EmbeddingRecord(NamedTuple):
    conversation_id: str
    start_s: float
    end_s: float
    speaker: str        # empty when unknown
    vector: np.ndarray


def write_embeddings(path, records: Sequence[EmbeddingRecord]) -> None:
    """Binary embedding archive: magic, u32 count, u32 dim, then per record a
    u16-length UTF-8 header "conv start end [speaker]" and dim float32 values,
    all little-endian."""
    records = list(records)
    if not records:
        raise InvalidInputError("refusing to write an empty embedding archive")
    dim = len(records[0].vector)
    with open(path, "wb") as fh:
        fh.write(EMBED_MAGIC)
        fh.write(struct.pack("<II", len(records), dim))
        for r in records:
            if len(r.vector) != dim:
                raise InvalidInputError("embedding dimensions disagree within one archive")
            head = f"{r.conversation_id} {r.start_s:.3f} {r.end_s:.3f}"
            if r.speaker:
                head += f" {r.speaker}"
            raw = head.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise InvalidInputError(f"record header too long: {head[:40]}...")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(np.asarray(r.vector, dtype="<f4").tobytes())
    return None


def read_embeddings(path) -> list[EmbeddingRecord]:
    reader = BinaryReader(path, EMBED_MAGIC, "embedding archive")
    count, dim = reader.unpack("<II", "header")
    if count < 1 or dim < 1:
        raise reader.error(f"header gives {count} embeddings of {dim} values; "
                           f"an archive needs at least one of each")
    out = []
    for i in range(count):
        (hlen,) = reader.unpack("<H", f"record {i} header length")
        head = reader.text(hlen, f"record {i} header")
        fields = head.split()
        if len(fields) not in (3, 4):
            raise reader.error(f"record {i} header {head!r} is malformed")
        try:
            start, stop = float(fields[1]), float(fields[2])
        except ValueError:
            raise reader.error(f"record {i} header {head!r} is malformed") from None
        vec = reader.values("<f4", dim, f"record {i} vector").astype(np.float64)
        speaker = fields[3] if len(fields) == 4 else ""
        out.append(EmbeddingRecord(fields[0], start, stop, speaker, vec))
    reader.close()
    return out


def save_backend(path, whitener: Whitener, plda: Plda) -> None:
    """Whitener + PLDA in one file: magic, u32 input dim d, u32 whitened dim k,
    then float64 little-endian arrays in fixed order (whitener mean d,
    whitener transform k*d, PLDA mean k, PLDA transform k*k, PLDA psi k).
    A flat layout keeps the bytes a pure function of the parameters."""
    k, d = whitener.transform.shape
    if plda.mean.shape != (k,) or plda.transform.shape != (k, k) or plda.psi.shape != (k,):
        raise InvalidInputError(
            f"PLDA dims do not match the whitener output dimension {k}")
    with open(path, "wb") as fh:
        fh.write(BACKEND_MAGIC)
        fh.write(struct.pack("<II", d, k))
        for arr in (whitener.mean, whitener.transform, plda.mean, plda.transform, plda.psi):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_backend(path) -> tuple[Whitener, Plda]:
    reader = BinaryReader(path, BACKEND_MAGIC, "backend file")
    d, k = reader.unpack("<II", "header")
    if not 1 <= k <= d:
        raise reader.error(f"backend dims d={d}, k={k}: need 1 <= k <= d")
    names = ("whitener mean", "whitener transform", "PLDA mean", "PLDA transform", "PLDA psi")
    parts = [reader.values("<f8", size, name).astype(np.float64)
             for name, size in zip(names, (d, k * d, k, k * k, k))]
    reader.close()
    if np.any(parts[4] < 0):  # a speaker variance; fit_plda writes none below 0
        raise reader.error(f"PLDA psi must be >= 0, got {float(parts[4].min())!r}")
    whitener = Whitener(parts[0], parts[1].reshape(k, d))
    plda = Plda(parts[2], parts[3].reshape(k, k), parts[4])
    return whitener, plda

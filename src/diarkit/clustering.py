"""Agglomerative clustering on pair score matrices, and threshold calibration.

Linkage is the average of the *original* pair scores between two clusters'
members, never a re-scored merge product. The greedy merge order is therefore
independent of the stopping rule, which lets one merge sequence serve every
threshold during calibration.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import InvalidInputError

GRID_SIZE = 41
GRID_SPREAD = 2.0  # grid spans mean +/- this many std devs of the dev scores


class MergeStep(NamedTuple):
    score: float  # average original-pair score between the two clusters
    first: int    # cluster ids are each cluster's smallest member index
    second: int


def _check_scores(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InvalidInputError(f"score matrix must be square, got {s.shape}")
    if s.size and not np.all(np.isfinite(s)):
        raise InvalidInputError("score matrix contains non-finite values")
    if s.size:
        tol = 1e-8 * (1.0 + float(np.abs(s).max()))
        if float(np.abs(s - s.T).max()) > tol:
            raise InvalidInputError("score matrix is not symmetric")
    return (s + s.T) / 2.0


def merge_sequence(scores) -> list[MergeStep]:
    """Greedy merge order down to one cluster; the one place a score matrix
    is checked (square, finite, symmetric) before clustering.

    Ties on the average score resolve toward the lexicographically smallest
    (first, second) id pair. Cluster pair sums update incrementally, so the
    whole sequence costs O(n^3) additions but no rescans of the matrix.
    """
    s = _check_scores(scores)
    n = s.shape[0]
    sizes = {i: 1 for i in range(n)}
    sums = {(i, j): s[i, j] for i in range(n) for j in range(i + 1, n)}
    steps: list[MergeStep] = []
    while len(sizes) > 1:
        best_key = None
        best_avg = -math.inf
        for (a, b), total in sums.items():
            avg = total / (sizes[a] * sizes[b])
            if avg > best_avg or (avg == best_avg and (a, b) < best_key):
                best_key, best_avg = (a, b), avg
        a, b = best_key
        steps.append(MergeStep(best_avg, a, b))
        del sums[(a, b)]
        for c in sizes:
            if c == a or c == b:
                continue
            key_b = (b, c) if b < c else (c, b)
            key_a = (a, c) if a < c else (c, a)
            sums[key_a] += sums.pop(key_b)
        sizes[a] += sizes.pop(b)
    return steps


def _labels_after(n: int, steps: list[MergeStep], merges: int) -> np.ndarray:
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for st in steps[:merges]:
        parent[find(st.second)] = find(st.first)
    labels = np.empty(n, dtype=np.int64)
    seen: dict[int, int] = {}
    for i in range(n):
        root = find(i)
        if root not in seen:
            seen[root] = len(seen)
        labels[i] = seen[root]
    return labels


def _merges_above(steps: list[MergeStep], threshold: float) -> int:
    """Merges made before the first whose average score falls below the threshold."""
    merges = 0
    for st in steps:
        if st.score < threshold:
            break
        merges += 1
    return merges


def cut_at_threshold(n: int, steps: list[MergeStep], threshold: float) -> np.ndarray:
    """Stop at the first merge whose average score falls below the threshold."""
    return _labels_after(n, steps, _merges_above(steps, threshold))


def ahc(scores, threshold: float | None = None, oracle_k: int | None = None) -> np.ndarray:
    """Cluster segments; returns integer labels numbered by first appearance.

    Exactly one stopping rule applies: merge while the best pair scores at
    least `threshold`, or merge until `oracle_k` clusters remain.
    """
    if (threshold is None) == (oracle_k is None):
        raise InvalidInputError("need exactly one of threshold and oracle_k")
    if oracle_k is not None and oracle_k < 1:
        raise InvalidInputError(f"oracle speaker count must be positive, got {oracle_k}")
    steps = merge_sequence(scores)
    n = np.shape(scores)[0]
    if oracle_k is None:
        return cut_at_threshold(n, steps, threshold)
    if oracle_k > n:
        raise InvalidInputError(
            f"oracle speaker count {oracle_k} exceeds the {n} segments available")
    return _labels_after(n, steps, n - oracle_k)


# ----------------------------------------------------------------- calibration

class FoldReport(NamedTuple):
    fold: int
    threshold: float
    dev_der: float
    eval_der: float


def threshold_grid(pooled_scores, size: int = GRID_SIZE) -> np.ndarray:
    p = np.asarray(pooled_scores, dtype=np.float64).ravel()
    if p.size == 0:
        raise InvalidInputError("no scores to build a threshold grid from")
    mu = float(p.mean())
    sigma = float(p.std())
    return np.linspace(mu - GRID_SPREAD * sigma, mu + GRID_SPREAD * sigma, size)


def calibrate_threshold(
    scores_by_conv: Mapping[str, np.ndarray],
    der_fn: Callable[[str, np.ndarray], float],
    folds: int = 2,
    grid_size: int = GRID_SIZE,
) -> tuple[dict[str, np.ndarray], list[FoldReport]]:
    """Cross-validated threshold selection.

    Conversations are dealt into folds round-robin in sorted id order. Each
    fold's threshold comes from a grid over the other folds' pooled pair
    scores, picking the grid point with the lowest mean per-conversation DER
    (ties go to the lower threshold). A fold whose dev conversations hold no
    pair score (none has two segments) gets the same dev DER at every
    threshold, so the tie rule gives it threshold -inf: every merge is made,
    and each of its held-out conversations is one speaker.

    der_fn(conv_id, labels) supplies the error of a candidate labeling; it is
    called once per distinct (conversation, labeling), since thresholds
    between the same two merge scores cut the same labels. Returns the labels
    each conversation got from the fold that held it out, plus one report
    per fold.
    """
    ids = sorted(scores_by_conv)
    if folds < 2:
        raise InvalidInputError("calibration needs at least two folds")
    if grid_size < 1:
        raise InvalidInputError(f"threshold grid needs at least one point, got {grid_size}")
    if len(ids) < folds:
        raise InvalidInputError(f"need at least {folds} conversations for {folds} folds")
    traces = {cid: (np.shape(scores_by_conv[cid])[0], merge_sequence(scores_by_conv[cid]))
              for cid in ids}

    ders: dict[tuple[str, int], float] = {}

    def der_at(cid: str, t: float) -> float:
        n, steps = traces[cid]
        key = (cid, _merges_above(steps, t))
        if key not in ders:
            ders[key] = der_fn(cid, _labels_after(n, steps, key[1]))
        return ders[key]

    labels_out: dict[str, np.ndarray] = {}
    reports: list[FoldReport] = []
    for f in range(folds):
        dev = [cid for i, cid in enumerate(ids) if i % folds != f]
        held = [cid for i, cid in enumerate(ids) if i % folds == f]
        pooled = np.concatenate([np.empty(0)] + [
            scores_by_conv[cid][np.triu_indices(traces[cid][0], k=1)] for cid in dev])
        grid = threshold_grid(pooled, grid_size) if pooled.size else [-math.inf]
        best_t, best_der = None, math.inf
        for t in grid:
            d = float(np.mean([der_at(cid, t) for cid in dev]))
            if d < best_der:
                best_t, best_der = float(t), d
        evals = []
        for cid in held:
            labels_out[cid] = cut_at_threshold(*traces[cid], best_t)
            evals.append(der_at(cid, best_t))
        reports.append(FoldReport(f, best_t, best_der, float(np.mean(evals))))
    return labels_out, reports

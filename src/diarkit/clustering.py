"""Agglomerative clustering on pair score matrices, and threshold calibration.

Linkage is the average of the *original* pair scores between two clusters'
members, never a re-scored merge product. The greedy merge order is therefore
independent of the stopping rule, which lets one merge sequence serve every
threshold during calibration.

One merge sequence over n segments costs O(n^2) memory and, in practice,
O(n^2) time (Muellner's generic algorithm, arXiv:1109.2378). The caller's
score matrix is never modified.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import Interval, InvalidInputError

GRID_SIZE = 41
GRID_SIZE_DOMAIN = Interval("threshold grid size", 1)
GRID_SPREAD = 2.0  # grid spans mean +/- this many std devs of the dev scores
FOLDS_DOMAIN = Interval("calibration folds", 2)
# -inf makes every merge and +inf none; a NaN threshold orders against no score
THRESHOLD_DOMAIN = Interval("clustering threshold", -math.inf, math.inf, "[]")


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
    (first, second) id pair. `s` holds cluster pair sums and `avg` their
    averages on live pairs i < j (-inf elsewhere); each row caches the first
    column of its maximum, and a merge rescans only rows whose column it moved.
    """
    s = _check_scores(scores)
    n = s.shape[0]
    if n == 0:
        return []
    size, alive = np.ones(n), np.ones(n, dtype=bool)
    avg = np.where(np.tri(n, dtype=bool), -np.inf, s)
    col, val = avg.argmax(axis=1), avg.max(axis=1)
    steps: list[MergeStep] = []
    for _ in range(n - 1):
        a = int(val.argmax())
        b = int(col[a])
        steps.append(MergeStep(val[a], a, b))
        stale = np.flatnonzero(alive & ((col == a) | (col == b)))
        s[a] += s[b]  # sum(a, c) += sum(b, c), one float addition per pair and merge
        s[:, a] = s[a]
        size[a] += size[b]
        alive[b] = False
        avg[b] = avg[:, b] = -np.inf
        avg[a, a + 1:] = np.where(alive[a + 1:], s[a, a + 1:] / (size[a] * size[a + 1:]), -np.inf)
        avg[:a, a] = np.where(alive[:a], s[:a, a] / (size[:a] * size[a]), -np.inf)
        # row c < a takes (c, a) if it beats c's best, or ties it from a smaller column
        wins = (avg[:a, a] > val[:a]) | ((avg[:a, a] == val[:a]) & (col[:a] > a))
        val[:a] = np.where(wins, avg[:a, a], val[:a])
        col[:a] = np.where(wins, a, col[:a])
        for r in (a, b, *stale):
            col[r] = avg[r].argmax()
            val[r] = avg[r, col[r]]
    return steps


def _labels_after(n: int, steps: list[MergeStep], merges: int) -> np.ndarray:
    """A cluster's id is its smallest member, so each merged id points to a
    smaller one, and one pass in id order resolves every root."""
    root = list(range(n))
    for st in steps[:merges]:
        root[st.second] = st.first
    for i in range(n):
        root[i] = root[root[i]]
    seen: dict[int, int] = {}
    return np.array([seen.setdefault(r, len(seen)) for r in root], dtype=np.int64)


def _merges_above(steps: list[MergeStep], threshold: float) -> int:
    """Merges made before the first whose average score falls below the threshold."""
    return next((i for i, st in enumerate(steps) if st.score < threshold), len(steps))


def cut_at_threshold(n: int, steps: list[MergeStep], threshold: float) -> np.ndarray:
    """Stop at the first merge whose average score falls below the threshold."""
    THRESHOLD_DOMAIN.check(threshold)
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

    Means skip undefined (NaN) DERs: those are pure false alarm, which no
    labeling changes. A fold with no defined dev DER gets threshold -inf too.

    der_fn(conv_id, labels) supplies the error of a candidate labeling; it is
    called once per distinct (conversation, labeling), since thresholds
    between the same two merge scores cut the same labels. Returns the labels
    each conversation got from the fold that held it out, plus one report
    per fold.
    """
    ids = sorted(scores_by_conv)
    FOLDS_DOMAIN.check(folds)
    GRID_SIZE_DOMAIN.check(grid_size)
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
        curve = [(_defined_mean([der_at(cid, t) for cid in dev]), float(t)) for t in grid]
        best_der, best_t = min((c for c in curve if not math.isnan(c[0])),
                               default=(math.nan, -math.inf))
        evals = []
        for cid in held:
            labels_out[cid] = cut_at_threshold(*traces[cid], best_t)
            evals.append(der_at(cid, best_t))
        reports.append(FoldReport(f, best_t, best_der, _defined_mean(evals)))
    return labels_out, reports


def _defined_mean(values: list[float]) -> float:
    """Mean of the values that are not NaN; NaN when none is."""
    defined = [v for v in values if not math.isnan(v)]
    return float(np.mean(defined)) if defined else math.nan

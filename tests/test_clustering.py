"""Clustering tests, anchored by an exhaustive greedy reference that rescans
the original score matrix at every step."""

import hashlib

import numpy as np
import pytest

from diarkit.clustering import (
    FoldReport,
    ahc,
    calibrate_threshold,
    cut_at_threshold,
    merge_sequence,
    threshold_grid,
)
from diarkit.errors import InvalidInputError


def _greedy_reference(s, threshold=None, oracle_k=None):
    """Brute-force mirror of the clustering contract: recompute every cluster
    pair's average original score by direct slicing each round."""
    n = s.shape[0]
    clusters = [[i] for i in range(n)]
    while len(clusters) > 1:
        if oracle_k is not None and len(clusters) == oracle_k:
            break
        best = None
        for ai in range(len(clusters)):
            for bi in range(ai + 1, len(clusters)):
                block = s[np.ix_(clusters[ai], clusters[bi])]
                avg = block.sum() / block.size
                key = (-avg, min(clusters[ai]), min(clusters[bi]))
                if best is None or key < best[0]:
                    best = (key, ai, bi)
        if threshold is not None and -best[0][0] < threshold:
            break
        _, ai, bi = best
        clusters[ai] = clusters[ai] + clusters[bi]
        del clusters[bi]
    labels = np.empty(n, dtype=np.int64)
    order = sorted(range(len(clusters)), key=lambda c: min(clusters[c]))
    for lab, c in enumerate(order):
        for m in clusters[c]:
            labels[m] = lab
    return labels


def _sym(rng, n, integer=False):
    if integer:
        a = rng.integers(0, 4, size=(n, n)).astype(np.float64)
    else:
        a = rng.normal(size=(n, n))
    s = (a + a.T) / 2.0
    np.fill_diagonal(s, 0.0)
    return s


def test_hand_case_three_items():
    s = np.array([[0.0, 10.0, 2.0],
                  [10.0, 0.0, 3.0],
                  [2.0, 3.0, 0.0]])
    # pair (0,1) scores 10; the merged cluster meets item 2 at (2+3)/2 = 2.5
    assert ahc(s, threshold=5.0).tolist() == [0, 0, 1]
    assert ahc(s, threshold=2.5).tolist() == [0, 0, 0]
    assert ahc(s, threshold=11.0).tolist() == [0, 1, 2]
    assert ahc(s, oracle_k=2).tolist() == [0, 0, 1]
    assert ahc(s, oracle_k=1).tolist() == [0, 0, 0]
    assert ahc(s, oracle_k=3).tolist() == [0, 1, 2]


def test_threshold_is_inclusive():
    s = np.array([[0.0, 5.0], [5.0, 0.0]])
    assert ahc(s, threshold=5.0).tolist() == [0, 0]
    assert ahc(s, threshold=5.0 + 1e-12).tolist() == [0, 1]


def test_matches_greedy_reference():
    rng = np.random.default_rng(20)
    for trial in range(200):
        n = int(rng.integers(2, 7))
        # integer scores force frequent exact ties, exercising the tie rule
        s = _sym(rng, n, integer=bool(trial % 2))
        threshold = float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])) \
            if trial % 2 else float(rng.normal())
        got = ahc(s, threshold=threshold)
        want = _greedy_reference(s, threshold=threshold)
        assert got.tolist() == want.tolist(), f"trial {trial} threshold {threshold}\n{s}"
        k = int(rng.integers(1, n + 1))
        got = ahc(s, oracle_k=k)
        want = _greedy_reference(s, oracle_k=k)
        assert got.tolist() == want.tolist(), f"trial {trial} k {k}\n{s}"


def test_shift_invariance():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        s = _sym(rng, n)
        t = float(rng.normal())
        c = float(rng.normal(scale=3.0))
        assert ahc(s, threshold=t).tolist() == ahc(s + c, threshold=t + c).tolist()


def test_separable_blocks_recovered():
    rng = np.random.default_rng(22)
    truth = np.array([0, 0, 0, 1, 1, 1, 1, 2, 2])
    s = np.where(truth[:, None] == truth[None, :], 5.0, -5.0)
    s = s + rng.normal(scale=0.1, size=s.shape)
    s = (s + s.T) / 2.0
    np.fill_diagonal(s, 0.0)
    assert ahc(s, threshold=0.0).tolist() == truth.tolist()
    assert ahc(s, oracle_k=3).tolist() == truth.tolist()


def test_labels_numbered_by_first_appearance():
    s = np.full((4, 4), -10.0)
    s[2, 3] = s[3, 2] = 8.0
    s[0, 1] = s[1, 0] = 5.0
    np.fill_diagonal(s, 0.0)
    # (2,3) merges first, but item 0's cluster still takes label 0
    assert ahc(s, threshold=1.0).tolist() == [0, 0, 1, 1]


def test_single_item():
    s = np.zeros((1, 1))
    assert ahc(s, threshold=0.0).tolist() == [0]
    assert ahc(s, oracle_k=1).tolist() == [0]


def test_stopping_rule_validation():
    s = np.zeros((3, 3))
    with pytest.raises(InvalidInputError):
        ahc(s)
    with pytest.raises(InvalidInputError):
        ahc(s, threshold=0.0, oracle_k=2)
    with pytest.raises(InvalidInputError):
        ahc(s, oracle_k=4)
    with pytest.raises(InvalidInputError):
        ahc(s, oracle_k=0)


def test_score_matrix_validation():
    with pytest.raises(InvalidInputError):
        ahc(np.zeros((2, 3)), threshold=0.0)
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InvalidInputError):
        ahc(bad, threshold=0.0)
    nan = np.zeros((2, 2))
    nan[0, 1] = nan[1, 0] = np.nan
    with pytest.raises(InvalidInputError):
        ahc(nan, threshold=0.0)


def test_each_score_matrix_is_checked_once(monkeypatch):
    import diarkit.clustering as clustering

    checked = []
    real = clustering._check_scores
    monkeypatch.setattr(clustering, "_check_scores",
                        lambda s: checked.append(np.shape(s)) or real(s))
    rng = np.random.default_rng(28)
    ahc(_sym(rng, 6), threshold=0.0)
    ahc(_sym(rng, 5), oracle_k=2)
    assert checked == [(6, 6), (5, 5)]
    checked.clear()
    calibrate_threshold({f"c{i}": _sym(rng, 3 + i) for i in range(4)}, lambda c, l: 0.0)
    assert checked == [(3, 3), (4, 4), (5, 5), (6, 6)]


def _merge_digest(matrices):
    """SHA-256 over every merge's exact score and id pair, in merge order."""
    h = hashlib.sha256()
    for s in matrices:
        for st in merge_sequence(s):
            h.update(f"{float(st.score).hex()} {st.first} {st.second}\n".encode())
    return h.hexdigest()


def _tie_heavy_matrices():
    rng = np.random.default_rng(40)
    return [_sym(rng, n, integer=True) for _ in range(5) for n in range(2, 40)]


def _gram_matrices():
    rng = np.random.default_rng(41)
    return [x @ x.T for x in (rng.normal(size=(200, 16)) for _ in range(2))]


# Pins every MergeStep bit for bit, tie order included; the greedy reference
# above compares labels only, at n <= 6. The Gram matrices pass through BLAS,
# so another build may move their last bits and that hash.
MERGE_SHA256 = {
    "tie-heavy": "73b248865f5aaa59b1d95a2c95898a2f3227edc50ed766369fb89fa8b5b950e1",
    "gram-200": "de24f9975adbd3cea46131ac718cb8d575860dbbdea76fd6aa2768e6909a1ecb",
}


@pytest.mark.parametrize("name,matrices", [("tie-heavy", _tie_heavy_matrices),
                                           ("gram-200", _gram_matrices)])
def test_merge_sequence_is_pinned(name, matrices):
    assert _merge_digest(matrices()) == MERGE_SHA256[name]


def test_merge_sequence_scores_and_cut():
    s = np.array([[0.0, 10.0, 2.0],
                  [10.0, 0.0, 3.0],
                  [2.0, 3.0, 0.0]])
    steps = merge_sequence(s)
    assert [(st.first, st.second) for st in steps] == [(0, 1), (0, 2)]
    assert steps[0].score == 10.0
    assert steps[1].score == 2.5
    assert cut_at_threshold(3, steps, 5.0).tolist() == [0, 0, 1]
    assert cut_at_threshold(3, steps, -100.0).tolist() == [0, 0, 0]


# ----------------------------------------------------------------- calibration

def _block_scores(rng, truth, gap=5.0, noise=0.1):
    s = np.where(truth[:, None] == truth[None, :], gap, -gap)
    s = s + rng.normal(scale=noise, size=s.shape)
    s = (s + s.T) / 2.0
    np.fill_diagonal(s, 0.0)
    return s


def _exact_match_der(truths):
    """0.0 when the labeling partitions items exactly like the truth."""
    def der(cid, labels):
        truth = truths[cid]
        dict_fwd, dict_bwd = {}, {}
        for t, l in zip(truth, labels):
            if dict_fwd.setdefault(t, l) != l or dict_bwd.setdefault(l, t) != t:
                return 1.0
        return 0.0
    return der


def test_calibration_separable_reaches_zero():
    rng = np.random.default_rng(23)
    truths, scores = {}, {}
    for i in range(6):
        truth = rng.integers(0, 2, size=10)
        truth[0], truth[1] = 0, 1  # both speakers present
        truths[f"conv{i}"] = truth
        scores[f"conv{i}"] = _block_scores(rng, truth)
    labels, reports = calibrate_threshold(scores, _exact_match_der(truths))
    assert sorted(labels) == sorted(scores)
    assert len(reports) == 2
    for rep in reports:
        assert rep.dev_der == 0.0
        assert rep.eval_der == 0.0
    for cid, truth in truths.items():
        assert _exact_match_der(truths)(cid, labels[cid]) == 0.0


def test_calibration_ties_take_lower_threshold():
    rng = np.random.default_rng(24)
    scores = {f"c{i}": _sym(rng, 6) for i in range(4)}
    labels, reports = calibrate_threshold(scores, lambda cid, lab: 0.25)
    for rep in reports:
        dev = [cid for i, cid in enumerate(sorted(scores)) if i % 2 != rep.fold]
        pooled = np.concatenate([scores[cid][np.triu_indices(6, k=1)] for cid in dev])
        assert rep.threshold == threshold_grid(pooled)[0]
        assert rep.dev_der == 0.25


def test_calibration_fold_assignment_round_robin():
    rng = np.random.default_rng(25)
    scores = {name: _sym(rng, 5) for name in ["a", "b", "c", "d", "e"]}
    labels, reports = calibrate_threshold(scores, lambda cid, lab: 0.0)
    assert [r.fold for r in reports] == [0, 1]
    assert set(labels) == set(scores)


def test_calibration_deterministic():
    rng = np.random.default_rng(26)
    scores = {f"c{i}": _sym(rng, 8) for i in range(4)}
    der = lambda cid, lab: float(len(set(lab.tolist())))
    l1, r1 = calibrate_threshold(scores, der)
    l2, r2 = calibrate_threshold(scores, der)
    assert r1 == r2
    for cid in scores:
        assert l1[cid].tolist() == l2[cid].tolist()


def test_calibration_scores_each_distinct_cut_once():
    """der_fn runs once per (conversation, labeling); the result is that of
    scoring every grid point afresh, recomputed here without a cache."""
    rng = np.random.default_rng(28)
    scores = {f"c{i}": _sym(rng, n) for i, n in enumerate((3, 6, 8, 5, 7))}
    weights = {cid: rng.uniform(0.5, 2.0) for cid in scores}

    def der(cid, lab):
        return weights[cid] * abs(len(set(lab.tolist())) - 3)

    calls = []
    labels, reports = calibrate_threshold(
        scores, lambda cid, lab: calls.append((cid, tuple(lab.tolist()))) or der(cid, lab))
    assert len(calls) == len(set(calls))

    ids = sorted(scores)
    steps = {cid: merge_sequence(scores[cid]) for cid in ids}
    cut = {cid: (lambda t, cid=cid: cut_at_threshold(len(scores[cid]), steps[cid], t))
           for cid in ids}
    for rep in reports:
        dev = [cid for i, cid in enumerate(ids) if i % 2 != rep.fold]
        held = [cid for i, cid in enumerate(ids) if i % 2 == rep.fold]
        pooled = np.concatenate([scores[c][np.triu_indices(len(scores[c]), k=1)] for c in dev])
        dev_ders = [float(np.mean([der(c, cut[c](t)) for c in dev])) for t in threshold_grid(pooled)]
        best = int(np.argmin(dev_ders))
        assert rep.threshold == float(threshold_grid(pooled)[best])
        assert rep.dev_der == dev_ders[best]
        assert rep.eval_der == float(np.mean([der(c, cut[c](rep.threshold)) for c in held]))
        for c in held:
            assert labels[c].tolist() == cut[c](rep.threshold).tolist()


def test_calibration_validation():
    rng = np.random.default_rng(27)
    with pytest.raises(InvalidInputError):
        calibrate_threshold({"only": _sym(rng, 4)}, lambda c, l: 0.0)
    with pytest.raises(InvalidInputError):
        calibrate_threshold({"a": _sym(rng, 4), "b": _sym(rng, 4)},
                            lambda c, l: 0.0, folds=1)
    for grid_size in (0, -3):
        with pytest.raises(InvalidInputError, match="grid"):
            calibrate_threshold({"a": _sym(rng, 4), "b": _sym(rng, 4)},
                                lambda c, l: 0.0, grid_size=grid_size)


def test_calibration_fold_without_pairs_merges_everything():
    """The fold holding "b" out has only "a", one segment, as its dev set: no
    pair scores, so every threshold gives the same dev DER and the tie rule
    picks -inf, which makes every merge of "b"."""
    rng = np.random.default_rng(29)
    scores = {"a": np.zeros((1, 1)), "b": _sym(rng, 4)}
    labels, reports = calibrate_threshold(scores, lambda c, l: float(len(set(l.tolist()))))
    assert reports[1] == FoldReport(1, -np.inf, 1.0, 1.0)
    assert labels["b"].tolist() == [0, 0, 0, 0]
    assert labels["a"].tolist() == [0]
    assert reports[0].threshold == threshold_grid(scores["b"][np.triu_indices(4, k=1)])[0]


def test_threshold_grid_shape():
    grid = threshold_grid(np.array([0.0, 2.0]))
    assert len(grid) == 41
    assert grid[0] == pytest.approx(1.0 - 2.0)
    assert grid[-1] == pytest.approx(1.0 + 2.0)
    assert grid[20] == pytest.approx(1.0)
    with pytest.raises(InvalidInputError):
        threshold_grid(np.empty(0))

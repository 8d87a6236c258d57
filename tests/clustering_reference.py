"""Dict-of-pair-sums merge sequence, kept as an oracle for the matrix version
in `diarkit.clustering`. It makes the same greedy merges with the same float
operations per pair, at O(n^3) cost, so the two must agree bit for bit."""

from __future__ import annotations

import math

from diarkit.clustering import MergeStep, _check_scores


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

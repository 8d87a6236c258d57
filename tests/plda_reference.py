"""Per-pair PLDA oracle: the same/different-speaker log-likelihood ratio of
two projected vectors, written out term by term from the two Gaussians.

The engine scores all pairs of a conversation at once with
`diarkit.backend.score_matrix`; this reference scores one pair, so the tests
can check it against numerical integration and then the matrix against it.
"""

import numpy as np


def plda_score(plda, u1: np.ndarray, u2: np.ndarray) -> float:
    """Same/different-speaker log-likelihood ratio of two projected vectors."""
    a = plda.psi + 1.0
    b = plda.psi
    det_ratio = (a * a - b * b) / (a * a)
    quad_same = (a * (u1 * u1 + u2 * u2) - 2.0 * b * u1 * u2) / (2.0 * (a * a - b * b))
    quad_diff = (u1 * u1 + u2 * u2) / (2.0 * a)
    return float(np.sum(-0.5 * np.log(det_ratio) - quad_same + quad_diff))

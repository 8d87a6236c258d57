"""SVD semi-orthogonal projection, kept as an oracle for the Gram-matrix
version in `diarkit.network.layers`: U V^T from a float64 thin SVD, with the
rank-deficiency rule stated on the singular values."""

from __future__ import annotations

import numpy as np


def svd_semi_orthogonalize(m: np.ndarray) -> np.ndarray:
    """Nearest matrix with orthonormal rows (Frobenius sense): U V^T from the
    SVD. A smallest singular value at most 1e-10 times max(1, the largest) is
    rank deficiency and raises ValueError."""
    u, s, vt = np.linalg.svd(m.astype(np.float64, copy=False), full_matrices=False)
    if s[-1] <= 1e-10 * max(1.0, s[0]):
        raise ValueError("rank-deficient matrix has no semi-orthogonal projection")
    return (u @ vt).astype(m.dtype, copy=False)

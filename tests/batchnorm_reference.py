"""X-hat batch-norm backward, kept as an oracle for the closed form in
`diarkit.network.graph`. It recomputes the normalized input x-hat from the
pre-activation input and applies the textbook chain rule through it,

    dx = istd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))  where x > 0,

with dxhat = g * gamma. It reads the same tape entry (mean, inverse std,
keep-mask and its scale) as the engine's relu_batchnorm backward, so the two
must agree to rounding."""

from __future__ import annotations

import numpy as np

from diarkit.network.graph import _data


def _xhat(x: np.ndarray, cache: dict, out=None) -> np.ndarray:
    xhat = np.maximum(x, 0.0, out=out)
    xhat -= cache["mu"]
    xhat *= cache["istd"]
    return xhat


def backward(p, g, cache):
    """(parameter gradients, [input gradient]) of relu_batchnorm."""
    if cache["keep"] is not None:
        g = g * cache["keep"]
        g *= cache["scale"]
    x = _data(cache["in_value"])
    xhat = _xhat(x, cache)
    dxhat = g * xhat  # g * xhat, for the gamma gradient, before dxhat
    grads = {"gamma": dxhat.sum(axis=0), "beta": g.sum(axis=0)}
    np.multiply(g, p["gamma"], out=dxhat)
    mean_dxhat = dxhat.mean(axis=0)
    xhat *= dxhat
    mean_dxhat_xhat = xhat.mean(axis=0)
    # dx = istd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) where x > 0
    dxhat -= mean_dxhat
    xhat = _xhat(x, cache, out=xhat)  # again, not a third array
    xhat *= mean_dxhat_xhat
    dxhat -= xhat
    dxhat *= cache["istd"]
    dxhat *= x > 0.0
    return grads, [dxhat]

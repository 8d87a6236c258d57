"""Unfolded relu_batchnorm, kept as an oracle for the folded layer in
`diarkit.network.graph`.

forward is the layer as it was before its scale and shift were folded: ReLU,
a float64 batch mean rounded once, centring, a BLAS variance, then one pass
each for the inverse std, gamma, beta, the dropout mask and its scale. The
engine sums the mean by BLAS in the engine dtype and applies one folded
scale and one shift, so the two agree to rounding.

backward is the x-hat chain rule, kept as an oracle for the closed form. It
recomputes the normalized input x-hat from the pre-activation input and
applies the textbook chain rule through it,

    dx = istd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))  where x > 0,

with dxhat = g * gamma. It reads the same tape entry (mean, inverse std,
keep-mask and its scale) as the engine's relu_batchnorm backward, so the two
must agree to rounding."""

from __future__ import annotations

import numpy as np

from diarkit.network.graph import BN_EPS, BN_MOMENTUM, _data


def forward(p, x, buffers, training, dropout_prob=0.0, rng=None):
    """(output, tape entry) of relu_batchnorm on the (n, d) pre-activations x;
    a training pass updates the running moments in buffers."""
    y = np.maximum(x, 0.0)
    if training:  # the mean summed in float64, rounded once
        mu = y.mean(axis=0, dtype=np.float64).astype(y.dtype, copy=False)
        y -= mu
        var = np.ones(y.shape[0], y.dtype) @ np.square(y) / y.shape[0]
        buffers["running_mean"] *= BN_MOMENTUM
        buffers["running_mean"] += (1.0 - BN_MOMENTUM) * mu
        buffers["running_var"] *= BN_MOMENTUM
        buffers["running_var"] += (1.0 - BN_MOMENTUM) * var
    else:
        mu, var = buffers["running_mean"], buffers["running_var"]
        y -= mu
    istd = 1.0 / np.sqrt(var + BN_EPS)
    y *= istd
    y *= p["gamma"]
    y += p["beta"]
    keep = scale = None
    if dropout_prob > 0.0:
        keep = rng.random(y.shape) >= dropout_prob
        scale = 1.0 / y.dtype.type(1.0 - dropout_prob)
        y *= keep
        y *= scale
    return y, {"mu": mu, "istd": istd, "keep": keep, "scale": scale}


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

"""Finite-difference oracle for the backward pass.

Central differences on a relu/batch-norm stack are only trustworthy at a
carefully chosen operating point. At a random initialization two things go
wrong for a fixed step size:

* any unit whose pre-activation sits within the step radius of zero flips its
  relu mask between the two evaluations, adding noise of order step;
* a channel whose rows all land on one side of the threshold behaves linearly
  through relu and batch norm, and the exact gradient of the layers feeding it
  collapses to a tiny cancellation residue that the quadratic truncation term
  dwarfs.

condition_for_fd moves a freshly initialized network to a point with neither
problem: every frame-level channel gets its threshold placed inside a wide gap
of the realized pre-activation distribution (so it keeps firmly live and
firmly dead rows, far from any flip), while segment-level channels, whose
batch statistics run over only a handful of rows and react violently to mask
changes, are pushed firmly all-live instead. The scale knobs keep curvature
small relative to the gradient magnitude so the truncation term stays well
under the tolerance.

The sweep itself perturbs every coordinate of every parameter. Evaluations
restart the graph at the perturbed layer and reuse the untouched prefix, which
is exact (a training pass reads batch statistics only, never the running
moments) and roughly halves the cost. Every training pass updates the running
batch-norm moments, so each function here puts them back before it returns:
the network's buffers end bit-identical to how they started.
"""

from contextlib import contextmanager

import numpy as np

from diarkit.network import backward_batch, forward_batch
from diarkit.network.graph import INPUT_NAME, FrameBatch, _apply_layers

DEFAULT_STEP = 1e-3
NORM_FLOOR = 1e-6

# The parameter whose rows scale one output channel, per linear kind.
_ROW_PARAM = {"tdnn": "W", "dense": "W", "factorized_tdnn": "F"}


@contextmanager
def _buffers_restored(net):
    """Put the running batch-norm moments back as they were on entry."""
    saved = [(v, v.copy()) for layer in net.buffers.values() for v in layer.values()]
    try:
        yield
    finally:
        for v, old in saved:
            v[...] = old


def fd_gradients(net, sequences, grad_out, windows=None, step=DEFAULT_STEP,
                 dropout_prob=0.0, rng_factory=None):
    """Central-difference gradient of sum(grad_out * logits) for every parameter.

    Runs in training mode. With dropout active pass an rng_factory returning
    identically seeded generators; mask draws consume the stream layer by
    layer, so those sweeps evaluate the full stack instead of restarting
    mid-graph.
    """
    seqs = [np.ascontiguousarray(np.asarray(s, dtype=np.float64)) for s in sequences]
    grad_out = np.asarray(grad_out, dtype=np.float64)
    reuse = dropout_prob == 0.0

    def rng():
        return rng_factory() if rng_factory is not None else None

    def functional(prefix, start):
        values = dict(prefix)
        _apply_layers(net, values, windows, True, dropout_prob, rng(), start)
        return float((grad_out * values[net.spec.output_layer]).sum())

    with _buffers_restored(net):
        base = {INPUT_NAME: FrameBatch(np.vstack(seqs), tuple(s.shape[0] for s in seqs), 0)}
        _apply_layers(net, base, windows, True, dropout_prob, rng())
        layers = net.spec.layers
        out = {}
        for li, ls in enumerate(layers):
            params = net.params[ls.name]
            if not params:
                continue
            start = li if reuse else 0
            prefix = {INPUT_NAME: base[INPUT_NAME]}
            for prev in layers[:start]:
                prefix[prev.name] = base[prev.name]
            grads = {}
            for pname, arr in params.items():
                flat = arr.ravel()
                gn = np.empty(flat.size)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    hi = functional(prefix, start)
                    flat[i] = orig - step
                    lo = functional(prefix, start)
                    flat[i] = orig
                    gn[i] = (hi - lo) / (2.0 * step)
                grads[pname] = gn.reshape(arr.shape)
            out[ls.name] = grads
    return out


def relative_errors(analytic, numeric, floor=NORM_FLOOR):
    """Per-tensor relative error ||ga - gn|| / max(floor, ||ga|| + ||gn||).

    Keys are "layer.param". A layer absent from the analytic dict received no
    gradient from the loss, so its exact gradient is zero.
    """
    rels = {}
    for lname, tensors in numeric.items():
        for pname, gn in tensors.items():
            ga = analytic.get(lname, {}).get(pname)
            if ga is None:
                ga = np.zeros_like(gn)
            num = float(np.linalg.norm(ga - gn))
            den = max(floor, float(np.linalg.norm(ga)) + float(np.linalg.norm(gn)))
            rels[f"{lname}.{pname}"] = num / den
    return rels


def check_gradients(net, sequences, grad_out, windows=None, step=DEFAULT_STEP,
                    floor=NORM_FLOOR, dropout_prob=0.0, rng_factory=None):
    """Analytic vs central-difference sweep; returns per-tensor relative errors."""
    with _buffers_restored(net):
        result = forward_batch(
            net, sequences, mode="training", windows=windows, dropout_prob=dropout_prob,
            rng=rng_factory() if rng_factory is not None else None,
        )
    analytic = backward_batch(net, result, np.asarray(grad_out, dtype=np.float64))
    numeric = fd_gradients(
        net, sequences, grad_out, windows=windows, step=step,
        dropout_prob=dropout_prob, rng_factory=rng_factory,
    )
    return relative_errors(analytic, numeric, floor=floor)


def condition_for_fd(net, sequences, windows=None, target_std=18.0, bn_scale=2.1,
                     factor_scale=2.8, margin=0.04):
    """Rescale and re-bias net in place so finite differences are informative.

    Walks the stack once. Every batch-norm gamma is set to bn_scale. Every
    hidden linear layer has its output rows rescaled so each channel's
    pre-activation std hits target_std, then its bias shifted per channel to
    the midpoint of a wide interior gap of the realized values: live and dead
    rows on both sides, nothing within margin * target_std of the threshold.
    Segment-level channels, realized over one value per pooling row, keep no
    gap worth the name and are pushed firmly all-live instead. Factorized
    layers get their inner projection prescaled by factor_scale, trading inner
    for outer magnitude to balance the two truncation terms. The output layer
    is left alone; it feeds the loss directly and has no relu after it. The
    running batch-norm moments end as they started.
    """
    spec = net.spec

    def realized(name):
        """The layer's output values and whether they are frame-level."""
        val = forward_batch(net, sequences, mode="training", windows=windows).values[name]
        return (val.data, True) if isinstance(val, FrameBatch) else (val, False)

    with _buffers_restored(net):
        for ls in spec.layers:
            if ls.kind == "relu_batchnorm":
                net.params[ls.name]["gamma"][:] = bn_scale
            elif ls.kind in _ROW_PARAM and ls.name != spec.output_layer:
                row = _ROW_PARAM[ls.kind]
                if ls.kind == "factorized_tdnn":
                    net.params[ls.name]["M"] *= factor_scale
                z, _ = realized(ls.name)
                scale = target_std / np.maximum(z.std(axis=0), 1e-6)
                net.params[ls.name][row] *= scale[:, None]
                z, frame_level = realized(ls.name)
                b = net.params[ls.name]["b"]
                if frame_level:
                    quota = max(1, z.shape[0] // 6)
                    for j in range(z.shape[1]):
                        b[j] += _gap_bias(z[:, j], margin * target_std, quota)
                else:
                    floor = target_std * bn_scale
                    for j in range(z.shape[1]):
                        lo = z[:, j].min()
                        if lo < floor:
                            b[j] += floor - lo
    return net


def _gap_bias(col, min_margin, quota):
    """Bias shift placing zero inside the widest interior gap of col.

    Only gaps leaving at least quota values on each side qualify; among those
    the widest wins, gap width before side balance. If nothing qualifies the
    column is shifted firmly all-live instead.
    """
    v = np.sort(col)
    n = v.size
    best = None
    for k in range(n - 1):
        half = (v[k + 1] - v[k]) / 2.0
        if half < min_margin or min(k + 1, n - k - 1) < quota:
            continue
        cand = (half, min(k + 1, n - k - 1), (v[k] + v[k + 1]) / 2.0)
        if best is None or cand[:2] > best[:2]:
            best = cand
    if best is not None:
        return -best[2]
    top = min_margin * 2.0
    return top - v[0] if v[0] < top else 0.0

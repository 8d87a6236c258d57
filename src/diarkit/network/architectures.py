"""Stock embedding-network architectures.

Four members of the x-vector family are assembled here as layer graphs:

* ``tdnn``       five spliced frame-level layers, one segment-level hidden
* ``etdnn``      ten frame-level layers with wider splicing interleaved with
                 dense layers, two segment-level hiddens
* ``ftdnn``      factorized frame-level stack with semi-orthogonal bottlenecks
                 and skip connections summed onto the layer input
* ``ftdnn_msa``  the factorized stack pooled at several depths, one branch per
                 tap, branch outputs concatenated ahead of the embedding layer

Every hidden linear layer is followed by ReLU + batch norm (a ``*_post``
layer); embeddings are read from the pre-activation output of ``segment1``
(``segment2`` in etdnn).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import InvalidInputError
from .graph import INPUT_NAME, LayerSpec, NetworkSpec, validate_spec

ARCH_NAMES = ("tdnn", "etdnn", "ftdnn", "ftdnn_msa")
MSA_TAP_CHOICES = ("frame7", "frame8", "frame9")
DEFAULT_MSA_TAPS = ("frame8", "frame9")


@dataclass(frozen=True)
class DimOverrides:
    """Width knobs for scaled-down variants; defaults reproduce the full nets."""

    feat_dim: int = 23
    width: int = 512          # frame1, plain frame layers, segment hiddens
    factor_width: int = 725   # factorized frame layers
    inner_dim: int = 180      # factorization bottleneck
    pool_width: int = 1500    # dense layer feeding statistics pooling
    branch_dim: int = 256     # per-tap dense after pooling (msa)
    embed_dim: int = 512      # embedding layer (msa)


class _GraphBuilder:
    """Accumulates blocks; each hidden block is linear + relu_batchnorm."""

    def __init__(self):
        self.layers: list[LayerSpec] = []
        self.last = INPUT_NAME

    def block(self, name, kind, in_dim, out_dim, context=(0,), inner_dim=0,
              inputs=None, skip_from=""):
        src = (self.last,) if inputs is None else tuple(inputs)
        self.layers.append(LayerSpec(name, kind, in_dim, out_dim, context,
                                     inner_dim, src, skip_from))
        if kind in ("tdnn", "factorized_tdnn", "dense"):
            self.layers.append(LayerSpec(f"{name}_post", "relu_batchnorm",
                                         out_dim, out_dim, (0,), 0, (name,)))
            self.last = f"{name}_post"
        else:
            self.last = name
        return self.last

    def raw(self, name, kind, in_dim, out_dim, inputs=None):
        src = (self.last,) if inputs is None else tuple(inputs)
        self.layers.append(LayerSpec(name, kind, in_dim, out_dim, (0,), 0, src))
        self.last = name
        return name


def _ftdnn_frame_stack(g: _GraphBuilder, d: DimOverrides) -> str:
    g.block("frame1", "tdnn", d.feat_dim, d.width, (-2, -1, 0, 1, 2))
    f = d.factor_width
    rows = [
        ("frame2", (-2, 0, 2), ""),
        ("frame3", (0,), ""),
        ("frame4", (-3, 0, 3), ""),
        ("frame5", (0,), "frame3_post"),
        ("frame6", (-3, 0, 3), ""),
        ("frame7", (-3, 0, 3), "frame4_post"),
        ("frame8", (-3, 0, 3), ""),
        ("frame9", (0,), "frame6_post"),
    ]
    in_dim = d.width
    for name, ctx, skip in rows:
        g.block(name, "factorized_tdnn", in_dim, f, ctx, d.inner_dim, skip_from=skip)
        in_dim = f
    return g.last


def build_architecture(
    name: str,
    num_speakers: int,
    taps=None,
    dims: Optional[DimOverrides] = None,
) -> NetworkSpec:
    """Assemble one of the stock architectures as a validated NetworkSpec.

    taps selects the pooled layers of the msa variant (subset of frame7..9,
    default frame8+frame9). dims scales every width for desk-size runs.
    """
    arch = name.replace("-", "_").lower()
    if arch not in ARCH_NAMES:
        raise InvalidInputError(f"unknown architecture {name!r}")
    if num_speakers < 2:
        raise InvalidInputError("need at least two training speakers")
    if taps and arch != "ftdnn_msa":
        raise InvalidInputError("taps only apply to the ftdnn_msa architecture")
    d = dims or DimOverrides()
    g = _GraphBuilder()
    msa_taps: tuple[str, ...] = ()

    if arch == "tdnn":
        g.block("frame1", "tdnn", d.feat_dim, d.width, (-2, -1, 0, 1, 2))
        g.block("frame2", "tdnn", d.width, d.width, (-2, 0, 2))
        g.block("frame3", "tdnn", d.width, d.width, (-3, 0, 3))
        g.block("frame4", "dense", d.width, d.width)
        g.block("frame5", "dense", d.width, d.pool_width)
        g.raw("stats", "stats_pool", d.pool_width, 2 * d.pool_width)
        g.block("segment1", "dense", 2 * d.pool_width, d.width)
        embedding = "segment1"
    elif arch == "etdnn":
        g.block("frame1", "tdnn", d.feat_dim, d.width, (-2, -1, 0, 1, 2))
        g.block("frame2", "dense", d.width, d.width)
        g.block("frame3", "tdnn", d.width, d.width, (-2, 0, 2))
        g.block("frame4", "dense", d.width, d.width)
        g.block("frame5", "tdnn", d.width, d.width, (-3, 0, 3))
        g.block("frame6", "dense", d.width, d.width)
        g.block("frame7", "tdnn", d.width, d.width, (-4, 0, 4))
        g.block("frame8", "dense", d.width, d.width)
        g.block("frame9", "dense", d.width, d.width)
        g.block("frame10", "dense", d.width, d.pool_width)
        g.raw("stats", "stats_pool", d.pool_width, 2 * d.pool_width)
        g.block("segment1", "dense", 2 * d.pool_width, d.width)
        g.block("segment2", "dense", d.width, d.width)
        embedding = "segment2"
    elif arch == "ftdnn":
        _ftdnn_frame_stack(g, d)
        g.block("frame10", "dense", d.factor_width, d.pool_width)
        g.raw("stats", "stats_pool", d.pool_width, 2 * d.pool_width)
        g.block("segment1", "dense", 2 * d.pool_width, d.width)
        g.block("segment2", "dense", d.width, d.width)
        embedding = "segment1"
    else:  # ftdnn_msa
        msa_taps = tuple(taps) if taps else DEFAULT_MSA_TAPS
        if not set(msa_taps) <= set(MSA_TAP_CHOICES) or len(set(msa_taps)) != len(msa_taps):
            raise InvalidInputError(f"msa taps must be distinct members of {MSA_TAP_CHOICES}")
        msa_taps = tuple(sorted(msa_taps))  # branch order is ascending layer index
        _ftdnn_frame_stack(g, d)
        branch_outs = []
        for tap in msa_taps:
            g.block(f"pre_stats_{tap}", "dense", d.factor_width, d.pool_width,
                    inputs=(f"{tap}_post",))
            g.raw(f"stats_{tap}", "stats_pool", d.pool_width, 2 * d.pool_width)
            g.block(f"post_stats_{tap}", "dense", 2 * d.pool_width, d.branch_dim)
            branch_outs.append(g.last)
        g.raw("concat", "concat", d.branch_dim * len(msa_taps),
              d.branch_dim * len(msa_taps), inputs=tuple(branch_outs))
        g.block("segment1", "dense", d.branch_dim * len(msa_taps), d.embed_dim)
        embedding = "segment1"

    hidden_out = g.layers[-2].out_dim  # pre-activation width of the last hidden
    g.raw("output", "dense", hidden_out, num_speakers)
    spec = NetworkSpec(
        layers=tuple(g.layers),
        embedding_layer=embedding,
        num_speakers=num_speakers,
        msa_taps=msa_taps,
    )
    validate_spec(spec)
    return spec

"""Embedding networks: layer primitives, graph assembly, forward/backward."""

from .architectures import DEFAULT_MSA_TAPS, DimOverrides, build_architecture
from .graph import (
    LayerSpec,
    Network,
    NetworkSpec,
    backward_batch,
    extract_embeddings,
    forward_batch,
    initialize_network,
    param_shapes,
    receptive_span,
    validate_spec,
)
from .layers import (
    VARIANCE_FLOOR,
    context_span,
    factor_contexts,
    ortho_residual,
    semi_orthogonalize,
    splice,
    unsplice,
)
from .model_io import load_network, save_network

__all__ = [
    "DEFAULT_MSA_TAPS",
    "DimOverrides",
    "LayerSpec",
    "Network",
    "NetworkSpec",
    "VARIANCE_FLOOR",
    "backward_batch",
    "build_architecture",
    "context_span",
    "extract_embeddings",
    "factor_contexts",
    "forward_batch",
    "initialize_network",
    "load_network",
    "ortho_residual",
    "param_shapes",
    "receptive_span",
    "save_network",
    "semi_orthogonalize",
    "splice",
    "unsplice",
    "validate_spec",
]

"""The benchmark's reads of diarkit internals, kept working by tier-1.

perfbench counts the matrix-product flops of every traced training forward
from the network spec's layer fields (``workloads.forward_flop``). A change to
those fields that breaks the count fails here, not first in a traced
benchmark pass.
"""

import math

import numpy as np
import pytest

from diarkit.network import DimOverrides, build_architecture, forward_batch, initialize_network
from diarkit.network.architectures import ARCH_NAMES
from diarkit.training import TrainConfig, pool_windows
from perfbench.workloads import forward_flop

DIMS = DimOverrides(width=16, factor_width=16, inner_dim=8, pool_width=16, branch_dim=8,
                    embed_dim=8)


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_forward_flop_counts_a_training_forward(arch):
    net = initialize_network(build_architecture(arch, 3, dims=DIMS), seed=0)
    rng = np.random.default_rng(1)
    seqs = [rng.normal(size=(n, 23)) for n in (120, 96)]
    cfg = TrainConfig()
    windows = [(i, pool_windows(s.shape[0], cfg)) for i, s in enumerate(seqs)]
    res = forward_batch(net, seqs, windows=windows)
    flop = forward_flop(net.spec, res.values)
    assert math.isfinite(flop) and flop > 0
    # every product is counted: the first layer alone, a 5-frame splice of
    # 23 dims onto `width` outputs over the valid rows of both sequences
    assert flop > 2 * (120 + 96 - 2 * 4) * 5 * 23 * DIMS.width

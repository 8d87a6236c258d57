"""The benchmark's reads of diarkit internals, kept working by tier-1.

perfbench counts the matrix-product flops of every traced training forward
from the network spec's layer fields (``workloads.forward_flop``), runs each
stage through the CLI's argument parser (``workloads.stage_argv``), and times
the functions its probes name (``workloads.PROBES``). A change that breaks
one of these reads, such as dropping an option a stage passes or renaming a
probed function, fails here, not first in a benchmark run.
"""

import importlib
import math

import numpy as np
import pytest

from diarkit import cli
from diarkit.network import DimOverrides, build_architecture, forward_batch, initialize_network
from diarkit.network.architectures import ARCH_NAMES
from diarkit.training import TrainConfig, pool_windows
from perfbench.workloads import PROBES, WORKLOADS, forward_flop, stage_argv

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


@pytest.mark.parametrize("workload,stage", [
    pytest.param(w.name, stage, id=f"{w.name}-{stage}")
    for w in WORKLOADS.values() for stage in ("synth", *w.setup, *w.timed)])
def test_every_stage_command_line_is_accepted(tmp_path, workload, stage):
    w = WORKLOADS[workload]
    argv = stage_argv(w, stage, 2, str(tmp_path / "setup"), str(tmp_path / "out"), w.timed)
    ns = cli._build_parser().parse_args(argv)
    assert cli._finalize(ns.command, ns).command == stage


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: f"{p.module}.{p.attribute}")
def test_every_probe_names_an_attribute(probe):
    assert hasattr(importlib.import_module(probe.module), probe.attribute)

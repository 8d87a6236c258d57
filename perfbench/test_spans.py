"""Tests of the benchmark's span recorder and call-site instrumentation."""

import importlib
import sys
import types

import numpy as np
import pytest

from perfbench.spans import Probe, Tracer, instrumented
from perfbench.workloads import PROBES, layer_metrics, stage_closure


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    names = [s.name for s in tracer.spans]
    assert names == ["root", "a", "b", "c"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert dict(zip(names, tracer.self_times())) == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert stage_closure({"spans": tracer.to_records(),
                          "self_s": tracer.self_times()}) == {"root": 0.0}


def test_span_closes_when_the_body_raises():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise ValueError("boom")
    assert [(s.start, s.end) for s in tracer.spans] == [(0.0, 3.0), (1.0, 2.0)]


@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake_module")
    module.double = lambda x: 2 * x
    module.pair = lambda x, y=0: (x, y)
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_wrapped_functions_return_the_same_values(fake_module):
    probes = (Probe(fake_module.__name__, "double", "fake.double",
                    lambda t, a, k, r: t.count("fake.doubled", r)),
              Probe(fake_module.__name__, "pair", "fake.pair"))
    tracer = Tracer()
    marker = object()
    with instrumented(tracer, probes):
        assert fake_module.double(21) == 42
        assert fake_module.pair(marker, y=marker) == (marker, marker)
    assert [s.name for s in tracer.spans] == ["fake.double", "fake.pair"]
    assert tracer.counters == {"fake.doubled": 42}


def test_wrapped_pipeline_call_gives_identical_labels():
    from diarkit import clustering

    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 4))
    scores = x @ x.T
    expected = clustering.ahc(scores, oracle_k=3)
    tracer = Tracer()
    with instrumented(tracer, PROBES):
        labels = clustering.ahc(scores, oracle_k=3)
    np.testing.assert_array_equal(labels, expected)
    metrics = layer_metrics({"spans": tracer.to_records(), "self_s": tracer.self_times(),
                             "counters": tracer.counters})
    assert metrics["clustering.merge_sequence.calls"] == 1
    assert metrics["clustering.merge_sequence.max_n"] == 30
    assert metrics["clustering.merge_sequence.self_s"] > 0


def test_every_wrapped_name_is_restored_after_the_traced_run():
    originals = {(p.module, p.attribute): getattr(importlib.import_module(p.module), p.attribute)
                 for p in PROBES}
    with pytest.raises(RuntimeError):
        with instrumented(Tracer(), PROBES):
            for (module, attribute), fn in originals.items():
                assert getattr(importlib.import_module(module), attribute) is not fn
            raise RuntimeError("a stage failed")
    for (module, attribute), fn in originals.items():
        assert getattr(importlib.import_module(module), attribute) is fn, f"{module}.{attribute}"

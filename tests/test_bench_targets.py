"""Every name the traced benchmark wraps (bench/tracing.py TARGETS) still
exists, so deleting or renaming one fails here rather than in a traced
benchmark run, and the recurrent spans still record each layer call."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from sidewatch.nn import GRU, Bidirectional, Sequential

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    name = "_bench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _resolves(module_name: str, attr: str) -> bool:
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".", 1)
        cls = getattr(module, cls_name, None)
        return cls is not None and callable(vars(cls).get(method))
    return callable(getattr(module, attr, None))


def test_every_traced_name_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    missing = [f"{module}.{attr}" for module, attr, _, _ in targets
               if not _resolves(module, attr)]
    assert missing == []


def test_traced_recurrent_spans_fire_once_per_layer_call():
    # A delegation that bypassed the per-class methods would still pass the
    # name check above but leave the nn.GRU.* / nn.LSTM.* spans empty.
    rng = np.random.default_rng(0)
    nets = [Sequential([GRU(3, 4, return_sequences=True, rng=rng), GRU(4, 2, rng=rng)]),
            Sequential([Bidirectional("lstm", 3, 2, rng=rng)])]
    x = rng.normal(size=(2, 5, 3))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        for net in nets:
            y, caches = net.forward(x, mode="train")
            net.backward(caches, np.ones_like(y))
    finally:
        tracer.uninstall()
    counts = {key: sum(s.key == key for s in tracer.spans)
              for key in ("nn.GRU.forward", "nn.GRU.backward",
                          "nn.LSTM.forward", "nn.LSTM.backward")}
    assert counts == dict.fromkeys(counts, 2)

"""Every name the traced benchmark wraps (bench/tracing.py TARGETS) and
every sidewatch name the benchmark's stages use still exists, so deleting
or renaming one fails here rather than in a benchmark run, and the
recurrent spans still record each layer call."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from sidewatch.nn import GRU, Bidirectional, Sequential

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
# The sidewatch modules the benchmark scripts may read names from.
MODULES = ("models", "featurize", "telemetry", "evalharness", "detector", "synthgen", "cli")


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


def _sidewatch_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each name *path* reads from a sidewatch module:
    `m.name` after `from sidewatch import m` (m one of MODULES), and each
    name of `from sidewatch.<module> import name`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "sidewatch":
            bound.update({a.asname or a.name: f"sidewatch.{a.name}"
                          for a in node.names if a.name in MODULES})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sidewatch."):
            names += [(node.module, a.name) for a in node.names]
    names += [(bound[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound]
    return names


@pytest.mark.parametrize("script", ["stages.py", "run.py"])
def test_every_sidewatch_name_the_bench_uses_resolves(script):
    names = _sidewatch_names(BENCH / script)
    if script == "stages.py":
        assert ("sidewatch.models", "RowStreamPredictor") in names
    missing = [f"{module}.{name}" for module, name in sorted(set(names))
               if not hasattr(importlib.import_module(module), name)]
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

"""Every name the traced benchmark wraps (bench/tracing.py TARGETS) and
every sidewatch name the benchmark's stages use still exists, every call
they make to sidewatch still binds to its signature, and every flag they
pass to `sidewatch` is still accepted, so deleting, renaming or
re-signing one fails here rather than in a benchmark run; the recurrent
spans still record each layer call and the conv meters still read a
real Conv1D call and cache."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from sidewatch import cli
from sidewatch.nn import GRU, Bidirectional, Conv1D, Dense, GlobalMaxPool1D, Sequential

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


def _key(node):
    """A name or `self.<attr>` expression as text, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return f"self.{node.attr}"
    return None


def _sidewatch_calls(path: Path):
    """(call node, callable, positional count, keyword names) for each call *path*
    makes to sidewatch: `m.f(...)` with m a sidewatch module, `f(...)` with f
    imported from one, and `x.method(...)` with x (a name or self attribute)
    assigned an instance of one sidewatch class only. A method's count
    includes self."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}  # local name -> sidewatch module or object
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sidewatch":
            module = importlib.import_module(node.module)
            for a in node.names:
                bound[a.asname or a.name] = getattr(module, a.name, None) or \
                    importlib.import_module(f"{node.module}.{a.name}")

    def target(func):
        if isinstance(func, ast.Name):
            return bound.get(func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and inspect.ismodule(bound.get(func.value.id)):
            return getattr(bound[func.value.id], func.attr)
        return None

    classes = {}  # name or self attribute -> the sidewatch classes assigned to it
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            made = target(node.value.func)
            for key in map(_key, node.targets):
                if key is not None and inspect.isclass(made):
                    classes.setdefault(key, set()).add(made)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, extra = target(node.func), 0
        if func is None and isinstance(node.func, ast.Attribute):
            owners = classes.get(_key(node.func.value), ())
            if len(owners) == 1:
                func, extra = getattr(next(iter(owners)), node.func.attr), 1
        if func is None or inspect.ismodule(func):
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
        assert all(k.arg is not None for k in node.keywords), ast.unparse(node)
        calls.append((node, func, len(node.args) + extra, [k.arg for k in node.keywords]))
    return tree, calls


@pytest.mark.parametrize("script", ["stages.py", "run.py"])
def test_every_sidewatch_call_the_bench_makes_binds(script):
    _, calls = _sidewatch_calls(BENCH / script)
    if script == "stages.py":
        made = {ast.unparse(node.func) for node, *_ in calls}
        assert {"detector.classify_file", "detector.stream_step", "predictor.push",
                "cli.main"} <= made
    unbound = []
    for node, func, positional, keywords in calls:
        try:
            inspect.signature(func).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{ast.unparse(node)}: {exc}")
    assert unbound == []


@pytest.mark.parametrize("script", ["stages.py", "run.py"])
def test_every_flag_the_bench_passes_to_sidewatch_is_accepted(script):
    tree, calls = _sidewatch_calls(BENCH / script)
    lists = {}  # name -> the list literals assigned to it
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List):
            for key in map(_key, node.targets):
                lists.setdefault(key, []).append(node.value)
    argvs = []
    for node, func, *_ in calls:
        if func is cli.main:
            arg, = node.args
            argvs += [arg] if isinstance(arg, ast.List) else lists[_key(arg)]
    if script == "stages.py":
        assert argvs
    sub, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    refused = []
    for argv in argvs:
        words = [e.value for e in argv.elts if isinstance(e, ast.Constant)]
        accepted = {s for a in sub.choices[words[0]]._actions for s in a.option_strings}
        refused += [f"{words[0]} {w}" for w in words if w.startswith("--") and w not in accepted]
    assert refused == []


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


def test_conv_meters_read_a_real_conv_call_and_cache():
    # The meters read the input's shape and the train-mode cache's im2col
    # ("cols"); a change to either would break a traced run (--trace 1).
    rng = np.random.default_rng(1)
    conv = Conv1D(3, 4, 5, "tanh", rng=rng)
    net = Sequential([conv, GlobalMaxPool1D(), Dense(4, 1, "sigmoid", rng=rng)])
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        for x in (rng.normal(size=(12, 3)), rng.normal(size=(2, 12, 3))):
            y, caches = net.forward(x, mode="train")
            net.backward(caches, np.ones_like(y), need_input_grad=False)
            y, cache = conv.forward(x, mode="train")
            conv.backward(cache, np.ones_like(y))
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s.key.startswith("nn.Conv1D.")]
    assert sorted({s.key for s in spans}) == ["nn.Conv1D.backward", "nn.Conv1D.forward"]
    assert len(spans) == 8
    assert all(np.isfinite(s.flop) and s.flop > 0 and np.isfinite(s.nbytes) for s in spans)

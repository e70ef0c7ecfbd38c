"""Every name the traced benchmark wraps (bench/tracing.py TARGETS) still
exists, so deleting or renaming one fails here rather than in a traced
benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

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

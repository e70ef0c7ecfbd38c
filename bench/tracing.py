"""Spans for the traced run, recorded from the benchmark side.

``Tracer.install()`` replaces each public function or method named in
``TARGETS`` with a timing wrapper: a function in its defining module and
in every sidewatch module that imported it by name, a method on its
class. ``uninstall()`` puts the originals back. Nothing under ``src/``
is edited, and an untraced run never installs a wrapper.

Each span carries the benchmark's current *region* (the stage running:
``ingest``, ``train`` or ``detect``) and *tag* (what the stage is doing:
``fit:<family>``, ``eval``, ``lib``, ``cli``, ``dirty`` or ``check``), so
per-layer figures can be taken from the workload's own stage and leave
out reference computations done only to check outputs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    key: str
    start: float
    end: float
    parent: int | None
    region: str | None
    tag: str | None
    flop: float = 0.0     # computed from shapes, never measured
    nbytes: float = 0.0   # computed from shapes, never measured

    @property
    def dur(self) -> float:
        return self.end - self.start


def _conv_forward_meter(args, kwargs, out):
    layer, x = args[0], args[1]
    shape = getattr(x, "shape", ())
    B, T = (1, shape[0]) if len(shape) == 2 else (shape[0], shape[1])
    P = T - layer.kernel_size + 1
    kc = layer.kernel_size * layer.in_channels
    # One [B*P, k*C] x [k*C, filters] GEMM over a materialized im2col matrix.
    return 2.0 * B * P * kc * layer.filters, 8.0 * B * P * kc


def _conv_backward_meter(args, kwargs, out):
    layer, cache = args[0], args[1]
    B, P, kc = cache["cols"].shape
    need_input_grad = kwargs.get("need_input_grad", args[3] if len(args) > 3 else True)
    gemms = 2 if need_input_grad else 1  # dW always; d(cols) only with the input grad
    return gemms * 2.0 * B * P * kc * layer.filters, 0.0


# (module, attribute, span key, meter). Methods are "Class.method".
TARGETS = (
    ("sidewatch.synthgen", "generate_benign_trace", "synthgen.trace", None),
    ("sidewatch.synthgen", "generate_malicious_trace", "synthgen.trace", None),
    ("sidewatch.telemetry", "write_trace_csv", "telemetry.write_trace_csv", None),
    ("sidewatch.telemetry", "build_manifest", "telemetry.build_manifest", None),
    ("sidewatch.telemetry", "parse_trace_csv", "telemetry.parse_trace_csv", None),
    ("sidewatch.featurize", "make_branch_set", "featurize.make_branch_set", None),
    ("sidewatch.featurize", "make_row_windows", "featurize.make_row_windows", None),
    ("sidewatch.nn.layers", "Conv1D.forward", "nn.Conv1D.forward", _conv_forward_meter),
    ("sidewatch.nn.layers", "Conv1D.backward", "nn.Conv1D.backward", _conv_backward_meter),
    ("sidewatch.nn.layers", "GlobalMaxPool1D.forward", "nn.GlobalMaxPool1D.forward", None),
    ("sidewatch.nn.layers", "GlobalMaxPool1D.backward", "nn.GlobalMaxPool1D.backward", None),
    ("sidewatch.nn.layers", "Dense.forward", "nn.Dense.forward", None),
    ("sidewatch.nn.layers", "Dense.backward", "nn.Dense.backward", None),
    ("sidewatch.nn.recurrent", "GRU.forward", "nn.GRU.forward", None),
    ("sidewatch.nn.recurrent", "GRU.backward", "nn.GRU.backward", None),
    ("sidewatch.nn.recurrent", "LSTM.forward", "nn.LSTM.forward", None),
    ("sidewatch.nn.recurrent", "LSTM.backward", "nn.LSTM.backward", None),
    ("sidewatch.nn.optim", "Adam.step", "nn.Adam.step", None),
    ("sidewatch.nn.optim", "RMSprop.step", "nn.RMSprop.step", None),
    ("sidewatch.nn.network", "evaluate_loss", "nn.evaluate_loss", None),
    ("sidewatch.models", "predict_rows", "models.predict_rows", None),
    ("sidewatch.models", "RowStreamPredictor.push", "models.RowStreamPredictor.push", None),
    ("sidewatch.models", "save_model", "models.save_model", None),
    ("sidewatch.models", "load_model", "models.load_model", None),
    ("sidewatch.detector", "stream_step", "detector.stream_step", None),
    ("sidewatch.detector", "classify_file", "detector.classify_file", None),
    ("sidewatch.evalharness", "evaluate_model", "evalharness.evaluate_model", None),
)


class Tracer:
    """In-memory span recorder; a no-op until install() is called."""

    def __init__(self):
        self.spans: list[Span] = []
        self.region: str | None = None
        self.tag: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def scope(self, region: str | None = None, tag: str | None = None):
        """Label spans opened inside the block; None keeps the outer label."""
        saved = self.region, self.tag
        self.region = region if region is not None else self.region
        self.tag = tag if tag is not None else self.tag
        try:
            yield
        finally:
            self.region, self.tag = saved

    @contextmanager
    def record(self, key: str):
        """A span around a block of benchmark code, when installed."""
        if not self._restore:
            yield
            return
        span = self._open(key)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, key: str) -> Span:
        span = Span(key, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.region, self.tag)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, key: str, meter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(key)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if meter is not None:
                span.flop, span.nbytes = meter(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        if self._restore:
            return
        loaded = [m for name, m in sys.modules.items()
                  if name == "sidewatch" or name.startswith("sidewatch.")]
        for modname, attr, key, meter in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, key, meter))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, key, meter)
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # --- queries used by the per-layer metrics ---------------------------------

    def select(self, key: str, region: str, tag=None) -> list[Span]:
        """Spans of *key* in *region* with tag *tag*; with tag None, every tag
        except ``check`` and ``dirty`` (the dirty parse has its own metric)."""
        return [s for s in self.spans
                if s.key == key and s.region == region
                and (s.tag == tag if tag is not None else s.tag not in ("check", "dirty"))]

    def children(self, parent_key: str, region: str, child_keys: tuple[str, ...]):
        """(parent spans, summed duration of their direct children in child_keys)."""
        wanted = {i for i, s in enumerate(self.spans)
                  if s.key == parent_key and s.region == region}
        covered = sum(s.dur for s in self.spans
                      if s.parent in wanted and s.key in child_keys)
        return [self.spans[i] for i in sorted(wanted)], covered

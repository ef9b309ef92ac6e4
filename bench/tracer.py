"""Span tracer that wraps fpq's public functions from outside the package.

Each public function defined in an ``fpq`` module is wrapped once, and every
``fpq.*`` module global that holds it is rebound to the wrapper: ``galt``,
``quantize``, ``hwemu`` and ``cli`` import functions by name, so patching
only the defining module would miss their calls.  The quantize module is
reached through ``sys.modules["fpq.quantize"]`` because the package
attribute ``fpq.quantize`` is the function of that name.

Spans carry name, start, end, parent and pass id, stay in memory, and are
written out by the caller when the run ends.  ``restore`` puts the
original functions back.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

LAYERS = ("formats", "quantize", "hadamard", "galt", "hwemu", "tensorfile", "cli", "synth")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    pass_id: object
    elems: int = 0  # input elements handled by the call
    nbytes: int = 0  # file bytes read or written
    units: int = 0  # multiply-accumulates (emu_gemm), tensors (dfq_search_format)


def _array_elements(args, kwargs) -> int:
    return sum(a.size for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray))


def _meter_dequantize(span, args, kwargs, result):
    q = args[0]
    span.elems = (q.codes if hasattr(q, "codes") else q.neg_codes).size


def _meter_emu_gemm(span, args, kwargs, result):
    xq, wq = args[0], args[1]
    out_features, cols = wq.codes.shape
    span.elems = xq.shape[0] * cols
    span.units = xq.shape[0] * out_features * cols


def _meter_search(span, args, kwargs, result):
    calib = list(args[0])
    span.elems = sum(np.size(t) for t in calib)
    span.units = len(calib)


def _meter_file(span, args, kwargs, result):
    span.nbytes = os.stat(kwargs.get("path", args[0] if args else None)).st_size


def _meter_default(span, args, kwargs, result):
    span.elems = _array_elements(args, kwargs)


_METERS = {
    "quantize.dequantize": _meter_dequantize,
    "hwemu.emu_gemm": _meter_emu_gemm,
    "quantize.dfq_search_format": _meter_search,
    "tensorfile.read_tensor": _meter_file,
    "tensorfile.write_tensor": _meter_file,
}


class Tracer:
    """Records spans while ``pass_id`` is not None; wrappers are installed
    with ``install`` and removed with ``restore``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.pass_id: object = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.pass_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark-side code, e.g. one CLI invocation."""
        if self.pass_id is None:
            yield None
            return
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        meter = _METERS.get(name, _meter_default)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.pass_id is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            meter(tracer.spans[idx], args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the fpq layers and rebind each
        fpq module global that holds one."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"fpq.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "fpq" and not modname.startswith("fpq."):
                continue
            for key, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
                    self._patched.append((mod, key, value))

    def restore(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write the spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(s)}, default=str) + "\n")


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(s.start, s.end, children.get(i, ()))
        for i, s in enumerate(spans)
    ]


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0  # full span durations, children included
    elems: int = 0
    nbytes: int = 0
    units: int = 0


def totals(spans: list[Span], phase) -> dict[str, LayerTotals]:
    """Per-span-name totals over the spans whose pass id satisfies ``phase``."""
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s, own in zip(spans, self_times(spans)):
        if not phase(s.pass_id):
            continue
        t = out[s.name]
        t.calls += 1
        t.self_s += own
        t.incl_s += s.end - s.start
        t.elems += s.elems
        t.nbytes += s.nbytes
        t.units += s.units
    return out


def descendants_named(spans: list[Span], ancestor: str, name: str, phase) -> int:
    """Count spans called ``name``, with a pass id satisfying ``phase``,
    that run inside a span called ``ancestor``."""
    count = 0
    for s in spans:
        if s.name != name or not phase(s.pass_id):
            continue
        p = s.parent
        while p >= 0 and spans[p].name != ancestor:
            p = spans[p].parent
        count += p >= 0
    return count

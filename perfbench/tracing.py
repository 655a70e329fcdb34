"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each traced public function of the ``usc``
package by a wrapper, at every ``usc`` module attribute that holds it: that
is the name through which each caller looks the function up, so calls made
inside the package are seen too. ``uninstall`` puts the original objects
back. Only the traced run installs a tracer; the untraced run never imports
this module.

For the layers in READ_MEASURED the tracer also measures the bytes the
process reads from files during each call, from the ``rchar`` counter of
``/proc/self/io`` (Linux).

A span is (layer, start, end, parent span). Spans are appended to flat
arrays in memory and written once, by ``write``, when the traced command has
finished. A layer's self time is its span time minus the time of its child
spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from typing import Dict, List, Tuple

#: Functions that get a span, as (module, attribute) of their definition.
SPANNED = (
    ("cli", "cmd_eval"),
    ("cli", "cmd_loss"),
    ("io", "load_dataset"),
    ("io", "write_report"),
    ("io", "format_report_table"),
    ("evaluation", "evaluate"),
    ("evaluation", "average_precision"),
    ("evaluation", "tp_error_means"),
    ("evaluation", "aggregate_usc"),
    ("constraints", "usc_score"),
    ("constraints", "representative_points"),
    ("geometry", "project_pv_rect"),
    ("geometry", "project_bev"),
    ("geometry", "segments_intersect"),
    ("geometry", "iogt3d"),
    ("loss", "smooth_l1"),
    ("loss", "iogt_loss"),
    ("loss", "safety_loss"),
)

#: Functions too small and too frequent for a span: only their calls are
#: counted, and their time stays in the caller's self time.
COUNTED = (
    ("evaluation", "bev_center_distance"),
)

#: Spanned layers whose file reads are measured, in bytes.
READ_MEASURED = ("io.load_dataset",)

LAYERS = tuple(f"{m}.{a}" for m, a in SPANNED)
COUNTED_LAYERS = tuple(f"{m}.{a}" for m, a in COUNTED)


def _rchar() -> Tuple[int, int]:
    """Bytes this process has read so far, and the bytes this call read.

    The kernel adds a read to ``rchar`` once the read has returned, so the
    value a call sees leaves out its own read, and the next call's value
    includes it.
    """
    with open("/proc/self/io", "rb") as handle:
        text = handle.read()
    for line in text.splitlines():
        key, _, value = line.partition(b":")
        if key == b"rchar":
            return int(value), len(text)
    raise OSError("no rchar in /proc/self/io")


class Tracer:
    """Records spans and counts for the layers in SPANNED and COUNTED."""

    def __init__(self):
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        #: (layer, exception class name) -> times the layer raised it.
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()
        #: layer -> bytes read from files inside its calls.
        self.bytes_read: Counter = Counter()
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    def _span_wrapper(self, index: int, fn):
        layer, start, end, parent = self.layer, self.start, self.end, self.parent
        stack, raised, clock = self._stack, self.raised, time.perf_counter
        name = LAYERS[index]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            layer.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised[name, type(exc).__name__] += 1
                raise
            finally:
                end[span] = clock()
                stack.pop()
        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _read_wrapper(self, name: str, fn):
        bytes_read = self.bytes_read

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            before, own = _rchar()
            try:
                return fn(*args, **kwargs)
            finally:
                after, _ = _rchar()
                bytes_read[name] += after - before - own
        return measured

    def install(self) -> None:
        """Wrap every traced function wherever a ``usc`` module holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, _ in SPANNED + COUNTED:
            importlib.import_module(f"usc.{module_name}")
        modules = [module for name, module in sorted(sys.modules.items())
                   if module is not None
                   and (name == "usc" or name.startswith("usc."))]
        for index, (module_name, attr) in enumerate(SPANNED + COUNTED):
            original = getattr(sys.modules[f"usc.{module_name}"], attr)
            name = f"{module_name}.{attr}"
            if index >= len(SPANNED):
                wrapper = self._count_wrapper(name, original)
            elif name in READ_MEASURED:
                wrapper = self._span_wrapper(
                    index, self._read_wrapper(name, original))
            else:
                wrapper = self._span_wrapper(index, original)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original function object."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        """Write the recorded spans and counts in one go."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "layers": list(LAYERS),
                "layer": self.layer.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "raised": [[n, e, c] for (n, e), c in sorted(self.raised.items())],
                "counts": dict(sorted(self.counts.items())),
                "bytes_read": dict(sorted(self.bytes_read.items())),
            }, handle)


def read(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def layer_totals(trace: dict, scale: float = 1.0) -> Dict[str, dict]:
    """Per layer: calls, total (inclusive) seconds and self seconds, with
    every duration multiplied by ``scale``."""
    starts, ends, parents = trace["start"], trace["end"], trace["parent"]
    durations = [(e - s) * scale for s, e in zip(starts, ends)]
    child = [0.0] * len(durations)
    for span, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += durations[span]
    totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
              for name in trace["layers"]}
    for span, index in enumerate(trace["layer"]):
        entry = totals[trace["layers"][index]]
        entry["calls"] += 1
        entry["total_s"] += durations[span]
        entry["self_s"] += durations[span] - child[span]
    return totals

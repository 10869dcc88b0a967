"""Span tracer that wraps tiresense's public functions from outside the package.

Every public function defined in a layer module is replaced, at every name
that binds it inside the package (including ``from``-import aliases such as
``features.segment_turns`` and ``cli.read_trace``), by a wrapper that records
a span.  ``uninstall`` puts the original objects back, so untraced runs
execute the unmodified code.

A span is ``[name, start_ns, end_ns, parent_index]``; spans stay in memory
until the run ends.  Work is grouped under root spans opened with
``root(label)``, and ``summary(root_index)`` gives each function's self time
(its span minus the part its child spans cover) and call count under that
root, plus the counters the hooks recorded there.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "tiresense"
LAYERS = ("simulate", "io", "dsp", "features", "estimation", "cli")
HOOK_SPAN = "trace.hooks"


def layer_functions() -> dict:
    """Map each public function object of the layer modules to 'layer.name'.

    ``tiresense.simulate`` is the function re-exported by the package, so the
    module is taken from ``sys.modules``.
    """
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                found[obj] = f"{layer}.{attr}"
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._roots: list[int] = []
        self._counts: dict[int, defaultdict] = {}
        # trace object id -> (trace, truth), for the segment-centring check
        self._truth: dict[int, tuple] = {}
        self._hooks = {
            "io.read_trace": self._on_read_trace,
            "io.write_trace": self._on_write_trace,
            "simulate.simulate": self._on_simulate,
            "dsp.segment_turns": self._on_segment_turns,
            "features.extract_features": self._on_extract_features,
            "estimation.estimate_load_stream": self._on_load_stream,
        }

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            return
        wrappers = {fn: self._wrap(name, fn) for fn, name in layer_functions().items()}
        prefix = PACKAGE + "."
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(prefix):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @property
    def binding_sites(self) -> list[str]:
        return sorted(f"{m.__name__}.{a}" for m, a, _ in self._patched)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                # The hook's own time is a span of its own, so it is not
                # charged to the caller's self time.
                hook_index = len(spans)
                spans.append([HOOK_SPAN, clock(), 0, stack[-1] if stack else -1])
                hook(args, kwargs, result)
                spans[hook_index][2] = clock()
            return result

        return traced

    # -- roots and counters ------------------------------------------------

    @contextmanager
    def root(self, label: str):
        """Group the spans of one unit of work (a set-up or a pass)."""
        index = len(self.spans)
        self.spans.append([label, time.perf_counter_ns(), 0, -1])
        self._stack.append(index)
        self._roots.append(index)
        self._counts[index] = defaultdict(float)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()
            self._truth.clear()

    def _count(self, key: str, value: float) -> None:
        if self._stack:
            self._counts[self._stack[0]][key] += value

    def _on_read_trace(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        sidecar = os.path.splitext(os.fspath(path))[0] + ".json"
        self._count("io.read_trace.bytes", os.path.getsize(path) + os.path.getsize(sidecar))
        trace, truth = result[0], result[1]
        self._truth[id(trace)] = (trace, truth)

    def _on_write_trace(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self._count("io.write_trace.bytes", os.path.getsize(path) + os.path.getsize(result))

    def _on_simulate(self, args, kwargs, result):
        trace, truth = result
        self._truth[id(trace)] = (trace, truth)

    def _on_segment_turns(self, args, kwargs, result):
        trace = args[0] if args else kwargs["trace"]
        known = self._truth.get(id(trace))
        if known is None:
            return
        truth = known[1]
        fs = trace.sample_rate
        centres = (truth.turn_start_time_s + truth.wheel_period_s / 2.0) * fs
        half_patch = truth.contact_half_angle_rad / (2.0 * np.pi) * truth.wheel_period_s * fs
        mids = np.array([(s.start_index + s.end_index) / 2.0 for s in result])
        nearest = np.abs(mids[:, None] - centres[None, :]).argmin(axis=1)
        off = np.abs(mids - centres[nearest])
        self._count("dsp.segments", len(result))
        self._count("dsp.segments_centered", int(np.sum(off <= half_patch[nearest])))

    def _on_extract_features(self, args, kwargs, result):
        rows, skipped = result
        ok = sum(
            1
            for r in rows
            if np.isfinite(r.peak_radial_displacement)
            and np.isfinite(r.peak_lateral_displacement)
        )
        self._count("features.turns", len(rows))
        self._count("features.skipped_turns", skipped)
        self._count("features.ok_turns", ok)

    def _on_load_stream(self, args, kwargs, result):
        self._count("estimation.turns", len(result.valid))
        self._count("estimation.valid_turns", int(np.sum(result.valid)))

    # -- summaries ---------------------------------------------------------

    def summary(self, root_index: int) -> dict:
        """Self time, inclusive time and calls per function under one root."""
        spans = self.spans
        following = [r for r in self._roots if r > root_index]
        stop = following[0] if following else len(spans)
        _, root_start, root_end, _ = spans[root_index]
        # spans recorded after the root closed belong to no root
        inside = [
            i for i in range(root_index + 1, stop)
            if root_start <= spans[i][1] and spans[i][2] <= root_end
        ]
        child_ns = defaultdict(int)
        for i in inside:
            _, start, end, parent = spans[i]
            child_ns[parent] += end - start
        per_fn: dict[str, dict] = defaultdict(lambda: {"self_ns": 0, "total_ns": 0, "calls": 0})
        for i in inside:
            name, start, end, _ = spans[i]
            entry = per_fn[name]
            entry["self_ns"] += end - start - child_ns[i]
            entry["total_ns"] += end - start
            entry["calls"] += 1
        return {
            "spans": len(inside),
            "functions": dict(per_fn),
            "counts": dict(self._counts[root_index]),
        }

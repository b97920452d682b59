"""Span recorder for the traced run.

The recorder wraps public functions of rftwin modules from outside the
library.  ``simulate_cir`` looks up ``snapshot``, ``trace_*`` and
``amplitudes_of`` through the ``rftwin.channel`` globals, and the CLI
handlers import their functions from the modules when they run, so
replacing the module attributes catches every call without editing the
library.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from pathlib import Path

# (module, attribute) -> layer span name.  The layer is the rftwin module
# that implements the function.
TRACED = {
    ("rftwin.scene", "load_scene"): "scene.load_scene",
    ("rftwin.channel", "snapshot"): "kinematics.snapshot",
    ("rftwin.channel", "trace_los"): "raytrace.los",
    ("rftwin.channel", "trace_specular"): "raytrace.specular",
    ("rftwin.channel", "trace_diffuse"): "raytrace.diffuse",
    ("rftwin.channel", "amplitudes_of"): "em.amplitudes",
    ("rftwin.channel", "simulate_cir"): "channel.simulate",
    ("rftwin.channel", "save_cir"): "channel.save_cir",
    ("rftwin.channel", "load_cir"): "channel.load_cir",
    ("rftwin.channel", "cir_to_csv"): "channel.cir_to_csv",
    ("rftwin.fmcw", "synth_beat"): "fmcw.synth",
    ("rftwin.fmcw", "pdp_series"): "fmcw.pdp",
    ("rftwin.fmcw", "delay_doppler"): "fmcw.delay_doppler",
    ("rftwin.fmcw", "predicted_map"): "fmcw.predicted_map",
    ("rftwin.fmcw", "save_map"): "fmcw.save_map",
    ("rftwin.fmcw", "save_pdp"): "fmcw.save_pdp",
    ("rftwin.fmcw", "load_map"): "fmcw.load_map",
    ("rftwin.fmcw", "map_to_csv"): "fmcw.map_to_csv",
    ("rftwin.fmcw", "map_to_pgm"): "fmcw.map_to_pgm",
    ("rftwin.fmcw", "pdp_to_csv"): "fmcw.pdp_to_csv",
    ("rftwin.analysis", "match_maps"): "analysis.match_maps",
}


class SpanRecorder:
    """Nested spans of one thread: name, parent, root command, start, end."""

    def __init__(self):
        self.spans: list[list] = []     # [name, parent index, root, start, end]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack
        parent = stack[-1] if stack else -1
        root = self.spans[stack[0]][0] if stack else name
        record = [name, parent, root, time.perf_counter(), 0.0]
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            stack.pop()

    def current(self) -> int:
        """Index of the innermost open span, -1 outside every span."""
        return self._stack[-1] if self._stack else -1

    def wrap(self, name: str, fn):
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every TRACED attribute by a span wrapper while active."""
        saved = []
        try:
            for (module_name, attr), name in TRACED.items():
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Self seconds per span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, _, _, start, end) in enumerate(self.spans)]

    def dump(self, path: Path) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [{"name": n, "parent": p, "root": r,
                 "start_s": s - t0, "end_s": e - t0}
                for n, p, r, s, e in self.spans]
        path.write_text(json.dumps(rows) + "\n")

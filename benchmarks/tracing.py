"""Layer spans recorded from outside the program.

The traced run wraps module-level functions and methods of ``muse``
where their callers look them up: ``from .consumption import
compute_maps`` binds a name in each importing module, so that name is
patched in every module that calls it.  Each call of a wrapped function
records one span ``(id, name, start, end, parent, op)``; spans stay in
memory and are written out when the run ends.

A span's self time is its duration minus the part of its interval that
its child spans cover.  A layer's time is the sum of the self times of
its spans; the op's root span (``cli.op``) keeps the time no child
covers.  The engine evaluates large slices on worker threads started by
the main thread, which waits for them; a span that starts on a thread
with no open span is therefore parented to the span open on the main
thread.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

ROOT = "cli.op"

# (layer, function, modules or "module:Class" owners that look it up)
WRAPPED = (
    ("scenario_io.load", "load_scenario", ("muse.cli",)),
    ("scenario_io.export", "map_csv_text", ("muse.cli",)),
    ("scenario_io.export", "heatmap_text", ("muse.cli",)),
    ("scenario_io.read", "read_map_csv", ("muse.cli",)),
    ("model.validate", "validate_system", ("muse.cli",)),
    ("model.placement", "effective_positions", ("muse.model:RFSystem",)),
    ("grid.build", "__init__", ("muse.grid:SpectrumGrid",)),
    ("grid.neighbors", "neighbors", ("muse.grid:SpectrumGrid",)),
    ("consumption.setup", "interference_margin", ("muse.consumption",)),
    ("consumption.setup", "_interference_at", ("muse.consumption",)),
    ("consumption.maps", "compute_maps", ("muse.cli", "muse.connectivity", "muse.smf", "muse.consumption")),
    ("consumption.maps", "_evaluate_grid_slice", ("muse.consumption",)),
    ("consumption.entity", "system_report", ("muse.cli",)),
    ("consumption.entity", "_tx_consumed", ("muse.consumption",)),
    ("consumption.entity", "_rx_consumed", ("muse.consumption",)),
    ("smf.compare", "compare_maps", ("muse.cli",)),
    ("connectivity.assess", "build_connectivity_map", ("muse.cli",)),
    ("connectivity.csv", "to_csv", ("muse.connectivity:ConnectivityMap",)),
)

LAYER_OF = {name: layer for layer, name, _ in WRAPPED} | {ROOT: "cli"}

# Counts taken from return values: span name -> (counter, value of result).
RESULT_COUNTS = {
    "map_csv_text": ("scenario_io.bytes_written", len),
    "heatmap_text": ("scenario_io.bytes_written", len),
    "read_map_csv": ("scenario_io.rows_read", lambda result: result["occupancy"].size),
    "build_connectivity_map": ("connectivity.edges", lambda result: len(result.edges)),
}


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs the wrappers; records spans and counts taken from return values."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # names the program no longer has
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._op: int | None = None
        self._wrappers = self._build_wrappers()

    # -- span recording ----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        result_count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self._op))
            if result_count is not None:
                counter, value = result_count
                self.counts[counter] += value(result)
            return result

        return traced

    def _build_wrappers(self) -> list[tuple]:
        """(owner, attribute, original, replacement) for every name found."""
        out = []
        for _, name, owners in WRAPPED:
            resolved = [_owner(spec) for spec in owners]
            originals = [vars(owner).get(name) for owner in resolved]
            if any(o is None for o in originals) or any(o is not originals[0] for o in originals):
                self.missing.append(name)
                continue
            original = originals[0]
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(self._wrap(name, original.func))
                replacement.__set_name__(resolved[0], name)
            else:
                replacement = self._wrap(name, original)
            out.extend((owner, name, original, replacement) for owner in resolved)
        return out

    @contextlib.contextmanager
    def op(self, index: int):
        """Wrappers installed and a root span open for the duration of one op."""
        for owner, name, _, replacement in self._wrappers:
            setattr(owner, name, replacement)
        self._op = index
        self._main_stack = self._stack()
        sid, start = next(self._ids), time.perf_counter()
        self._main_stack.append(sid)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._main_stack.pop()
            self.spans.append((sid, ROOT, start, end, None, index))
            for owner, name, original, _ in self._wrappers:
                setattr(owner, name, original)
            self._op = None

    # -- derived numbers ---------------------------------------------------

    def layer_times(self) -> dict[int, dict[str, float]]:
        """Per op, the sum of span self times per layer."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[int, Counter] = defaultdict(Counter)
        for sid, name, start, end, _, op in self.spans:
            totals[op][LAYER_OF[name]] += (end - start) - _covered(children.get(sid, ()), start, end)
        return totals

    def calls(self) -> Counter:
        """Number of spans per (op, name)."""
        return Counter((op, name) for _, name, _, _, _, op in self.spans)

    def write(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "layer": LAYER_OF[name], "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered

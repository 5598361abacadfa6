"""In-memory spans around the calls into each layer's public entry
points.

The benchmark adds no spans inside ``src/``: :meth:`Tracer.install`
replaces each entry point *where it is looked up* with a wrapper that
records a span (name, layer, start, end, parent) and calls the
original. Function-local imports (``from repro.core.profiler import
profile_program`` inside a function body) resolve the module attribute
at call time, so patching the defining module covers them; a name bound
at import time (``verify_revision`` in :mod:`repro.transform.pipeline`,
``compile_program`` in the lint and planner modules) is patched in the
module that bound it. :meth:`Tracer.uninstall` restores the originals.

The same wrappers also hand each call's result to the ``observers``
(the optimize workload reads its profiled runs' counters this way), so
they stay installed for untraced jobs too, with ``recording`` off.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: (entry point, layer, the modules whose attribute callers look up).
FUNCTION_ENTRY_POINTS = (
    ("compile_program", "mjava", (
        "repro.mjava.compiler", "repro.lint.passes", "repro.transform.dead_code",
        "repro.transform.lazy_alloc", "repro.transform.assign_null",
    )),
    ("run_program", "runtime", ("repro.runtime.engine",)),
    ("profile_program", "core", ("repro.core.profiler",)),
    ("read_log", "stream", ("repro.core.logfile",)),
    ("drag_report", "core", ("repro.core.report",)),
    ("lint_program", "lint", ("repro.lint",)),
    ("verify_revision", "transform", ("repro.transform.pipeline",)),
)
#: Classes are wrapped by a subclass whose constructor is timed, so
#: ``isinstance`` checks against the original still hold.
CLASS_ENTRY_POINTS = (
    ("DragAnalysis", "core", ("repro.core.analyzer",)),
)

Span = Tuple[int, Optional[int], str, str, float, float]  # id, parent, name, layer, start, end


class Tracer:
    """Spans kept in memory; written out once, when the run ends.
    While ``recording`` is off, spans are skipped but observers still
    see every result."""

    def __init__(self, recording: bool = True) -> None:
        self.recording = recording
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = defaultdict(int)
        #: Counts taken from results, by the ``observers`` callbacks.
        self.counts: Dict[str, int] = defaultdict(int)
        #: Entry point name -> callback given each call's return value.
        self.observers: Dict[str, Callable[[object], None]] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.recording:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, parent, name, layer, time.perf_counter(), 0.0))
        self._stack.append(span_id)
        self.calls[name] += 1
        try:
            yield
        finally:
            self._stack.pop()
            sid, parent, name, layer, start, _ = self.spans[span_id]
            self.spans[span_id] = (sid, parent, name, layer, start, time.perf_counter())

    # -- wrapping ---------------------------------------------------------

    def _wrap_function(self, original, name: str, layer: str):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name, layer):
                result = original(*args, **kwargs)
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(result)
            return result

        return traced

    def _wrap_class(self, original, name: str, layer: str):
        tracer = self

        class Traced(original):
            def __init__(self, *args, **kwargs):
                with tracer.span(name, layer):
                    super().__init__(*args, **kwargs)

        Traced.__name__ = original.__name__
        Traced.__qualname__ = original.__qualname__
        return Traced

    def install(self) -> None:
        if self._patches:
            return
        for entries, wrap in (
            (FUNCTION_ENTRY_POINTS, self._wrap_function),
            (CLASS_ENTRY_POINTS, self._wrap_class),
        ):
            for name, layer, modules in entries:
                original = getattr(importlib.import_module(modules[0]), name)
                wrapper = wrap(original, name, layer)
                for module_name in modules:
                    module = importlib.import_module(module_name)
                    self._patches.append((module, name, getattr(module, name)))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------

    def total(self, name: str, first: int = 0) -> float:
        """Summed duration of the spans called ``name``, from span
        number ``first`` on."""
        return sum(end - start for _, _, n, _, start, end in self.spans[first:]
                   if n == name)

    def self_times(self) -> Dict[str, float]:
        """Each layer's self time: its spans' durations minus the part
        their child spans cover (children of one span never overlap:
        the run is one thread)."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for sid, _, _, layer, start, end in self.spans:
            totals[layer] += (end - start) - child_time[sid]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {"spans": [
                    {"id": sid, "parent": parent, "name": name, "layer": layer,
                     "start": start, "end": end}
                    for sid, parent, name, layer, start, end in self.spans
                ]},
                f,
            )

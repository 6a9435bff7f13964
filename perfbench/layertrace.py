"""Layer tracer for the ``prodhls`` package, installed from outside it.

Every function named in a ``prodhls`` module's ``__all__`` is wrapped at
each binding of it in another ``prodhls`` module, so only calls that cross
a layer boundary pay for a span; calls inside one module stay unwrapped.
Public classmethods of the classes named in ``__all__`` (the alternate
constructors such as ``ExperimentConfig.from_dict``) are wrapped on the
class.  A public function added to a module later is traced without a
change here.

Spans are kept in memory and written once, by :meth:`LayerTracer.dump`.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from pathlib import Path


@dataclasses.dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    work: int = 0  # work units reported by the span's probe, 0 without one


class LayerTracer:
    """Records (layer, name, start, end, parent) spans at layer boundaries.

    ``probes`` maps ``(layer, name)`` to a callable that receives the
    traced call's arguments and returns the work the call is asked to do
    (a cell count, bytes computed from shapes, ...).
    """

    def __init__(self, clock=time.perf_counter, probes: dict | None = None):
        self.clock = clock
        self.probes = dict(probes or {})
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        probe = self.probes.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = probe(*args, **kwargs) if probe else 0
            span = Span(layer, name, self.clock(), 0.0,
                        self._stack[-1] if self._stack else -1, work)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()

        return traced

    def install(self) -> None:
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "prodhls"
                                           or name.startswith("prodhls."))}
        for mod_name, mod in modules.items():
            layer = mod_name.rpartition(".")[2]
            for public in getattr(mod, "__all__", ()):
                obj = getattr(mod, public, None)
                if getattr(obj, "__module__", None) != mod_name:
                    continue  # re-exported here, defined elsewhere
                if inspect.isfunction(obj):
                    traced = self.wrap(layer, public, obj)
                    for other_name, other in modules.items():
                        if other_name == mod_name:
                            continue
                        for attr, value in list(vars(other).items()):
                            if value is obj:
                                self._patch(other, attr, traced)
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not attr.startswith("_"):
                            self._patch(obj, attr, classmethod(
                                self.wrap(layer, f"{public}.{attr}", raw.__func__)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def self_times(self, first: int = 0, stop: int | None = None) -> list[float]:
        """Self time of each span in ``spans[first:stop]``: its duration
        minus the part of its interval that its child spans cover."""
        stop = len(self.spans) if stop is None else stop
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans[first:stop]:
            if span.parent >= first:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return [span.end - span.start
                - covered_length(children.get(i, []), span.start, span.end)
                for i, span in enumerate(self.spans[first:stop], start=first)]

    def dump(self, path: Path) -> None:
        fields = [f.name for f in dataclasses.fields(Span)]
        rows = [[getattr(s, name) for name in fields] for s in self.spans]
        path.write_text(json.dumps({"fields": fields, "spans": rows}) + "\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total

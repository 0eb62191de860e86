"""Spans around the program's public functions, recorded from outside.

``install`` replaces module attributes of ``dcmg`` with timing wrappers,
so the program's own code stays untouched: a function is wrapped under
every name the calling module looks it up by (``sim`` imports
``build_global`` by name, ``uio.discretize_agent`` calls its own
``discretize_zoh``, ``cli.run`` calls its own ``run_scenario``).  Spans
are kept in memory: name, start, end and the index of the enclosing
span.  Standard library only.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (module, attribute) -> span name.  Every call the program makes through
# one of these names becomes a span.
TARGETS = {
    ("dcmg.sim", "run_scenario"): "sim.run_scenario",
    ("dcmg.cli", "run_scenario"): "sim.run_scenario",
    ("dcmg.sim", "build_global"): "netmodel.assemble",
    ("dcmg.sim", "partition_agent"): "netmodel.assemble",
    ("dcmg.sim", "discretize_zoh"): "lti.discretize",
    ("dcmg.uio", "discretize_zoh"): "lti.discretize",
    ("dcmg.sim", "gain_step"): "uio.gain",
    ("dcmg.sim", "sample_noise"): "sim.noise",
    ("dcmg.sim", "monitor"): "detect.monitor",
    ("dcmg.cli", "export_trace_csv"): "cli.export",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx].end = time.perf_counter()

        return traced

    def install(self) -> None:
        self._saved = []
        for (module, attr), name in TARGETS.items():
            mod = importlib.import_module(module)
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))

    def uninstall(self) -> None:
        for mod, attr, fn in self._saved:
            setattr(mod, attr, fn)

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus the part their direct
        children cover (children nest, so their durations add up)."""
        own = {i for i, s in enumerate(self.spans) if s.name == name}
        covered = sum(s.end - s.start for s in self.spans if s.parent in own)
        return sum(self.spans[i].end - self.spans[i].start for i in own) - covered

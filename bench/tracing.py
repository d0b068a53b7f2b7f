"""Spans and counters installed on lorenzlab's module attributes.

Layers call each other through names they imported at module load
(``from .map_core import apply_raw``), so a wrapper set on such an
attribute sees every call that crosses the layer boundary. A few stages
are called from inside their own module (``decompose`` calls
``classify_attractor``); those attributes are wrapped in their home module
too. Nothing of lorenzlab is edited, and ``uninstall`` restores every
attribute.

Hot scalar functions only count calls: a span per ``apply_raw`` call would
cost more than the call. Stage functions record spans (name, label, start,
end, parent, thread) in memory; self time is a span's duration minus the
time its children cover. Spans in the scan pool's worker threads have no
parent in the submitting thread, so self times there are per-thread wall
time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

# (home module, function, kind, also wrap the home module's own attribute)
#   kind "span":     one span per call
#   kind "calls":    call count only
#   kind "elements": call count plus the size of the array argument
TARGETS = [
    ("map_core", "apply_raw", "calls", False),
    ("map_core", "branch_value", "calls", False),
    ("map_core", "eval_array", "elements", False),
    # renorm, spectral and orbits import it inside functions, at call time
    ("map_core", "branch_inverse_array", "elements", True),
    ("map_core", "validate_map", "span", False),
    ("return_maps", "push_interval", "calls", True),
    ("return_maps", "first_return_map", "span", True),
    ("periodic", "find_periodic_points", "span", False),
    ("renorm", "find_renormalizations", "span", False),
    ("renorm", "trapping_region", "span", False),
    ("orbits", "lyapunov", "span", False),
    ("orbits", "estimate_omega_limit", "span", False),
    ("spectral", "decompose", "span", False),
    ("spectral", "classify_attractor", "span", True),
    ("spectral", "stratum_blocks", "span", True),
    ("spectral", "entropy_estimate", "span", False),
    ("cli", "build_report", "span", True),
    ("cli", "cmd_scan", "span", True),
]

MODULES = ("map_core", "orbits", "periodic", "return_maps", "renorm", "spectral", "cli")

# stages whose return values the benchmark reads
KEEP_RESULTS = {"return_maps.first_return_map"}

# argument position of the array whose size is counted
ARRAY_ARG = {"eval_array": 1, "branch_inverse_array": 2}


@dataclass
class Span:
    id: int
    name: str
    label: str
    start: float
    end: float
    parent: int | None
    thread: int

    def to_dict(self) -> dict:
        return vars(self).copy()


def span_label(args: tuple) -> str:
    """The map a stage runs on, when its first argument is a map spec."""
    return getattr(args[0], "name", "") if args else ""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # itertools.count is advanced atomically under the interpreter lock,
        # so call counts from the scan pool's threads are never lost
        self.calls: dict[str, itertools.count] = {}
        self.elements: dict[str, int] = {}
        self.results: dict[str, list] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, kind: str, fn):
        counter = self.calls.setdefault(name, itertools.count())
        if kind == "calls":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                next(counter)
                return fn(*args, **kwargs)

            return counted
        if kind == "elements":
            pos = ARRAY_ARG[fn.__name__]

            @functools.wraps(fn)
            def sized(*args, **kwargs):
                next(counter)
                n = int(np.size(args[pos]))
                with self._lock:
                    self.elements[name] = self.elements.get(name, 0) + n
                return fn(*args, **kwargs)

            return sized
        results = self.results.setdefault(name, []) if name in KEEP_RESULTS else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            next(counter)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(sid, name, span_label(args), start, end, parent, threading.get_ident())
                )
            if results is not None:
                results.append((span_label(args), out))
            return out

        return spanned

    def install(self) -> None:
        mods = {m: importlib.import_module(f"lorenzlab.{m}") for m in MODULES}
        for home, fname, kind, in_home in TARGETS:
            original = getattr(mods[home], fname)
            wrapper = self._wrap(f"{home}.{fname}", kind, original)
            for mname, mod in mods.items():
                if getattr(mod, fname, None) is original and (mname != home or in_home):
                    self._undo.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._undo):
            setattr(mod, fname, original)
        self._undo.clear()

    # -- reading ----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Calls per wrapped function; read once, after the traced pass (a
        fresh next() returns how many were taken before it)."""
        return {name: next(counter) for name, counter in self.calls.items()}

    def self_times(self) -> dict[int, float]:
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, []), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = (s.end - s.start) - covered
        return out

"""Layer tracing for the benchmark's traced runs.

The traced run wraps each layer's public entry points from here, never
from inside ``src/``.  A wrapper switches the tracer's *current layer*
on entry and back on exit, and every switch charges the elapsed wall
time to the layer that was active.  A layer's self time is therefore
its spans' time minus the time of the child spans nested in them, with
one clock read per switch.

Two kinds of entry point:

* **span** entries record a span (name, start, end, parent span, run
  id) for the Chrome trace.  They are the coarse calls: an optimum, an
  STA run, a surface, a pool map.
* **hot** entries (scalar device calls, characterizer lookups, plan
  scalars, store gets) only switch the layer and bump counters; they
  run millions of times, so they are never recorded as spans.

A hot call that stays inside its caller's layer is passed straight
through (no switch), so time is charged once per boundary crossing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import multiprocessing
import resource
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Layer charged while the benchmark itself runs between queries
#: (checks, digests, bookkeeping).  It is excluded from every share.
UNTIMED = "untimed"
#: Layer of a query's own root span: benchmark glue inside the query.
BENCH = "bench"

MARKER = "__perfbench_wrapper__"


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``target`` is ``"module:Qual.name"``.  ``tally(tracer, caller,
    args, result)`` runs after every call, with the layer the call came
    from; ``every`` names a counter bumped on every call.
    """

    target: str
    layer: str
    span: bool = False
    every: Optional[str] = None
    tally: Optional[Callable] = None


class Tracer:
    """Per-layer self time, counters and recorded spans of one run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 run_id: str = ""):
        self.clock = clock
        self.run_id = run_id
        self.layer = UNTIMED
        self.mark = clock()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: (span_id, name, layer, start, end, parent_id); end is None
        #: while the span is open.
        self.spans: List[list] = []
        self._open: List[int] = []
        #: Objects whose caches are read after the run (characterizers).
        self.seen: Dict[int, object] = {}

    # -- layer switching -------------------------------------------------
    def enter(self, layer: str) -> str:
        now = self.clock()
        self.self_s[self.layer] += now - self.mark
        self.mark = now
        previous = self.layer
        self.layer = layer
        return previous

    def leave(self, previous: str) -> None:
        now = self.clock()
        self.self_s[self.layer] += now - self.mark
        self.mark = now
        self.layer = previous

    # -- recorded spans --------------------------------------------------
    def begin(self, name: str, layer: str) -> Tuple[str, int]:
        previous = self.enter(layer)
        parent = self._open[-1] if self._open else None
        span_id = len(self.spans)
        self.spans.append([span_id, name, layer, self.mark, None, parent])
        self._open.append(span_id)
        return previous, span_id

    def end(self, token: Tuple[str, int]) -> None:
        previous, span_id = token
        self.leave(previous)
        self.spans[span_id][4] = self.mark
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = BENCH):
        token = self.begin(name, layer)
        try:
            yield
        finally:
            self.end(token)

    # -- summaries -------------------------------------------------------
    def inclusive_s(self, layer: str = None, name: str = None) -> float:
        """Wall time of the outermost spans of a layer (or one name)."""
        by_id = self.spans
        total = 0.0
        for span_id, span_name, span_layer, start, end, parent in by_id:
            if end is None:
                continue
            if name is not None and span_name != name:
                continue
            if layer is not None:
                if span_layer != layer:
                    continue
                if parent is not None and by_id[parent][2] == layer:
                    continue
            total += end - start
        return total

    def chrome_trace(self, pid: int = 0) -> dict:
        """The recorded spans as Chrome trace-event JSON (Perfetto)."""
        events = []
        for span_id, name, layer, start, end, parent in self.spans:
            if end is None:
                continue
            events.append({
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {
                    "span_id": span_id,
                    "parent": parent,
                    "run_id": self.run_id,
                },
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"run_id": self.run_id},
        }

    def write_chrome_trace(self, path: str, pid: int = 0) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(pid), handle)


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _make_wrapper(tracer: Tracer, fn: Callable, entry: Entry) -> Callable:
    layer = entry.layer
    every = entry.every
    tally = entry.tally
    counts = tracer.counts
    self_s = tracer.self_s
    clock = tracer.clock

    if entry.span:
        name = entry.target.split(":", 1)[1]

        def wrapper(*args, **kwargs):
            if every is not None:
                counts[every] += 1
            caller = tracer.layer
            token = tracer.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(token)
            if tally is not None:
                tally(tracer, caller, args, result)
            return result
    else:
        def wrapper(*args, **kwargs):
            if every is not None:
                counts[every] += 1
            caller = tracer.layer
            if caller == layer:
                result = fn(*args, **kwargs)
            else:
                # enter()/leave() inlined: this path runs millions of
                # times per traced run.
                now = clock()
                self_s[caller] += now - tracer.mark
                tracer.mark = now
                tracer.layer = layer
                try:
                    result = fn(*args, **kwargs)
                finally:
                    now = clock()
                    self_s[layer] += now - tracer.mark
                    tracer.mark = now
                    tracer.layer = caller
            if tally is not None:
                tally(tracer, caller, args, result)
            return result

    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, MARKER, True)
    return wrapper


def _resolve(target: str):
    """``(owner, attribute, raw value)`` of an entry's target."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attribute = parts[-1]
    if isinstance(owner, type):
        raw = owner.__dict__[attribute]
    else:
        raw = getattr(owner, attribute)
    return owner, attribute, raw


def _package_modules(package: str) -> List[object]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None
        and (name == package or name.startswith(package + "."))
    ]


class Installation:
    """Wrappers installed on a set of entries; ``restore`` undoes all."""

    def __init__(self, tracer: Tracer, entries, package: str = "repro"):
        self.package = package
        self.patched: List[Tuple[object, str, object]] = []
        for entry in entries:
            owner, attribute, raw = _resolve(entry.target)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_make_wrapper(tracer, raw.__func__, entry))
            else:
                wrapped = _make_wrapper(tracer, raw, entry)
            self._patch(owner, attribute, raw, wrapped)
            if not isinstance(owner, type):
                # ``from module import fn`` copies elsewhere in the
                # package must see the wrapper too.
                for module in _package_modules(package):
                    for alias, value in list(vars(module).items()):
                        if value is raw and module is not owner:
                            self._patch(module, alias, raw, wrapped)

    def _patch(self, owner, attribute, raw, wrapped) -> None:
        self.patched.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)

    def restore(self) -> None:
        for owner, attribute, raw in reversed(self.patched):
            setattr(owner, attribute, raw)
        self.patched = []
        # A module imported while wrappers were live may have copied a
        # wrapper under its own name; put the original back there too.
        for module in _package_modules(self.package):
            for alias, value in list(vars(module).items()):
                if getattr(value, MARKER, False):
                    setattr(module, alias, value.__wrapped__)


def installed_wrappers(package: str = "repro") -> List[str]:
    """Names of every wrapper reachable from the package's modules."""
    found = []
    for module in _package_modules(package):
        for alias, value in list(vars(module).items()):
            candidates = [(alias, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                candidates += [
                    (f"{alias}.{name}", getattr(raw, "__func__", raw))
                    for name, raw in vars(value).items()
                ]
            for name, candidate in candidates:
                if getattr(candidate, MARKER, False):
                    found.append(f"{module.__name__}.{name}")
    return found


def children_cpu_s() -> float:
    """User + system CPU of this process's reaped children [s]."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def reap_children(timeout_s: float = 10.0) -> None:
    """Wait (bounded) until pool workers that are exiting are reaped."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)

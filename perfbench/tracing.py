"""Span and call-count tracing for the gridnav benchmark.

The tracer wraps gridnav's public functions and methods from outside the
package.  gridnav's modules bind each other's names with ``from ... import``,
so a function is wrapped by rebinding *every* module attribute that refers to
it (``gridnav.executors.observe`` as well as ``gridnav.fsc.observe``).
``uninstall`` puts each original object back.

Three kinds of boundary are recorded:

- SPAN, for coarse calls (one solve, one executor run, one learn): name,
  start, end, parent span, run id and an optional size of the work (cells
  generated, actions instantiated), kept in memory until written out;
- HOT, for calls made once per executor move (step, observe, lookup, SLAM):
  only calls, total and self time, and how many calls returned one flagged
  value (a rejected move, a SLAM veto), kept per run label;
- COUNT, for generator functions, whose body runs lazily: calls only.

SPAN and HOT calls push a frame, so a caller's self time excludes the time
of every traced call beneath it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

perf_counter = time.perf_counter

SPAN = "span"
HOT = "hot"
COUNT = "count"

NO_FLAG = object()


def _cells(args, kwargs, grid):
    return grid.width * grid.height


def _length(args, kwargs, result):
    return len(result)


# (defining module, function, traced name, kind, flagged result, span size)
FUNCTIONS = (
    ("gridnav.grid", "generate_maze", "grid.generate_maze", SPAN, NO_FLAG, _cells),
    ("gridnav.grid", "with_endpoints", "grid.with_endpoints", SPAN, NO_FLAG, None),
    ("gridnav.fixtures", "fixture_map", "grid.fixture_map", SPAN, NO_FLAG, None),
    ("gridnav.model", "instantiate_actions", "model.instantiate_actions", SPAN, NO_FLAG, _length),
    ("gridnav.solver", "solve", "solver.solve", SPAN, NO_FLAG, _length),
    ("gridnav.solver", "generate_behaviours", "solver.generate_behaviours", SPAN, NO_FLAG, None),
    ("gridnav.mil", "learn", "mil.learn", SPAN, NO_FLAG, None),
    ("gridnav.mil", "prove", "mil.prove", SPAN, NO_FLAG, None),
    ("gridnav.fsc", "observe", "fsc.observe", HOT, NO_FLAG, None),
    ("gridnav.slam", "slam_update", "slam.update", HOT, NO_FLAG, None),
    ("gridnav.slam", "slam_permits", "slam.permits", HOT, False, None),
    ("gridnav.slam", "slam_move", "slam.move", HOT, NO_FLAG, None),
    ("gridnav.executors", "execute", "executors.execute", SPAN, NO_FLAG, None),
    ("gridnav.workbench", "learn_solver", "workbench.learn_solver", SPAN, NO_FLAG, None),
    ("gridnav.workbench", "learn_controller", "workbench.learn_controller", SPAN, NO_FLAG, None),
    ("gridnav.workbench", "run_single", "workbench.run_single", SPAN, NO_FLAG, None),
)

# (defining module, class, method, traced name, kind, flagged result, span size)
METHODS = (
    ("gridnav.model", "ActionBackground", "successors", "model.successors", COUNT, NO_FLAG, None),
    ("gridnav.mil", "TupleBackground", "__init__", "mil.tuple_background", SPAN, NO_FLAG, None),
    ("gridnav.fsc", "FSC", "lookup", "fsc.lookup", HOT, NO_FLAG, None),
    ("gridnav.executors", "BasicEnvironment", "reset", "executors.reset", HOT, NO_FLAG, None),
    ("gridnav.executors", "BasicEnvironment", "step", "executors.step", HOT, None, None),
    ("gridnav.executors", "BasicEnvironment", "checkpoint", "executors.checkpoint", HOT,
     NO_FLAG, None),
    ("gridnav.executors", "BasicEnvironment", "restore", "executors.restore", HOT, NO_FLAG, None),
)

# Span records are lists; index 0 is the frame's child time so that span
# records and HOT frames share one frame stack.
CHILD, NAME, START, END, PARENT, RUN, SIZE = range(7)
SPAN_FIELDS = ("child_s", "name", "start_s", "end_s", "parent", "run", "size")


class Stat:
    """Calls, total and self seconds, and flagged results of one name."""

    __slots__ = ("calls", "total", "self", "flagged")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.flagged = 0


def gridnav_modules():
    """The loaded gridnav package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gridnav" or name.startswith("gridnav."))]


def bindings():
    """(owner, attribute, original, traced name, kind, flag, size) for every
    binding the tracer replaces, over the gridnav modules loaded now."""
    found = []
    modules = gridnav_modules()
    for modname, fname, *traced in FUNCTIONS:
        original = getattr(importlib.import_module(modname), fname)
        found += [(m, attr, original, *traced) for m in modules
                  for attr, value in vars(m).items() if value is original]
    for modname, clsname, method, *traced in METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        found.append((cls, method, vars(cls)[method], *traced))
    return found


class Tracer:
    """Records spans and call statistics while installed.

    ``begin_run(run_id, label)`` tags what follows with a run id and a label
    (the agent, ``learn`` or ``setup``); statistics are kept per label.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stats: dict[str, dict[str, Stat]] = {}
        self.run = -1
        self._label_stats = self.stats.setdefault("setup", {})
        self._frames: list[list] = [[0.0]]
        self._open: list[int] = []
        self._bindings = bindings()
        self._wrappers = {}

    def begin_run(self, run_id: int, label: str) -> None:
        self.run = run_id
        self._label_stats = self.stats.setdefault(label, {})

    def stat(self, label: str, name: str) -> Stat:
        return self.stats.get(label, {}).get(name) or Stat()

    def _stat(self, name: str) -> Stat:
        stats = self._label_stats
        st = stats.get(name)
        if st is None:
            st = stats[name] = Stat()
        return st

    def _wrapper(self, original, name, kind, flag, size):
        key = id(original)
        if key in self._wrappers:
            return self._wrappers[key]
        frames = self._frames
        stat = self._stat

        if kind == COUNT:
            def wrapper(*args, **kwargs):
                stat(name).calls += 1
                return original(*args, **kwargs)
        elif kind == HOT:
            def wrapper(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    frames.pop()
                    frames[-1][CHILD] += elapsed
                st = stat(name)
                st.calls += 1
                st.total += elapsed
                st.self += elapsed - frame[CHILD]
                if result is flag:
                    st.flagged += 1
                return result
        else:
            spans = self.spans
            opened = self._open
            tracer = self

            def wrapper(*args, **kwargs):
                record = [0.0, name, 0.0, 0.0, opened[-1] if opened else -1, tracer.run, None]
                opened.append(len(spans))
                spans.append(record)
                frames.append(record)
                record[START] = start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[END] = end = perf_counter()
                    frames.pop()
                    opened.pop()
                    frames[-1][CHILD] += end - start
                    st = stat(name)
                    st.calls += 1
                    st.total += end - start
                    st.self += end - start - record[CHILD]
                if size is not None:
                    record[SIZE] = size(args, kwargs, result)
                return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.traced_as = name
        self._wrappers[key] = wrapper
        return wrapper

    def install(self) -> None:
        for owner, attr, original, *traced in self._bindings:
            setattr(owner, attr, self._wrapper(original, *traced))

    def uninstall(self) -> None:
        for owner, attr, original, *_ in self._bindings:
            setattr(owner, attr, original)

    def bound_originals(self):
        """(owner, attribute, original) of every binding, so a caller can
        check that ``uninstall`` restored each one."""
        return [(owner, attr, original) for owner, attr, original, *_ in self._bindings]

    def spans_named(self, name: str, parent: str | None = None) -> list[list]:
        """Span records of one name, optionally only those whose parent span
        has the name ``parent``."""
        spans = self.spans
        return [s for s in spans if s[NAME] == name
                and (parent is None or (s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent))]

    def write_spans(self, path) -> None:
        """One JSON array per line, the first line naming the fields.  Times
        are perf_counter seconds; ``parent`` is a span index (-1: none)."""
        with open(path, "w") as out:
            out.write(json.dumps(list(SPAN_FIELDS)) + "\n")
            for record in self.spans:
                out.write(json.dumps(record) + "\n")

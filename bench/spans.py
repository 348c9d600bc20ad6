"""Span tracing around the calls one rainbowtrees module makes into the next.

The tracer replaces module attributes (and two EdgeColoring methods) with
wrappers for the length of one traced run and puts the originals back when
it is uninstalled.  Every wrapped call records a span
``(name, start, end, parent, op)``: ``parent`` is the index of the enclosing
span in ``spans`` (or None) and ``op`` is the op id the harness set, or
``"setup"`` while inputs are generated.  Calls made while no op is active
(for example by the answer checker) pass straight through.

Self time is a span's duration minus the time its direct child spans cover
(and minus the tracer's own counting after a child returns); the program is
single-threaded, so children never overlap.

A boundary that no longer exists, or is no longer a plain function, is
recorded in ``missing`` with the reason instead of raising: refactors that
move a name must not break the benchmark.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import types
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name).  "A.b" is method b of class A.
BOUNDARIES = (
    ("rainbowtrees.verify", "random_surjective_coloring", "verify.sample"),
    ("rainbowtrees.canonical", "generate_canonical", "canonical.generate"),
    ("rainbowtrees.solver", "solve", "solver.solve"),
    ("rainbowtrees.solver", "validate", "coloring.validate"),
    ("rainbowtrees.solver", "_max_common_set", "rainbow.feasibility"),
    ("rainbowtrees.solver", "max_rainbow_forest", "rainbow.witness"),
    ("rainbowtrees.constructive", "partition_complete", "constructive.partition"),
    ("rainbowtrees.constructive", "validate", "coloring.validate"),
    ("rainbowtrees.constructive", "find_swap", "constructive.find_swap"),
    ("rainbowtrees.constructive", "apply_swap", "constructive.apply_swap"),
    ("rainbowtrees.constructive", "initial_representatives", "constructive.initial_representatives"),
    ("rainbowtrees.constructive", "restrict", "coloring.restrict"),
    ("rainbowtrees.constructive", "is_partition_valid", "coloring.partition_check"),
    ("rainbowtrees.coloring", "EdgeColoring.edges", "coloring.edges"),
    ("rainbowtrees.coloring", "EdgeColoring.color_classes", "coloring.color_classes"),
)


def _count_feasibility(tracer: "Tracer", args: tuple, result) -> None:
    """Edges fed to the intersection, and whether it spanned their vertices."""
    items = args[0]
    tracer.counters["rainbow.feasibility_edges"] += len(items)
    verts = {u for u, _, _ in items} | {v for _, v, _ in items}
    if len(result) == len(verts) - 1:
        tracer.counters["rainbow.feasibility_spanning"] += 1


ON_RESULT = {"rainbow.feasibility": _count_feasibility}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.missing: dict[str, tuple[str, str]] = {}  # boundary -> (span, why)
        self.op = None
        self._open: list = []  # [span index, child seconds] of each open span
        self._restore: list = []

    def install(self, boundaries=BOUNDARIES) -> None:
        for module_name, attr, name in boundaries:
            where = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError as exc:
                self.missing[where] = (name, str(exc))
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(leaf)
            if not isinstance(original, types.FunctionType):
                self.missing[where] = (name, "not found as a plain function")
                continue
            setattr(owner, leaf, self._wrap(name, original))
            self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        on_result = ON_RESULT.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._open
            parent = stack[-1][0] if stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.spans[index] = (name, start, end, parent, tracer.op)
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[1]
            if on_result is not None:
                # counting is tracing overhead: keep it out of the parent's self time
                t0 = perf_counter()
                on_result(tracer, args, result)
                if stack:
                    stack[-1][1] += perf_counter() - t0
            return result

        return traced

    def write(self, path) -> None:
        """Spans as gzip-compressed JSON lines, missing boundaries first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"missing": self.missing}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

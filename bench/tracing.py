"""Spans around calls into the package's public functions.

The tracer swaps each traced function, wherever a module of the package
holds a reference to it, for a wrapper that records one span per call:
name, start, end, parent span and problem id. Calls made inside a module
through its own globals are caught as well. Spans stay in flat arrays for
the whole run and are written out when it ends. Nothing under src/ changes,
and leaving the tracer restores every original reference.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import inspect
import pkgutil
import statistics
import types
from time import perf_counter_ns
from typing import Dict, List, Sequence, Tuple

# The layers: every module of the package that does work (errors does none,
# and cli only dispatches, so the benchmark times its import instead).
LAYERS = ("rootsystem", "bott", "vanishing", "toric", "simplicial", "cech", "linalg", "analysis")

# Public functions left unwrapped. Each runs once per weight of a box scan,
# 10^4 to 10^6 times per problem, where a span would cost as much as the
# call itself; their time counts to the layer that calls them.
UNTRACED = frozenset({"bott.phi", "toric.classify_weight"})

NO_PARENT = -1


def traced_functions(package: types.ModuleType) -> Dict[str, types.FunctionType]:
    """Qualified name -> function, for every public function the tracer wraps.

    Generator functions are skipped: their span would end before their body
    runs. Their callees get spans of their own.
    """
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        for name, obj in vars(module).items():
            qualified = f"{layer}.{name}"
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and not inspect.isgeneratorfunction(obj)
                and qualified not in UNTRACED
            ):
                found[qualified] = obj
    return found


class Tracer:
    """Records spans for the package's public functions while active.

    Use as a context manager; set ``problem`` before each problem so its
    spans carry the problem id.
    """

    def __init__(self, package: types.ModuleType):
        self.package = package
        self.names: List[str] = []
        self.name = array.array("i")
        self.parent = array.array("q")
        self.problem_id = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self._problem = [NO_PARENT]
        self._stack = [NO_PARENT]
        self._patches: List[Tuple[types.ModuleType, str, object]] = []

    @property
    def problem(self) -> int:
        return self._problem[0]

    @problem.setter
    def problem(self, value: int) -> None:
        self._problem[0] = value

    def _wrap(self, fn, name_id: int):
        names, parents, problems = self.name, self.parent, self.problem_id
        starts, ends = self.start, self.end
        stack, problem, clock = self._stack, self._problem, perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            problems.append(problem[0])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        targets = traced_functions(self.package)
        wrappers = {}
        for qualified, fn in targets.items():
            self.names.append(qualified)
            wrappers[id(fn)] = self._wrap(fn, len(self.names) - 1)
        modules = [self.package] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(self.package.__path__, self.package.__name__ + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def spans(self) -> "Spans":
        return Spans(self.names, self.name, self.parent, self.problem_id, self.start, self.end)


class Spans:
    """Columns of recorded spans; row i is one call."""

    def __init__(self, names: Sequence[str], name: Sequence[int], parent: Sequence[int],
                 problem: Sequence[int], start: Sequence[int], end: Sequence[int]):
        self.names = list(names)
        self.name, self.parent, self.problem = name, parent, problem
        self.start, self.end = start, end

    def __len__(self) -> int:
        return len(self.name)

    def self_ns(self) -> List[int]:
        """Each span's duration minus the durations of its direct children.

        Calls are synchronous, so children nest inside their parent and do
        not overlap one another.
        """
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p != NO_PARENT:
                own[p] -= self.end[i] - self.start[i]
        return own

    def by_layer(self) -> Dict[str, Tuple[int, int]]:
        """Layer -> (total self time in ns, number of calls)."""
        totals = {layer: [0, 0] for layer in LAYERS}
        layer_of = [n.split(".", 1)[0] for n in self.names]
        for name_id, own in zip(self.name, self.self_ns()):
            entry = totals[layer_of[name_id]]
            entry[0] += own
            entry[1] += 1
        return {layer: (t, c) for layer, (t, c) in totals.items()}

    def durations_ns(self, qualified: str) -> List[int]:
        if qualified not in self.names:
            return []
        name_id = self.names.index(qualified)
        return [e - s for n, s, e in zip(self.name, self.start, self.end) if n == name_id]

    def problems_with(self, qualified: str) -> set:
        if qualified not in self.names:
            return set()
        name_id = self.names.index(qualified)
        return {p for n, p in zip(self.name, self.problem) if n == name_id}

    def median_ms(self, qualified: str) -> float:
        durations = self.durations_ns(qualified)
        return statistics.median(durations) / 1e6 if durations else 0.0

    def write(self, path) -> None:
        """Write a gzipped CSV: a names line, a header, then one row per span.

        Times are nanoseconds from the first span's start.
        """
        origin = min(self.start) if len(self) else 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# names: " + " ".join(self.names) + "\n")
            out.write("name,parent,problem,start_ns,end_ns\n")
            for row in zip(self.name, self.parent, self.problem, self.start, self.end):
                n, p, q, s, e = row
                out.write(f"{n},{p},{q},{s - origin},{e - origin}\n")

    @classmethod
    def read(cls, path) -> "Spans":
        with gzip.open(path, "rt") as src:
            names = src.readline()[len("# names: "):].split()
            src.readline()
            cols: List[List[int]] = [[], [], [], [], []]
            for line in src:
                for col, value in zip(cols, line.split(",")):
                    col.append(int(value))
        return cls(names, *cols)


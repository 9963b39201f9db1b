"""Spans recorded from outside the compiler.

The traced run replaces, for the length of one job, the names that each
layer's pass wrapper (and ``repro.core.assign``) looks up at call time
with thin wrappers that open and close a span.  Nothing under ``src/``
is edited, and the end-to-end runs install no wrapper at all.

A span is ``[name, parent, start, end]``; the spans of one job form a
tree under the job's root span.  A span's self time is its duration
minus the part of its interval that its child spans cover, so the self
times of one job sum to the job's traced wall time -- which
:meth:`Tracer.accounting_error` checks.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter
from contextlib import contextmanager

from repro.core.bitset import COUNTERS

#: (module, attribute, span name): the call-time lookups the wrappers
#: replace.  ``lower_ast`` and ``build_cfg`` are both the ``lower``
#: pass; the Python frontend builds its CFG through its own import.
WRAPPED = (
    ("repro.lang.passes", "parse", "lang.parse"),
    ("repro.lang.passes", "analyze", "lang.sema"),
    ("repro.frontends.pybytecode", "compile_python_kernel",
     "frontends.pybytecode"),
    ("repro.frontends.pybytecode", "build_cfg", "ir.lower"),
    ("repro.ir.passes", "unroll_program", "ir.unroll"),
    ("repro.ir.passes", "lower_ast", "ir.lower"),
    ("repro.ir.passes", "build_cfg", "ir.lower"),
    ("repro.ir.passes", "simplify_cfg", "ir.simplify"),
    ("repro.ir.passes", "rename", "ir.rename"),
    ("repro.liw.passes", "schedule_program", "liw.schedule"),
    ("repro.core.passes", "run_strategy", "core.allocate"),
    ("repro.core.passes", "optimize_arrays", "core.array_opt"),
    ("repro.core.assign", "color_graph", "core.color"),
    ("repro.core.assign", "hitting_set_duplication", "core.duplicate"),
    ("repro.core.assign", "backtrack_duplication", "core.duplicate"),
    ("repro.memsim.passes", "simulate_program", "memsim.simulate"),
)

#: The kernel work counters snapshotted around each ``run_strategy``.
KERNEL_COUNTERS = (
    "masks_built", "sdr_checks", "placements_enumerated", "combos_enumerated",
)

ROOT = "passes.run_pipeline"


class Tracer:
    """Spans and counts of the traced jobs, kept in memory."""

    def __init__(self) -> None:
        #: per job: list of [name, parent index, start, end]
        self.jobs: list[list[list]] = []
        self.counts: Counter[str] = Counter()
        self._spans: list[list] | None = None
        self._stack: list[int] = []

    @contextmanager
    def job(self):
        """Record the spans of one job under a ``run_pipeline`` root."""
        self._spans = []
        self.jobs.append(self._spans)
        try:
            with self.span(ROOT):
                yield
        finally:
            self._spans = None

    @contextmanager
    def span(self, name: str):
        spans = self._spans
        if spans is None:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(spans)
        record = [name, parent, time.perf_counter(), 0.0]
        spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    def _wrap_strategy(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = COUNTERS.snapshot()
            with tracer.span("core.allocate"):
                result = fn(*args, **kwargs)
            delta = COUNTERS.delta_since(before)
            for counter in KERNEL_COUNTERS:
                tracer.counts[f"core.kernel.{counter}"] += delta[counter]
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the body of the ``with``."""
        saved = []
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            if attr == "run_strategy":
                setattr(module, attr, self._wrap_strategy(fn))
            else:
                setattr(module, attr, self._wrap(fn, name))
        assign = importlib.import_module("repro.core.assign")
        graph_cls = assign.ConflictGraph
        saved.append((assign, "ConflictGraph", graph_cls))
        assign.ConflictGraph = types.SimpleNamespace(
            from_operand_sets=self._wrap(
                graph_cls.from_operand_sets, "core.conflict_graph"
            )
        )
        try:
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # -- accounting ----------------------------------------------------------

    @staticmethod
    def self_times(spans: list[list]) -> list[float]:
        """Each span's duration minus the union of its children's
        intervals, clipped to the span."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, parent, start, end in spans:
            children.setdefault(parent, []).append((start, end))
        result = []
        for index, (name, parent, start, end) in enumerate(spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            result.append((end - start) - covered)
        return result

    def accounting_error(self) -> float:
        """Largest |sum of self times - root duration| over the jobs."""
        worst = 0.0
        for spans in self.jobs:
            root = spans[0]
            total = sum(self.self_times(spans))
            worst = max(worst, abs(total - (root[3] - root[2])))
        return worst

    def wall(self) -> float:
        return sum(spans[0][3] - spans[0][2] for spans in self.jobs)

    def layer_seconds(self) -> dict[str, float]:
        """Inclusive seconds per span name, plus the self time of the
        ``run_pipeline`` root spans as ``passes.manager_self``."""
        totals: Counter[str] = Counter()
        for spans in self.jobs:
            for name, _, start, end in spans[1:]:
                totals[name] += end - start
            if spans[0][0] == ROOT:
                totals["passes.manager_self"] += self.self_times(spans)[0]
        return dict(totals)

    def span_count(self) -> int:
        return sum(len(spans) for spans in self.jobs)

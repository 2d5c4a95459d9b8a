"""Span tracing of bathkit from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in the
namespace its caller looks it up in (``bathkit.discretize.column_id`` is
what ``discretize_bath`` calls, not ``bathkit.lowrank.column_id``), so no
code under src/ changes.  A wrapper records one span per call: name,
start, end, parent span and job id.  Spans stay in memory and are written
out once, at exit.  The program is single-threaded at this level, so child
spans never overlap and a span's self time is its duration minus the sum
of its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, class or None, attribute, span name).  Each entry is the name
# under which a caller inside bathkit, or the benchmark itself, looks the
# function up.
TARGETS = (
    ("bathkit.discretize", None, "discretize_bath", "discretize.discretize_bath"),
    ("bathkit.dynamics", None, "discretize_bath", "discretize.discretize_bath"),
    ("bathkit.discretize", None, "assemble_fdr", "discretize.assemble_fdr"),
    ("bathkit.discretize", None, "column_id", "lowrank.column_id"),
    ("bathkit.discretize", None, "nnls", "lowrank.nnls"),
    ("bathkit.discretize", None, "reference_bcf", "discretize.reference_bcf"),
    ("bathkit.discretize", None, "fourier_midpoint_sum", "quadrature.fourier_midpoint_sum"),
    ("bathkit.discretize", None, "reconstruct_bcf", "discretize.reconstruct_bcf"),
    ("bathkit.discretize", None, "save_bath_model", "discretize.save_bath_model"),
    ("bathkit.discretize", None, "load_bath_model", "discretize.load_bath_model"),
    ("bathkit.specdens", "NoiseKernel", "evaluate", "specdens.NoiseKernel.evaluate"),
    ("bathkit.dynamics", None, "build_model", "hamiltonian.build_model"),
    ("bathkit.dynamics", None, "convergence_study", "dynamics.convergence_study"),
    ("bathkit.dynamics", None, "propagate", "dynamics.propagate"),
    ("bathkit.dynamics", "_HamiltonianAction", "__call__", "dynamics._HamiltonianAction.__call__"),
    ("bathkit.dynamics", None, "_lanczos_expm_apply", "dynamics._lanczos_expm_apply"),
    ("bathkit.dynamics", None, "dephasing_gamma", "dynamics.dephasing_gamma"),
)

# Counts taken from a traced call's result, at the same boundary.
RESULT_COUNTS = {
    "lowrank.column_id": lambda res: res.rank,
    "lowrank.nnls": lambda res: res.iterations,
    "discretize.discretize_bath": lambda bath: (bath.diagnostics.id_rank, bath.mode_count),
    "dynamics.propagate": lambda res: len(res.times) - 1,
}


class TraceTargetMissing(RuntimeError):
    """A traced name no longer exists where its caller looks it up."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "count")

    def __init__(self, name, parent, job):
        self.name, self.start, self.end = name, 0.0, 0.0
        self.parent, self.job, self.count = parent, job, None


class Tracer:
    """Records spans while ``recording`` is true; wrappers pass through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self.job = None
        self.names: set[str] = set()
        self._stack: list[int] = []

    def install(self):
        for module_name, class_name, attr, span_name in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            # vars(): a class attribute must be the class's own, not inherited
            if owner is None or attr not in vars(owner):
                where = module_name + (f".{class_name}" if class_name else "")
                raise TraceTargetMissing(f"cannot trace {where}.{attr}: it does not exist")
            setattr(owner, attr, self._wrap(vars(owner)[attr], span_name))
            self.names.add(span_name)

    def _wrap(self, func, name):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.recording:
                return func(*args, **kwargs)
            index = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else None, self.job)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.count = count(result)
            return result

        return traced

    def layer_stats(self, first: int = 0) -> dict:
        """Per traced name: calls, self_s and result counts over spans[first:].

        Every installed name has an entry, with zero calls if it did not run.
        """
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        stats = {name: {"calls": 0, "self_s": 0.0, "counts": []} for name in self.names}
        for index, span in enumerate(spans, first):
            entry = stats[span.name]
            entry["calls"] += 1
            entry["self_s"] += (span.end - span.start) - child_time[index]
            if span.count is not None:
                entry["counts"].append(span.count)
        levels = sum(
            1
            for span in spans
            if span.name == "quadrature.fourier_midpoint_sum"
            and span.parent is not None
            and self.spans[span.parent].name == "discretize.reference_bcf"
        )
        stats["discretize.reference_bcf"]["levels"] = levels
        return stats

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "job": span.job,
                        }
                    )
                    + "\n"
                )

"""Span tracing of the ``sullivan`` layers, installed from outside the library.

Each entry of ``PATCHES`` names a function at the place its callers look it
up (a module attribute or a class attribute) and the span it records.  While
a ``Tracer`` is installed every call of a patched function records one span
``(name, start, end, parent span, item id)``; spans stay in memory until the
run writes them out, and ``uninstall`` puts every original back.  Untimed
runs never create a tracer, so they execute the library unchanged.

A layer's self time is the duration of its spans minus the time their
direct child spans cover.  Counts are taken at the same boundaries.  The
observers that derive counts from a call's arguments and result run on the
tracer's own time: spans are timed on a clock that leaves it out, so no
span's self time includes it.  A metric whose function the library no
longer has is left out of the output rather than read as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref

# (module, class or None, attribute, span name)
PATCHES = [
    ("sullivan.cli", None, "main", "cli.main"),
    ("sullivan.documents", None, "load_document", "documents.load"),
    ("sullivan.documents", None, "run_analysis", "documents.report"),
    ("sullivan.documents", None, "_space_summary", "documents.report"),
    ("sullivan.documents", None, "model_document", "documents.report"),
    ("sullivan.documents", None, "to_json", "documents.report"),
    ("sullivan.documents", None, "biquotient_model", "models.build"),
    ("sullivan.documents", None, "cohomogeneity_one_model", "models.build"),
    ("sullivan.documents", None, "borel_model_cohomogeneity_one", "models.build"),
    ("sullivan.criteria", None, "biquotient_model", "models.build"),
    ("sullivan.criteria", None, "cohomogeneity_one_model", "models.build"),
    ("sullivan.criteria", None, "borel_model_cohomogeneity_one", "models.build"),
    ("sullivan.criteria", None, "borel_model_homogeneous", "models.build"),
    ("sullivan.criteria", None, "classifying_space_model", "models.build"),
    ("sullivan.cdga", "SullivanAlgebra", "parse", "cdga.parse"),
    ("sullivan.cdga", "SullivanAlgebra", "_basis", "cdga.basis"),
    ("sullivan.cdga", "SullivanAlgebra", "_d_monomial", "cdga.d_monomial"),
    ("sullivan.cdga", "SullivanAlgebra", "multiply", "cdga.multiply"),
    ("sullivan.cdga", "SullivanAlgebra", "coordinates", "cdga.coordinates"),
    ("sullivan.cohomology", None, "_action_rows", "cohomology.action_rows"),
    ("sullivan.cohomology", None, "betti_numbers", "cohomology.betti"),
    ("sullivan.cohomology", "CohomologyTable", "__init__", "cohomology.table"),
    ("sullivan.cohomology", "LowerGradedTable", "__init__", "cohomology.lower_grading"),
    ("sullivan.cohomology", None, "h0_dims", "cohomology.h0"),
    ("sullivan.cohomology", None, "surjectivity_by_parity", "cohomology.surjectivity"),
    ("sullivan.criteria", None, "homogeneous_surjectivity", "criteria.verdict"),
    ("sullivan.criteria", None, "biquotient_surjectivity", "criteria.verdict"),
    ("sullivan.criteria", None, "cohomogeneity_one_surjectivity", "criteria.verdict"),
    ("sullivan.criteria", None, "euler_characteristic_relations", "criteria.euler"),
    ("sullivan.criteria", None, "pure_formality", "criteria.formality"),
    ("sullivan.criteria", None, "_rank", "criteria.formality.rank"),
    ("sullivan.criteria", None, "pure_h0_equals_heven", "criteria.coverage"),
    ("sullivan.linalg", None, "_int_rows", "linalg.convert"),
    ("sullivan.linalg", None, "_as_fraction_vector", "linalg.convert"),
    ("sullivan.linalg", None, "rank_rows", "linalg.rank"),
    ("sullivan.linalg", None, "kernel_basis", "linalg.kernel"),
    ("sullivan.linalg", None, "_back_substitute", "linalg.backsub"),
    ("sullivan.linalg", "_Reducer", "reduce", "linalg.reducer"),
    ("sullivan.linalg", "_Reducer", "add", "linalg.reducer"),
    ("sullivan.linalg", None, "solve", "linalg.solve"),
    ("sullivan.linalg", None, "quotient_basis", "linalg.quotient"),
    ("sullivan.linalg", None, "ff_row_echelon", "elim"),
]

# Self-time metrics and the spans whose self time they sum.
SELF_TIME = {
    "cli.main.self_s": ["cli.main"],
    "documents.load.self_s": ["documents.load"],
    "documents.report.self_s": ["documents.report"],
    "models.build.self_s": ["models.build"],
    "cdga.parse.self_s": ["cdga.parse"],
    "cdga.basis.self_s": ["cdga.basis"],
    "cdga.d_monomial.self_s": ["cdga.d_monomial"],
    "cdga.multiply.self_s": ["cdga.multiply"],
    "cdga.coordinates.self_s": ["cdga.coordinates"],
    "cohomology.action_rows.self_s": ["cohomology.action_rows"],
    "cohomology.betti.self_s": ["cohomology.betti"],
    "cohomology.table.self_s": ["cohomology.table"],
    "cohomology.lower_grading.self_s": ["cohomology.lower_grading"],
    "cohomology.h0.self_s": ["cohomology.h0"],
    "cohomology.surjectivity.self_s": ["cohomology.surjectivity"],
    "criteria.verdict.self_s": ["criteria.verdict"],
    "criteria.euler.self_s": ["criteria.euler"],
    "criteria.formality.self_s": ["criteria.formality", "criteria.formality.rank"],
    "criteria.coverage.self_s": ["criteria.coverage"],
    "linalg.convert.self_s": ["linalg.convert"],
    "linalg.rank.self_s": ["linalg.rank"],
    "linalg.kernel.self_s": ["linalg.kernel"],
    "linalg.backsub.self_s": ["linalg.backsub"],
    "linalg.reducer.self_s": ["linalg.reducer"],
    "linalg.solve.self_s": ["linalg.solve"],
    "linalg.quotient.self_s": ["linalg.quotient"],
    "elim.self_s": ["elim"],
}

# Call-count metrics and the span they count.
CALLS = {
    "documents.load.calls": "documents.load",
    "models.build.calls": "models.build",
    "cdga.basis.calls": "cdga.basis",
    "cdga.d_monomial.calls": "cdga.d_monomial",
    "cdga.coordinates.calls": "cdga.coordinates",
    "cohomology.action_rows.calls": "cohomology.action_rows",
    "cohomology.betti.calls": "cohomology.betti",
    "cohomology.table.calls": "cohomology.table",
    "cohomology.surjectivity.calls": "cohomology.surjectivity",
    "criteria.verdict.calls": "criteria.verdict",
    "criteria.formality.rank_calls": "criteria.formality.rank",
    "linalg.convert.calls": "linalg.convert",
    "linalg.rank.calls": "linalg.rank",
    "linalg.kernel.calls": "linalg.kernel",
    "linalg.solve.calls": "linalg.solve",
    "linalg.quotient.calls": "linalg.quotient",
    "elim.calls": "elim",
}


def _observe_action_rows(tracer, args, result):
    algebra, degree = args[0], args[1]
    seen = tracer.action_rows_seen.setdefault(algebra, set())
    if degree not in seen:
        seen.add(degree)
        tracer.count("action_rows.distinct")


def _observe_quotient(tracer, args, result):
    tracer.count("quotient.candidates", len(args[1].vectors))
    tracer.count("quotient.reps", len(result.vectors))


def _observe_elim(tracer, args, result):
    rows = args[0]
    echelon, pivots = result
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    tracer.count("elim.rows", nrows)
    tracer.count("elim.pivots", len(pivots))
    tracer.count("elim.cells", nrows * ncols)
    tracer.count(
        "elim.entry_updates",
        sum((nrows - k - 1) * (ncols - p) for k, p in enumerate(pivots)),
    )
    bits = max(
        (abs(x).bit_length() for matrix in (rows, echelon) for row in matrix for x in row),
        default=0,
    )
    if bits > tracer.counters.get("elim.max_bits", 0):
        tracer.counters["elim.max_bits"] = bits


# Metrics derived from observer counts, and the spans they need.
DERIVED = {
    "models.build.per_report": ["models.build"],
    "cohomology.action_rows.repeat_ratio": ["cohomology.action_rows"],
    "linalg.quotient.precheck_solves": ["linalg.solve", "linalg.quotient"],
    "linalg.quotient.yield": ["linalg.quotient"],
    "elim.cells": ["elim"],
    "elim.entry_updates": ["elim"],
    "elim.rank_ratio": ["elim"],
    "elim.max_bits": ["elim"],
}

OBSERVERS = {
    "cohomology.action_rows": _observe_action_rows,
    "linalg.quotient": _observe_quotient,
    "elim": _observe_elim,
}


class Tracer:
    """Records spans of the patched functions while installed."""

    def __init__(self, clock=time.perf_counter):
        self._base_clock = clock
        self.observed_s = 0.0  # seconds spent in observers, left out of every span
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list = []  # (name index, start, end, parent span, item id)
        self._stack: list[int] = []
        self.item = -1
        self.counters: dict[str, int] = {}
        self.action_rows_seen = weakref.WeakKeyDictionary()
        self._saved: list = []
        self.missing: list[str] = []
        self.missing_spans: set[str] = set()

    def clock(self) -> float:
        """The clock spans are timed on: the base clock without observer time."""
        return self._base_clock() - self.observed_s

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, name: str):
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        spans, stack, clock, base = self.spans, self._stack, self.clock, self._base_clock
        observe = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span_id = len(spans)
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (index, start, end, parent, tracer.item)
            if observe is not None:
                begin = base()
                observe(tracer, args, result)
                tracer.observed_s += base() - begin
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Patch every function in PATCHES; a name the library no longer
        has is reported on stderr, and every metric of its span is left out."""
        for module_name, class_name, attribute, span in PATCHES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = owner.__dict__.get(attribute) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}:{class_name or ''}.{attribute}")
                self.missing_spans.add(span)
                continue
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, span))
        for name in self.missing:
            sys.stderr.write(f"perfbench: not traced, {name} is absent; its metrics are left out\n")

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def metrics(self, reports: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded since install, without
        those that need a span whose function was absent."""
        spans, counters = self.spans, self.counters
        names = self.names
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        precheck_solves = 0
        for i, (index, start, end, parent, _) in enumerate(spans):
            name = names[index]
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            if (
                name == "linalg.solve"
                and parent >= 0
                and names[spans[parent][0]] == "linalg.quotient"
            ):
                precheck_solves += 1
        out: dict[str, float] = {}
        for metric, span_names in SELF_TIME.items():
            out[metric] = sum(self_time.get(n, 0.0) for n in span_names)
        for metric, span_name in CALLS.items():
            out[metric] = calls.get(span_name, 0)
        action_rows = calls.get("cohomology.action_rows", 0)
        distinct = counters.get("action_rows.distinct", 0)
        candidates = counters.get("quotient.candidates", 0)
        elim_rows = counters.get("elim.rows", 0)
        out.update(
            {
                "models.build.per_report": calls.get("models.build", 0) / reports if reports else 0.0,
                "cohomology.action_rows.repeat_ratio": action_rows / distinct if distinct else 0.0,
                "linalg.quotient.precheck_solves": precheck_solves,
                "linalg.quotient.yield": counters.get("quotient.reps", 0) / candidates if candidates else 0.0,
                "elim.cells": counters.get("elim.cells", 0),
                "elim.entry_updates": counters.get("elim.entry_updates", 0),
                "elim.rank_ratio": counters.get("elim.pivots", 0) / elim_rows if elim_rows else 0.0,
                "elim.max_bits": counters.get("elim.max_bits", 0),
            }
        )
        sources = {**SELF_TIME, **{m: [s] for m, s in CALLS.items()}, **DERIVED}
        return {m: v for m, v in out.items() if not self.missing_spans.intersection(sources[m])}

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, item."""
        names = self.names
        with open(path, "w", encoding="ascii") as handle:
            for index, start, end, parent, item in self.spans:
                handle.write(json.dumps([names[index], start, end, parent, item]) + "\n")

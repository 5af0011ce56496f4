"""Spans and counters around calls into soe, installed from outside the package.

`Tracer.install()` replaces each traced function, in every soe module namespace
that binds it, with a wrapper that records a span (name, start, end, parent)
or bumps a counter; `uninstall()` puts the originals back. Spans stay in
memory until `dump()` writes them out. A layer's self time is the duration of
its spans minus the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# span name -> (module, attributes); "Class.method" names a method
SPANS = {
    "formats.parse_entity": ("soe.formats", ["parse_entity"]),
    "formats.emit_entity": ("soe.formats", ["emit_entity"]),
    "entity.Entity": ("soe.entity", ["Entity.__init__"]),
    "entity.relation_report": ("soe.entity", ["relation_report"]),
    "closure.eigen_closure_system": ("soe.closure", ["eigen_closure_system"]),
    "closure.intersection_closure": ("soe.closure", ["intersection_closure"]),
    "closure.ClosureSystem": ("soe.closure", ["ClosureSystem.__init__"]),
    "closure.entity_ortho_space": ("soe.closure", ["entity_ortho_space"]),
    "closure.ortho_closure_system": ("soe.closure", ["ortho_closure_system"]),
    "closure.validate_closure_axioms": ("soe.closure", ["validate_closure_axioms"]),
    "closure.closure_of": ("soe.closure", ["ClosureSystem.closure_of"]),
    "statprop.testable_sps": ("soe.statprop", ["testable_sps"]),
    "statprop.global_testable_sps": ("soe.statprop", ["global_testable_sps"]),
    "statprop.sps_to_closure": ("soe.statprop", ["sps_to_closure"]),
    "mixture.full_mixed_entity": ("soe.mixture", ["full_mixed_entity"]),
    "classify.classify": ("soe.classify", ["classify"]),
    "classify.predicates": ("soe.classify", [
        "is_outcome_determined", "is_state_determined", "is_experiment_determined",
        "is_central_atomic", "is_state_atomic", "is_experiment_atomic",
    ]),
    "morphism.verify_sub_entity": ("soe.morphism", ["verify_sub_entity"]),
    "morphism.preimage_continuity": ("soe.morphism", ["preimage_continuity"]),
    "morphism.verify_probabilistic_sub_entity": ("soe.morphism", ["verify_probabilistic_sub_entity"]),
    "probability.validate_measure": ("soe.probability", ["validate_measure"]),
    "quantum.verify_cq_sub_entity": ("soe.quantum", ["verify_cq_sub_entity"]),
    "cli.main": ("soe.cli", ["main"]),
}

# counter name -> (module, attribute): call counts only, no span, because these
# run up to millions of times per pass
CALLS = {
    "entity.implies.calls": ("soe.entity", "implies"),
    "entity.orthogonal.calls": ("soe.entity", "orthogonal"),
    "quantum.sq_probability.calls": ("soe.quantum", "sq_probability"),
    "quantum.cq_probability.calls": ("soe.quantum", "cq_probability"),
    "diagnostics.record.calls": ("soe.diagnostics", "Diagnostics.record"),
}

# every per-layer metric, in report order: (name, unit)
PER_LAYER = (
    [("cli.interpreter.ms", "ms"), ("cli.import.ms", "ms"), ("cli.numpy_import.ms", "ms"), ("cli.main.ms", "ms")]
    + [("formats.parse_entity.ms", "ms"), ("formats.emit_entity.ms", "ms"), ("formats.cells", "count")]
    + [("entity.Entity.ms", "ms"), ("entity.relation_report.ms", "ms"), ("entity.relation_pairs", "count"),
       ("entity.implies.calls", "count"), ("entity.orthogonal.calls", "count")]
    + [(f"closure.{name}.ms", "ms") for name in (
        "eigen_closure_system", "intersection_closure", "ClosureSystem", "entity_ortho_space",
        "ortho_closure_system", "validate_closure_axioms", "closure_of")]
    + [("closure.closure_of.calls", "count"), ("closure.generators", "count"), ("closure.members", "count")]
    + [("statprop.testable_sps.ms", "ms"), ("statprop.global_testable_sps.ms", "ms"),
       ("statprop.sps_to_closure.ms", "ms"), ("mixture.full_mixed_entity.ms", "ms")]
    + [("classify.classify.ms", "ms"), ("classify.predicates.ms", "ms"), ("classify.refused", "count")]
    + [("morphism.verify_sub_entity.ms", "ms"), ("morphism.preimage_continuity.ms", "ms"),
       ("morphism.verify_probabilistic_sub_entity.ms", "ms"), ("probability.validate_measure.ms", "ms")]
    + [("quantum.verify_cq_sub_entity.ms", "ms"), ("quantum.sq_probability.calls", "count"),
       ("quantum.cq_probability.calls", "count")]
    + [("diagnostics.record.calls", "count"), ("diagnostics.suppressed", "count"), ("trace.overhead.ms", "ms")]
)


def _resolve(module: str, attribute: str):
    """(owner object, attribute name) for 'f' or 'Class.method' in module."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self._undo = []

    # -- recording ------------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result)
            return result

        return traced

    def _calls(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks for the counters that read arguments or results ------------------------

    def _intersection_closure(self, fn):
        def generators_and_members(ground, generators):
            generators = list(generators)
            members = fn(ground, generators)
            self.counts["closure.generators"] += len(generators)
            self.counts["closure.members"] += len(members)
            return members

        return functools.wraps(fn)(generators_and_members)

    def _classify(self, fn, capacity_error):
        def refusals_counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except capacity_error:
                self.counts["classify.refused"] += 1
                raise

        return functools.wraps(fn)(refusals_counted)

    def _record(self, fn):
        counts = self.counts

        def suppressed_counted(diag, *args, **kwargs):
            before = diag._overflow
            result = fn(diag, *args, **kwargs)
            counts["diagnostics.suppressed"] += diag._overflow - before
            return result

        return functools.wraps(fn)(suppressed_counted)

    def _merge(self, fn):
        counts = self.counts

        def suppressed_counted(diag, other):
            before = diag._overflow
            fn(diag, other)
            # lines other already dropped were counted when they were recorded
            counts["diagnostics.suppressed"] += diag._overflow - before - other._overflow

        return functools.wraps(fn)(suppressed_counted)

    # -- installing ---------------------------------------------------------------------------

    def _replace(self, owner, name: str, wrapper) -> None:
        """Swap owner.name, and every soe module binding of the same object."""
        original = getattr(owner, name)
        targets = [(owner, name)]
        if not isinstance(owner, type):
            targets = [
                (module, attr)
                for module_name, module in list(sys.modules.items())
                if module is not None and (module_name == "soe" or module_name.startswith("soe."))
                for attr, value in list(vars(module).items())
                if value is original
            ]
        for target, attr in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, wrapper)

    def install(self) -> None:
        errors = importlib.import_module("soe.errors")
        for name, (module, attributes) in SPANS.items():
            for attribute in attributes:
                owner, attr = _resolve(module, attribute)
                fn = getattr(owner, attr)
                if name == "closure.intersection_closure":
                    fn = self._intersection_closure(fn)
                elif name == "classify.classify":
                    fn = self._classify(fn, errors.CapacityError)
                after = {
                    "formats.parse_entity": self._count_cells,
                    "entity.relation_report": self._count_pairs,
                }.get(name)
                self._replace(owner, attr, self._span(name, fn, after))
        for name, (module, attribute) in CALLS.items():
            owner, attr = _resolve(module, attribute)
            fn = getattr(owner, attr)
            if name == "diagnostics.record.calls":
                fn = self._record(fn)
            self._replace(owner, attr, self._calls(name, fn))
        owner, attr = _resolve("soe.diagnostics", "Diagnostics.merge")
        self._replace(owner, attr, self._merge(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    def _count_cells(self, document) -> None:
        entity = document.entity
        self.counts["formats.cells"] += len(entity.states) * len(entity.experiments)

    def _count_pairs(self, report) -> None:
        self.counts["entity.relation_pairs"] += sum(
            len(section.implications) + len(section.orthogonalities) for section in report.sections
        )

    # -- results ------------------------------------------------------------------------------

    def self_times(self) -> Counter:
        """Span name -> total self time in seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return totals

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass self milliseconds and counts for every traced layer."""
        out = {f"{name}.ms": 1000.0 * total / passes for name, total in self.self_times().items()}
        out.update({name: count / passes for name, count in self.counts.items()})
        return out

    def dump(self, path: str, header: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        spans = [[name, start - origin, end - origin, parent] for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "counts": dict(self.counts), "spans": spans}, handle)

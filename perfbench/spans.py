"""Span tracing installed from outside the program, for the traced run only.

Each layer boundary is a wrapper around a public function or method of an
``ncphase`` module.  A wrapper replaces every binding of the original inside
the package (``ncphase.representation.commutator`` as well as
``ncphase.algebra.commutator``), so calls between modules are seen too.
``uninstall`` puts the originals back.

A span records its name, parent, start, end, the operation it belongs to and
the exception type that ended it.  Spans stay in memory until ``write``.
A layer's self time is its span's duration minus the time its direct child
spans cover.  ``calls`` counts outermost spans only, so a builder that
dispatches to another builder is one call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from pathlib import Path

PACKAGE_MODULES = (
    "ncphase",
    "ncphase.algebra",
    "ncphase.representation",
    "ncphase.composite",
    "ncphase.dynamics",
    "ncphase.reports",
    "ncphase.cli",
)

#: (module, attribute, span name) of every wrapped function.
FUNCTIONS = (
    ("ncphase.algebra", "commutator", "algebra.commutator"),
    ("ncphase.algebra", "form_distance", "algebra.form_distance"),
    ("ncphase.representation", "build_representation", "representation.build"),
    ("ncphase.representation", "build_branch_rep", "representation.build"),
    ("ncphase.representation", "build_simple_rep", "representation.build"),
    ("ncphase.representation", "build_epsilon_rep", "representation.build"),
    ("ncphase.representation", "verify_nc_algebra", "representation.verify"),
    ("ncphase.representation", "branch_transform_duality", "representation.duality"),
    ("ncphase.representation", "branch_transform_residual", "representation.duality"),
    ("ncphase.representation", "check_branch_transform", "representation.duality"),
    ("ncphase.representation", "check_commutative_limit", "representation.limit"),
    ("ncphase.composite", "effective_params", "composite.effective_params"),
    ("ncphase.composite", "com_canonical", "composite.com_canonical"),
    ("ncphase.composite", "com_rep_algebraic", "composite.route_algebraic"),
    ("ncphase.composite", "com_simple_algebraic", "composite.route_algebraic"),
    ("ncphase.composite", "com_rep_direct", "composite.route_direct"),
    ("ncphase.composite", "com_simple_direct", "composite.route_direct"),
    ("ncphase.composite", "compare_com_reps", "composite.compare"),
    ("ncphase.composite", "compare_com_simple", "composite.compare"),
    ("ncphase.dynamics", "build_hamiltonian", "dynamics.build_hamiltonian"),
    ("ncphase.dynamics", "nc_initial_state", "dynamics.nc_initial_state"),
    ("scipy.linalg", "expm", "dynamics.expm"),
    ("ncphase.dynamics", "evolve", "dynamics.evolve"),
    ("ncphase.dynamics", "energy_drift", "dynamics.energy_drift"),
    ("ncphase.dynamics", "coordinate_spread", "dynamics.coordinate_spread"),
    ("ncphase.cli", "main", "cli.main"),
)

#: (module, class, method, span name) of every wrapped method.
METHODS = (
    ("ncphase.algebra", "LinearForm", "__add__", "algebra.form_add"),
    ("ncphase.algebra", "LinearForm", "__radd__", "algebra.form_add"),
    ("ncphase.algebra", "LinearForm", "__mul__", "algebra.form_scale"),
    ("ncphase.algebra", "LinearForm", "__rmul__", "algebra.form_scale"),
    ("ncphase.reports", "CheckReport", "to_dict", "reports.to_dict"),
)


def _terms(form) -> int:
    return len(form.terms) if hasattr(form, "terms") else 0


def _count_pair_terms(name):
    def before(counts, args, kwargs):
        counts[name + ".terms"] += _terms(args[0]) + _terms(args[1])
    return before


def _count_particles(counts, args, kwargs):
    counts["composite.particles"] += len(args[0].particles)


def _count_steps(counts, result):
    counts["dynamics.steps"] += len(result) - 1


BEFORE = {
    "algebra.commutator": _count_pair_terms("algebra.commutator"),
    "algebra.form_add": _count_pair_terms("algebra.form_add"),
    "composite.compare": _count_particles,
}
AFTER = {"dynamics.evolve": _count_steps}


class Tracer:
    def __init__(self) -> None:
        # [name, parent index or -1, op id, start ns, end ns, exception type]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts = self.counts
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counts, args, kwargs)
            record = [name, stack[-1] if stack else -1, self.op, clock(), 0, ""]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[4] = clock()
                stack.pop()
            if after is not None:
                after(counts, result)
            return result

        return wrapper

    def span(self, name: str, op: int, fn, *args):
        """Run ``fn(*args)`` as the root span of operation ``op``."""
        self.op = op
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.op = -1

    def install(self) -> None:
        """Wrap every layer boundary; needs ``ncphase`` imported."""
        import scipy.linalg  # noqa: F401  (expm is wrapped where ncphase finds it)

        modules = [sys.modules[m] for m in PACKAGE_MODULES]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original)
            for module in modules + [sys.modules[module_name]]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, method, self.wrap(name, cls.__dict__[method]))
        record_cls = sys.modules["ncphase.reports"].CheckRecord
        init = record_cls.__init__

        @functools.wraps(init)
        def counting_init(*args, **kwargs):
            self.counts["reports.checks"] += 1
            init(*args, **kwargs)

        self._patch(record_cls, "__init__", counting_init)

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost calls, self seconds, outermost rejections."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, _op, start, end, _err in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for i, (name, parent, _op, start, end, err) in enumerate(spans):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "rejected": 0})
            s["self_s"] += (end - start - child_ns[i]) * 1e-9
            if parent < 0 or spans[parent][0] != name:
                s["calls"] += 1
                s["rejected"] += bool(err)
        return stats

    def op_latencies(self, name: str) -> list[float]:
        return [(end - start) * 1e-9 for n, parent, _op, start, end, _err in self.spans if n == name and parent < 0]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns,error\n")
            for i, (name, parent, op, start, end, err) in enumerate(self.spans):
                fh.write(f"{i},{parent},{op},{name},{start},{end},{err}\n")

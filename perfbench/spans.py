"""In-memory span tracing of sgverify's layers, from outside the package.

`Tracer.install` rebinds every public function of the traced modules, in
every sgverify module that holds a reference to it, to a wrapper that
records a span (name, start, end, parent).  Carrier operations are only
counted: `compose` and `distance` run inside the tightest loops, where a
span per call would swamp what it measures.  `enumerate_outcomes` is a
generator, so its yields are counted and its time falls to its consumer.

Self times are computed after the run from the recorded spans: a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Layers whose public functions get spans; `levy` and `axioms` are left out.
TRACED_MODULES = ("laws", "rng", "rearrange", "inequalities", "corpus", "reports", "cli")

# Public helpers that do one scalar operation (or recurse into themselves)
# and are called per term inside other traced functions; a span each would
# cost more than the work it times.
UNTRACED = {
    "is_rational",
    "is_rational_number",
    "pow_value",
    "moment_growth_factor",
    "moment_growth_multiplier",
    "to_jsonable",
}

# Counters kept from a traced function's result.
COUNTERS = {
    "laws.exact_functional_law": lambda law: {"laws.exact_law_calls": 1},
    "laws.monte_carlo_law": lambda law: {"laws.mc_trials": law.trials},
    "rng.uniform_block": lambda block: {"rng.uniforms_drawn": block.size},
    "rearrange.tail_sum_inverse": lambda _: {"rearrange.tail_sum_inverse_calls": 1},
    "reports.canonical_json": lambda text: {"reports.bytes_out": len(text.encode("utf-8"))},
    "cli.main": lambda code: {"cli.calls": 1, "cli.nonzero_exits": int(code != 0)},
}


def _reports_in(result, report_types):
    if isinstance(result, report_types):
        return (result,)
    if isinstance(result, (tuple, list)):
        return tuple(r for r in result if isinstance(r, report_types))
    return ()


class Tracer:
    """Spans and counters for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        # hot counters live in one-element lists so wrappers avoid dict work
        self._compose = [0]
        self._distance = [0]
        self._undo: list[tuple] = []
        self._paused = False

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    @contextmanager
    def paused(self):
        """Run traced functions without recording (output hashing)."""
        before = self._paused
        self._paused = True
        try:
            yield
        finally:
            self._paused = before

    def snapshot(self) -> tuple[int, Counter]:
        """(span count, counters) at this moment, to delimit a round."""
        counts = Counter(self.counts)
        counts["semigroups.compose_calls"] = self._compose[0]
        counts["semigroups.distance_calls"] = self._distance[0]
        return len(self.start), counts

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted_generator(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            yielded = 0
            try:
                for item in fn(*args, **kwargs):
                    yielded += 1
                    yield item
            finally:
                counts[key] += yielded

        return wrapper

    def _after_hook(self, sv, span_name: str):
        """Counter update run on a traced function's result, or None."""
        counts = self.counts
        count = COUNTERS.get(span_name)
        if count is not None:
            return lambda result: counts.update(count(result))
        if span_name.startswith("inequalities."):
            report_types = (sv.reports.InequalityReport, sv.reports.RatioReport)
            inequality = sv.reports.InequalityReport

            def after(result):
                for report in _reports_in(result, report_types):
                    counts["inequalities.checks"] += 1
                    if report.degenerate:
                        counts["inequalities.degenerate"] += 1
                    elif isinstance(report, inequality) and not report.holds:
                        counts["inequalities.failed"] += 1

            return after
        return None

    def install(self, sv):
        """Wrap the traced layers of the sgverify modules held by `sv`."""
        package_modules = [getattr(sv, m) for m in sv.MODULES]
        replacements = {}
        for module_name in TRACED_MODULES:
            module = getattr(sv, module_name)
            for name, fn in vars(module).items():
                if (
                    name.startswith("_")
                    or name in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                span_name = f"{module_name}.{name}"
                if span_name == "laws.enumerate_outcomes":
                    wrapper = self._counted_generator("laws.outcomes_enumerated", fn)
                elif inspect.isgeneratorfunction(fn):
                    continue  # a span would time only the generator's creation
                else:
                    wrapper = self._timed(span_name, fn, self._after_hook(sv, span_name))
                replacements[id(fn)] = (fn, wrapper)
        for module in package_modules:
            for name, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, name, value))
                    setattr(module, name, hit[1])
        self._count_carrier_ops(sv.semigroups)

    def _count_carrier_ops(self, semigroups):
        base = semigroups.MetricSemigroup
        for cls in vars(semigroups).values():
            if not (inspect.isclass(cls) and issubclass(cls, base)) or cls is base:
                continue
            for op, cell in (("compose", self._compose), ("distance", self._distance)):
                fn = cls.__dict__.get(op)
                if fn is None:
                    continue
                self._undo.append((cls, op, fn))
                setattr(cls, op, _counting_method(fn, cell))

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def summarize(self, first: int, last: int) -> dict:
        """Per-function calls, inclusive and self seconds for spans
        [first, last), plus per-layer self seconds."""
        dur = [self.end[i] - self.start[i] for i in range(first, last)]
        own = list(dur)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                own[p - first] -= dur[i - first]
        functions: dict = {}
        layers: Counter = Counter()
        for k in range(last - first):
            name = self.names[self.span_name[first + k]]
            entry = functions.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[k]
            entry[2] += own[k]
            layers[name.split(".", 1)[0]] += own[k]
        return {
            "functions": {
                name: {"calls": c, "inclusive_s": inc, "self_s": own_s}
                for name, (c, inc, own_s) in sorted(functions.items())
            },
            "layers": dict(sorted(layers.items())),
        }

    def spans(self, first: int, last: int) -> dict:
        """Raw spans [first, last) in a compact, JSON-ready form."""
        return {
            "names": self.names,
            "fields": ["name", "start", "end", "parent"],
            "spans": [
                [self.span_name[i], self.start[i], self.end[i], self.parent[i]]
                for i in range(first, last)
            ],
        }


def _counting_method(fn, cell):
    @functools.wraps(fn)
    def method(self, a, b):
        cell[0] += 1
        return fn(self, a, b)

    return method

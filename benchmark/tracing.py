"""Spans and counts for the traced run, recorded from the benchmark's side of
each call into the program.

Every target is patched where the program looks it up (``pareto.residue_space``,
not ``residue.residue_space``) and restored afterwards.  A target a later
refactor removes is skipped; the metrics that need it are then reported as
absent instead of raising.
"""

from __future__ import annotations

import importlib
import resource
import time
from collections import Counter
from statistics import median

# key -> (module, attribute) patched in the traced run
TARGETS = {
    "cli": ("msrmp.cli", "main"),
    "parse": ("msrmp.cli", "parse_model"),
    "solve": ("msrmp.pareto", "solve"),
    "space": ("msrmp.pareto", "residue_space"),
    "evaluate": ("msrmp.pareto", "_feasible_keys"),
    "compare": ("msrmp.pareto", "_compare_keys"),
    "insert": ("msrmp.pareto", "_add_point"),
    "assemble": ("msrmp.pareto", "_assemble"),
    "mapback": ("msrmp.mapback", "enumerate_rmps"),
}

# Targets called once per comparison or per point.  Their wrappers cost about
# as much as the call itself, so they are installed only in counting
# operations, whose timings are not reported.
PER_CALL = ("compare", "insert")

# counts that must repeat exactly between two counting operations
EXACT_COUNTS = (
    "residue.points",
    "pareto.points_feasible",
    "pareto.compare_calls",
    "pareto.front_max",
    "pareto.front_size",
    "pareto.witnesses",
    "mapback.assignments",
    "mapback.rmp_total",
    "cli.output_bytes",
)

# high-water growth shows only in the first operation of a process
PEAKS = ("pareto.rss_growth_mb", "cli.rss_growth_mb")


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans (name, start, end, parent) and counts of one traced
    operation; reset() between operations.

    A counting tracer (count=True) wraps every target and reports the counts.
    A timing tracer leaves out the PER_CALL targets and reports the times.
    """

    def __init__(self, count, targets=TARGETS):
        self.count = count
        self.targets = targets
        self.absent = sorted(
            key for key, (mod, attr) in targets.items()
            if not hasattr(importlib.import_module(mod), attr)
        )
        self._saved = []
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.rss_growth = Counter()
        self.evaluate_s = 0.0

    def reset(self):
        # cleared in place: the installed wrappers hold these objects
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.rss_growth.clear()
        self.evaluate_s = 0.0

    # -- patching ---------------------------------------------------------

    def install(self):
        wrappers = {
            "cli": lambda f: self._span("cli.main", f, rss="cli"),
            "parse": lambda f: self._span("model.parse", f),
            "solve": self._solve,
            "space": self._space,
            "evaluate": self._evaluate,
            "compare": self._compare,
            "insert": self._insert,
            "assemble": lambda f: self._span("pareto.assemble", f),
            "mapback": self._mapback,
        }
        for key, (mod, attr) in self.targets.items():
            if key in self.absent or (key in PER_CALL and not self.count):
                continue
            module = importlib.import_module(mod)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[key](original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, rss=None):
        spans, stack, pc = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            before = _maxrss_mb() if rss else 0.0
            record[1] = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = pc()
                stack.pop()
                if rss:
                    self.rss_growth[rss] += _maxrss_mb() - before

        return wrapper

    def _solve(self, fn):
        timed = self._span("pareto.solve", fn, rss="pareto")

        def solve(*args, **kwargs):
            result = timed(*args, **kwargs)
            self.counts["front_size"] += len(result.entries)
            self.counts["witnesses"] += sum(len(e.residues) for e in result.entries)
            return result

        return solve

    def _space(self, fn):
        timed = self._span("residue.space", fn)

        def residue_space(*args, **kwargs):
            space = timed(*args, **kwargs)
            self.counts["points"] += space.size
            return space

        return residue_space

    def _evaluate(self, fn):
        """Time spent inside each next() of the feasible-point generator."""
        pc = time.perf_counter

        def feasible_keys(*args, **kwargs):
            gen = fn(*args, **kwargs)
            spent = 0.0
            n = 0
            try:
                while True:
                    t0 = pc()
                    try:
                        item = next(gen)
                    except StopIteration:
                        spent += pc() - t0
                        return
                    spent += pc() - t0
                    n += 1
                    yield item
            finally:
                self.evaluate_s += spent
                self.counts["feasible"] += n

        return feasible_keys

    def _compare(self, fn):
        counts = self.counts

        def compare_keys(p, q):
            counts["compare"] += 1
            return fn(p, q)

        return compare_keys

    def _insert(self, fn):
        counts = self.counts

        def add_point(front, key, payload):
            fn(front, key, payload)
            if len(front) > counts["front_max"]:
                counts["front_max"] = len(front)

        return add_point

    def _mapback(self, fn):
        timed = self._span("mapback.enumerate", fn)

        def enumerate_rmps(*args, **kwargs):
            enum = timed(*args, **kwargs)
            self.counts["assignments"] += sum(len(a) for a in enum.per_threat.values())
            self.counts["rmp_total"] += enum.total
            return enum

        return enumerate_rmps

    # -- metrics ----------------------------------------------------------

    def _seconds(self, name):
        return sum((end - start for n, start, end, _ in self.spans if n == name), 0.0)

    def _self_seconds(self, name):
        """Duration of the named spans minus what their direct children cover."""
        ids = {i for i, s in enumerate(self.spans) if s[0] == name}
        children = sum((s[2] - s[1] for s in self.spans if s[3] in ids), 0.0)
        return self._seconds(name) - children

    def metrics(self):
        """Per-layer metrics of the operation just traced (times from a
        timing tracer, counts from a counting one), and the names of those
        that cannot be measured because a target is gone."""
        c = self.counts
        feasible = c["feasible"]
        if self.count:
            rows = [
                ("residue.points", ("space",), lambda: c["points"]),
                ("pareto.points_feasible", ("evaluate",), lambda: feasible),
                ("pareto.compare_calls", ("compare",), lambda: c["compare"]),
                ("pareto.compares_per_point", ("compare", "evaluate"),
                 lambda: c["compare"] / feasible if feasible else 0.0),
                ("pareto.front_max", ("insert",), lambda: c["front_max"]),
                ("pareto.front_size", ("solve",), lambda: c["front_size"]),
                ("pareto.witnesses", ("solve",), lambda: c["witnesses"]),
                ("pareto.cull_yield", ("solve", "evaluate"),
                 lambda: c["front_size"] / feasible if feasible else 0.0),
                ("mapback.assignments", ("mapback",), lambda: c["assignments"]),
                ("mapback.rmp_total", ("mapback",), lambda: c["rmp_total"]),
            ]
        else:
            rows = [
                ("model.parse_s", ("parse",), lambda: self._seconds("model.parse")),
                ("residue.space_s", ("space",), lambda: self._seconds("residue.space")),
                ("pareto.evaluate_s", ("evaluate",), lambda: self.evaluate_s),
                ("pareto.cull_s", ("solve", "space", "evaluate", "assemble"),
                 lambda: self._self_seconds("pareto.solve") - self.evaluate_s),
                ("pareto.assemble_s", ("assemble",),
                 lambda: self._seconds("pareto.assemble")),
                ("pareto.rss_growth_mb", ("solve",),
                 lambda: float(self.rss_growth["pareto"])),
                ("mapback.enumerate_s", ("mapback",),
                 lambda: self._seconds("mapback.enumerate")),
                ("cli.render_s", ("cli", "parse", "solve", "mapback"),
                 lambda: self._self_seconds("cli.main")),
                ("cli.rss_growth_mb", ("cli",), lambda: float(self.rss_growth["cli"])),
            ]
        values = {}
        absent = []
        for name, needs, value in rows:
            if any(key in self.absent for key in needs):
                absent.append(name)
            else:
                values[name] = value()
        return values, absent


def combine(timed, counted, absent):
    """Per-layer metrics of a run, and the sorted names of the absent ones:
    the median of each time over the timing operations (RSS growth as its
    maximum), and the counts of the first counting operation."""
    values = {name: max(op[name] for op in timed) if name in PEAKS
              else median(op[name] for op in timed)
              for name in timed[0]}
    values.update(counted[0])
    absent = set(absent)
    if {"pareto.evaluate_s", "residue.points"} & absent:
        absent.add("pareto.evaluate_ns_per_point")
    else:
        points = values["residue.points"]
        values["pareto.evaluate_ns_per_point"] = (
            1e9 * values["pareto.evaluate_s"] / points if points else 0.0)
    return values, sorted(absent)

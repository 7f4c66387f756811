"""Seeded synthetic instance generation and benchmark runs.

Count columns are exact arithmetic and hardware independent; wall-clock and
peak-memory figures are environment measurements, reported but never asserted.
A cell's peak memory is what tracemalloc sees a second, untimed solve of the
cell allocate, so it belongs to that cell alone and costs its time nothing.
"""

import csv
import random
import time
from collections import namedtuple
from fractions import Fraction

from . import pareto
from .model import (
    DEFAULT_GOALS,
    DEFAULT_IMPACT_SCALE_MAX,
    Control,
    Goal,
    MitigationScale,
    ProtectionCriterion,
    RiskModel,
    Stakeholder,
    Threat,
)
from .residue import count_raw, count_reduced

# criteria per stakeholder, cycled; (4, 2) mirrors the running example
CRITERIA_COUNTS = (4, 2)


class BenchSpec(namedtuple("BenchSpec", "threat_counts controls_per_threat "
                                      "stakeholders seed mode timeout_secs")):
    """A benchmark sweep: one instance per threat count, each solved once,
    with a timeout in seconds per solve, or None."""

    __slots__ = ()

    def __new__(cls, threat_counts=(5, 6), controls_per_threat=4,
                stakeholders=2, seed=0, mode="goals", timeout_secs=None):
        if not threat_counts or min(threat_counts) < 1:
            raise ValueError("threat_counts must be >= 1")
        if controls_per_threat < 1 or stakeholders < 1:
            raise ValueError("counts must be >= 1")
        # a NaN deadline never passes and a negative one always has
        if timeout_secs is not None and not timeout_secs >= 0:
            raise ValueError("timeout_secs must be a number >= 0")
        return super().__new__(cls, threat_counts, controls_per_threat,
                               stakeholders, seed, mode, timeout_secs)

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make, so both pass the checks of __new__
        return cls(*fields)


class BenchRecord(namedtuple("BenchRecord", "threats controls_total raw_count "
                                          "reduced_count reduction_factor mode "
                                          "seconds peak_mem_mb front_size "
                                          "timed_out")):
    """One solved instance of a sweep: a row of the CSV."""

    __slots__ = ()

    def as_row(self):
        return [*self[:4], f"{float(self.reduction_factor):.6g}", self.mode,
                f"{self.seconds:.4f}", f"{self.peak_mem_mb:.3f}", self.front_size,
                int(self.timed_out)]


CSV_COLUMNS = list(BenchRecord._fields)


def _random_weights(rng, count):
    """count positive rationals summing exactly to 1."""
    parts = [rng.randint(1, 9) for _ in range(count)]
    total = sum(parts)
    return [Fraction(p, total) for p in parts]


def gen_instance(spec: BenchSpec, index=0, threat_count=None,
                 controls_per_threat=None) -> RiskModel:
    """Deterministic model from (seed, index): same inputs, identical model."""
    nt = threat_count if threat_count is not None else spec.threat_counts[0]
    q = (controls_per_threat if controls_per_threat is not None
         else spec.controls_per_threat)
    rng = random.Random(f"{spec.seed}:{index}:{nt}:{q}")

    goals = tuple(Goal(*g) for g in DEFAULT_GOALS)
    goal_ids = [g.id for g in goals]

    stakeholders = []
    for si in range(spec.stakeholders):
        ncrit = CRITERIA_COUNTS[si % len(CRITERIA_COUNTS)]
        weights = _random_weights(rng, ncrit)
        criteria = tuple(
            ProtectionCriterion(f"s{si+1}p{ci+1}", f"criterion {ci+1}", w)
            for ci, w in enumerate(weights)
        )
        stakeholders.append(Stakeholder(f"s{si+1}", f"stakeholder {si+1}", criteria))
    stakeholders = tuple(stakeholders)

    threats = []
    for ti in range(nt):
        affected = rng.sample(goal_ids, rng.randint(1, len(goal_ids)))
        affected = tuple(g for g in goal_ids if g in affected)  # catalog order
        controls = tuple(
            Control(f"t{ti+1}c{ci+1}", f"control {ci+1}") for ci in range(q)
        )
        threats.append(Threat(f"T{ti+1}", f"threat {ti+1}", affected, controls))
    threats = tuple(threats)

    aversion = {
        s.id: {
            c.id: {t.id: rng.randint(0, DEFAULT_IMPACT_SCALE_MAX) for t in threats}
            for c in s.criteria
        }
        for s in stakeholders
    }

    return RiskModel(
        stakeholders=stakeholders,
        threats=threats,
        goals=goals,
        aversion=aversion,
        scale=MitigationScale(),
    )


def _config(spec):
    """The solve config of a cell, with its deadline counted from now."""
    deadline = (None if spec.timeout_secs is None
                else time.monotonic() + spec.timeout_secs)
    return pareto.SolveConfig(mode=spec.mode, deadline=deadline)


def _peak_mem_mb(m, spec):
    """Peak traced allocation, in MB, of one more solve of the cell, from
    the traced size before it; a solve that times out reports its peak so
    far."""
    # imported here: it brings in pickle, which only a bench run needs
    import tracemalloc

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        pareto.solve(m, _config(spec))
    except pareto.SolveTimeout:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        if started:
            tracemalloc.stop()
    return (peak - base) / 2**20


def run_bench(spec: BenchSpec):
    """One record per instance, each solved once.  An instance hitting the
    timeout is recorded with timed_out=1, not raised."""
    records = []
    for index, nt in enumerate(spec.threat_counts):
        m = gen_instance(spec, index=index, threat_count=nt)
        raw = count_raw(m)
        reduced = count_reduced(m)
        cfg = _config(spec)
        t0 = time.perf_counter()
        timed_out = False
        front_size = 0
        try:
            front_size = len(pareto.solve(m, cfg))
        except pareto.SolveTimeout:
            timed_out = True
        elapsed = time.perf_counter() - t0
        records.append(BenchRecord(
            threats=nt,
            controls_total=nt * spec.controls_per_threat,
            raw_count=raw,
            reduced_count=reduced,
            reduction_factor=Fraction(raw, reduced),
            mode=spec.mode,
            seconds=elapsed,
            peak_mem_mb=_peak_mem_mb(m, spec),
            front_size=front_size,
            timed_out=timed_out,
        ))
    return records


def write_csv(records, fileobj):
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.as_row())

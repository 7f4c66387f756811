"""Seeded synthetic instance generation and benchmark runs.

Count columns are exact arithmetic and hardware independent; wall-clock and
peak-memory figures are environment measurements, reported but never asserted.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import pareto
from .model import (
    DEFAULT_GOALS,
    Control,
    Goal,
    MitigationScale,
    ProtectionCriterion,
    RiskModel,
    Stakeholder,
    Threat,
)
from .residue import count_raw, count_reduced

try:
    import resource
except ImportError:  # non-POSIX
    resource = None

CSV_COLUMNS = [
    "threats",
    "controls_total",
    "raw_count",
    "reduced_count",
    "reduction_factor",
    "mode",
    "strategy",
    "d",
    "seconds",
    "peak_mem_mb",
    "front_size",
    "timed_out",
]


@dataclass(frozen=True)
class BenchSpec:
    threat_counts: tuple = (5, 6)
    controls_per_threat: int = 4
    stakeholders: int = 2
    # criteria per stakeholder, cycled; (4, 2) mirrors the running example
    criteria_counts: tuple = (4, 2)
    goal_count: int = 6
    seed: int = 0
    mode: str = "goals"
    strategies: tuple = ("upfront", "chunk-collect", "chunk-carry")
    chunk_sizes: tuple = (4096,)
    timeout_secs: float | None = None
    impact_scale_max: int = 4

    def __post_init__(self):
        if not self.threat_counts or min(self.threat_counts) < 1:
            raise ValueError("threat_counts must be >= 1")
        if self.controls_per_threat < 1 or self.stakeholders < 1:
            raise ValueError("counts must be >= 1")
        if min(self.chunk_sizes, default=1) < 1:
            raise ValueError("chunk sizes must be >= 1")


@dataclass(frozen=True)
class BenchRecord:
    threats: int
    controls_total: int
    raw_count: int
    reduced_count: int
    reduction_factor: Fraction
    mode: str
    strategy: str
    d: int
    seconds: float
    peak_mem_mb: float | None
    front_size: int
    timed_out: bool

    def as_row(self):
        return [
            self.threats,
            self.controls_total,
            self.raw_count,
            self.reduced_count,
            f"{float(self.reduction_factor):.6g}",
            self.mode,
            self.strategy,
            self.d,
            f"{self.seconds:.4f}",
            "" if self.peak_mem_mb is None else f"{self.peak_mem_mb:.1f}",
            self.front_size,
            int(self.timed_out),
        ]


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

    goals = tuple(
        Goal(*DEFAULT_GOALS[i]) if i < len(DEFAULT_GOALS) else Goal(f"G{i+1}", f"G{i+1}")
        for i in range(spec.goal_count)
    )
    goal_ids = [g.id for g in goals]

    stakeholders = []
    for si in range(spec.stakeholders):
        ncrit = spec.criteria_counts[si % len(spec.criteria_counts)]
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

    il_max = spec.impact_scale_max
    aversion = {
        s.id: {
            c.id: {t.id: rng.randint(0, il_max) for t in threats}
            for c in s.criteria
        }
        for s in stakeholders
    }

    return RiskModel(
        stakeholders=stakeholders,
        threats=threats,
        goals=goals,
        aversion=aversion,
        scale=MitigationScale(impact_scale_max=il_max),
    )


def _peak_mem_mb():
    if resource is None:
        return None
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss_kb / 1024.0


def run_bench(spec: BenchSpec):
    """One record per (instance, strategy, chunk size) cell.  A cell hitting
    the timeout is recorded with timed_out=1, not raised."""
    records = []
    for index, nt in enumerate(spec.threat_counts):
        m = gen_instance(spec, index=index, threat_count=nt)
        raw = count_raw(m)
        reduced = count_reduced(m)
        for strategy in spec.strategies:
            for d in spec.chunk_sizes:
                deadline = None
                if spec.timeout_secs is not None:
                    deadline = time.monotonic() + spec.timeout_secs
                cfg = pareto.SolveConfig(
                    mode=spec.mode, strategy=strategy, chunk=d, deadline=deadline
                )
                t0 = time.perf_counter()
                timed_out = False
                front_size = 0
                try:
                    result = pareto.solve(m, cfg)
                    front_size = len(result)
                except pareto.SolveTimeout:
                    timed_out = True
                elapsed = time.perf_counter() - t0
                rec = BenchRecord(
                    threats=nt,
                    controls_total=nt * spec.controls_per_threat,
                    raw_count=raw,
                    reduced_count=reduced,
                    reduction_factor=Fraction(raw, reduced),
                    mode=spec.mode,
                    strategy=strategy,
                    d=d,
                    seconds=elapsed,
                    peak_mem_mb=_peak_mem_mb(),
                    front_size=front_size,
                    timed_out=timed_out,
                )
                records.append(rec)
    return records


def write_csv(records, fileobj):
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.as_row())

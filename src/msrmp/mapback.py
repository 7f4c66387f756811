"""Recover all mitigation mappings realizing a residue vector.

Per threat this is the enumeration of every length-n level vector over the
mitigation scale summing to n * (1 - x), excluding the all-max assignment: a
subset-sum-with-multiplicities instance.  Targets are scaled to integers over
the scale's common denominator before the search.  The naive recursive search
is paired with a dynamic-programming counter so truncated enumerations still
report exact totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .model import RiskModel
from .residue import residue_set


@dataclass(frozen=True)
class MitigationAssignment:
    threat_id: str
    levels: tuple[Fraction, ...]  # one level per control, model control order

    def as_dict(self, m: RiskModel):
        threat = m.threat(self.threat_id)
        return {c.id: lv for c, lv in zip(threat.controls, self.levels)}


@dataclass(frozen=True)
class RmpEnumeration:
    target: tuple                 # residue vector, model threat order
    per_threat: dict              # threat id -> list[MitigationAssignment]
    per_threat_counts: dict       # threat id -> exact count
    total: int                    # product of the per-threat counts
    truncated: bool


def _scaled_problem(m, tid, x):
    """Integer form of one threat's instance: (scaled levels descending,
    n, target sum, max level)."""
    threat = m.threat(tid)
    n = len(threat.controls)
    levels = m.scale.levels
    den = lcm(*(lv.denominator for lv in levels))
    scaled = sorted((int(lv * den) for lv in levels), reverse=True)
    target = n * (1 - Fraction(x)) * den
    if target.denominator != 1:
        return scaled, n, None, max(scaled)
    return scaled, n, int(target), max(scaled)


def assignments_for_residue(m: RiskModel, tid, x, limit=None):
    """Yield every assignment of scale levels to the threat's controls whose
    mean equals 1 - x, excluding all-max; lexicographic over control
    positions with higher levels first.  At most limit assignments are
    yielded; an unachievable residue raises even when limit is 0.  The
    levels are the scale's own Fraction objects."""
    emitted = 0
    for assignment in _assignments(m, tid, x):
        if limit is not None and emitted >= limit:
            return
        yield assignment
        emitted += 1
    if not emitted:
        raise ValueError(f"residue {x} not achievable for threat {tid!r}")


def _assignments(m, tid, x):
    """Every assignment realizing x, without limit; none if x is
    unachievable."""
    if len(m.threat(tid).controls) == 0:
        if Fraction(x) == 1:
            yield MitigationAssignment(tid, ())
        return
    scaled, n, target, top = _scaled_problem(m, tid, x)
    if target is None or not 0 <= target <= n * top:
        return
    den = lcm(*(lv.denominator for lv in m.scale.levels))
    level = {int(lv * den): lv for lv in m.scale.levels}
    lo = min(scaled)
    prefix = [0] * n

    def rec(pos, remaining):
        if pos == n:
            if remaining == 0 and prefix.count(top) < n:  # all-max excluded
                yield MitigationAssignment(tid, tuple(map(level.__getitem__, prefix)))
            return
        slots = n - pos - 1
        for lv in scaled:
            rest = remaining - lv
            if rest < slots * lo or rest > slots * top:
                continue
            prefix[pos] = lv
            yield from rec(pos + 1, rest)

    yield from rec(0, target)


def count_assignments(m: RiskModel, tid, x) -> int:
    """Number of assignments realizing residue x on one threat, by dynamic
    programming over (controls placed, remaining sum)."""
    if len(m.threat(tid).controls) == 0:
        if Fraction(x) != 1:
            raise ValueError(f"residue {x} not achievable for threat {tid!r}")
        return 1
    scaled, n, target, top = _scaled_problem(m, tid, x)
    if target is None or not 0 <= target <= n * top:
        raise ValueError(f"residue {x} not achievable for threat {tid!r}")
    counts = {0: 1}
    for _ in range(n):
        nxt = {}
        for s, c in counts.items():
            for lv in scaled:
                t = s + lv
                if t <= target:
                    nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    total = counts.get(target, 0)
    if target == n * top:
        total -= 1  # the unique all-max assignment
    if total == 0:
        raise ValueError(f"residue {x} not achievable for threat {tid!r}")
    return total


def enumerate_rmps(m: RiskModel, x, limit=None) -> RmpEnumeration:
    """All mitigation mappings realizing the residue vector, threat by
    threat.  The exact total count is reported even when per-threat emission
    is truncated by limit."""
    tids = m.threat_ids()
    if isinstance(x, dict):
        xvec = tuple(Fraction(x[t]) for t in tids)
    else:
        xvec = tuple(Fraction(v) for v in x)
        if len(xvec) != len(tids):
            raise ValueError(
                f"residue vector has {len(xvec)} entries, expected {len(tids)}"
            )
    per_threat = {}
    per_counts = {}
    truncated = False
    for tid, xt in zip(tids, xvec):
        per_counts[tid] = count_assignments(m, tid, xt)
        per_threat[tid] = list(assignments_for_residue(m, tid, xt, limit=limit))
        if limit is not None and per_counts[tid] > len(per_threat[tid]):
            truncated = True
    return RmpEnumeration(
        target=xvec,
        per_threat=per_threat,
        per_threat_counts=per_counts,
        total=prod(per_counts[t] for t in tids),
        truncated=truncated,
    )


def count_rmps(m: RiskModel, x) -> int:
    """Exact number of complete risk-management policies realizing the
    residue vector: product over threats of the per-threat counts."""
    tids = m.threat_ids()
    if isinstance(x, dict):
        xvec = [x[t] for t in tids]
    else:
        xvec = list(x)
    return prod(count_assignments(m, tid, xt) for tid, xt in zip(tids, xvec))

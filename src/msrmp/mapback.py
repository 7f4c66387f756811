"""Recover all mitigation mappings realizing a residue vector.

Per threat this is the enumeration of every length-n level vector over the
mitigation scale summing to n * (1 - x), excluding the all-max assignment: a
subset-sum-with-multiplicities instance.  Sums are integers over the scale's
common denominator, and residue.level_counts gives, for every number of
controls, how many level vectors reach each sum.  That one table answers the
exact count and guides the listing: top down it tells how many completions
each partial sum must supply, and bottom up each partial sum's completions
are built once, as suffixes that every row ending in them shares.  The
listing never walks into a dead end.

One call that maps back many vectors shares a `listed` dict between them.
It holds each level-sum table, under its number of controls, and each
assignment list, under its (threat id, residue): every table is built once
and every distinct pair is listed once.  A dict serves one model and one
limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .model import RiskModel
from .residue import level_counts, residue_vector

# listings above this many assignments, for one threat or in all, are refused
# unless a limit bounds them: they would take minutes and outgrow memory
MAX_ASSIGNMENTS = 10**6


@dataclass(frozen=True, slots=True)
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


def _instance(m, tid, x, listed=None):
    """One threat's instance: (grid, counts, target).  grid pairs each
    scaled level, descending, with the scale's own Fraction; counts is the
    level-sum table, taken from listed when it holds one; target is the
    integer sum realizing x.  The all-max vector is excluded, and it alone
    reaches the greatest sum (n > 0), so that sum is not achievable."""
    x = Fraction(x)
    n = len(m.threat(tid).controls)
    if listed is None:
        listed = {}
    if n not in listed:
        listed[n] = level_counts(m.scale.levels, n)
    den, counts = listed[n]
    grid = sorted(((int(lv * den), lv) for lv in m.scale.levels), reverse=True)
    target = n * (1 - x) * den
    if (target.denominator != 1 or not counts[n].get(int(target))
            or n > 0 and target == n * grid[0][0] or n == 0 and x != 1):
        raise ValueError(f"residue {x} not achievable for threat {tid!r}")
    return grid, counts, int(target)


def _walk(grid, counts, target, stop, heads):
    """The first stop completions of n levels summing to target, in
    lexicographic order with higher levels first, each as the tuple of
    heads[j][i], the symbol of grid index i at position j.

    A node is a sum left for the k positions still to fill.  Top down, each
    node gives its children, in grid order, as many completions as it still
    needs, up to each child's count, and stops once it has enough; a child
    wants the most any parent gives it.  Bottom up, a node's list is its
    head before each of its children's lists, cut to what it still needs,
    and a child's list is dropped once its last parent has read it.
    Nothing recurses and no row is walked position by position, so the
    number of controls is not bounded by the recursion limit."""
    n = len(counts) - 1
    scaled = [s for s, _ in grid]
    wants = [None] * n + [{target: min(stop, counts[n][target])}]
    readers = [{} for _ in range(n)]
    for k in range(n, 0, -1):
        below, want, read = counts[k - 1], {}, readers[k - 1]
        for s, need in wants[k].items():
            for v in scaled:
                have = below.get(s - v)
                if have:
                    give = min(need, have)
                    if want.get(s - v, 0) < give:
                        want[s - v] = give
                    read[s - v] = read.get(s - v, 0) + 1
                    need -= give
                    if not need:
                        break
        wants[k - 1] = want
    lists = {0: [()]}
    for k in range(1, n + 1):
        done, read = {}, readers[k - 1]
        for s, need in wants[k].items():
            rows = []
            for v, head in zip(scaled, heads[n - k]):
                tails = lists.get(s - v)
                if tails is None:
                    continue
                if len(tails) > need:
                    tails = tails[:need]
                head = (head,)
                rows += [head + t for t in tails]
                read[s - v] -= 1
                if not read[s - v]:
                    del lists[s - v]
                need -= len(tails)
                if not need:
                    break
            done[s] = rows
        lists = done
    return lists[target]


def listing(m: RiskModel, tid, x, heads, limit=None, listed=None) -> list:
    """Every assignment of scale levels to the threat's controls whose mean
    equals 1 - x, excluding all-max, as the tuple of heads[j][level] over
    the control positions j: lexicographic over control positions with
    higher levels first.  At most limit assignments are listed; an
    unachievable residue raises even when limit is 0.  A listed dict, when
    given, lends and keeps the level table."""
    grid, counts, target = _instance(m, tid, x, listed)
    if limit == 0:
        return []
    stop = counts[-1][target] if limit is None else limit
    return _walk(grid, counts, target, stop,
                 [[h[lv] for _, lv in grid] for h in heads])


def assignments_for_residue(m: RiskModel, tid, x, limit=None, listed=None):
    """The listing of residue x on one threat as MitigationAssignments, whose
    levels are the scale's own Fraction objects.  A pair already in listed
    returns the list listed there, and a new one is stored."""
    x = Fraction(x)
    if listed is not None and (tid, x) in listed:
        return listed[tid, x]
    own = {lv: lv for lv in m.scale.levels}
    rows = listing(m, tid, x, [own] * len(m.threat(tid).controls), limit, listed)
    assignments = [MitigationAssignment(tid, levels) for levels in rows]
    if listed is not None:
        listed[tid, x] = assignments
    return assignments


def count_assignments(m: RiskModel, tid, x, listed=None) -> int:
    """Number of assignments realizing residue x on one threat."""
    _, counts, target = _instance(m, tid, x, listed)
    return counts[-1][target]


def listing_counts(m: RiskModel, vectors, limit=None, listed=None) -> list:
    """Exact assignment count per threat of each residue vector, as one dict
    per vector.  Without a limit, before anything is listed, a threat with
    more than MAX_ASSIGNMENTS assignments is refused, and then so is a
    listing whose total over all threats and vectors exceeds it."""
    per_vector = []
    for x in vectors:
        counts = {}
        for tid, xt in residue_vector(m, x).items():
            counts[tid] = count_assignments(m, tid, xt, listed)
            if limit is None and counts[tid] > MAX_ASSIGNMENTS:
                raise ValueError(
                    f"residue {xt} of threat {tid!r} has {counts[tid]} assignments, "
                    f"more than {MAX_ASSIGNMENTS} to list without a limit"
                )
        per_vector.append(counts)
    total = sum(sum(counts.values()) for counts in per_vector)
    if limit is None and total > MAX_ASSIGNMENTS:
        raise ValueError(
            f"the listing has {total} assignments in all, more than "
            f"{MAX_ASSIGNMENTS} to list without a limit"
        )
    return per_vector


def enumerate_rmps(m: RiskModel, x, limit=None, listed=None) -> RmpEnumeration:
    """All mitigation mappings realizing the residue vector, threat by
    threat.  Every threat is counted before any is listed, and the exact
    total count is reported even when per-threat listing is truncated by
    limit.  Calls that share listed share its tables and assignment
    lists: a (threat, residue) pair listed before reuses its list."""
    xvec = residue_vector(m, x)
    (per_counts,) = listing_counts(m, [xvec], limit, listed)
    per_threat = {
        tid: assignments_for_residue(m, tid, xt, limit, listed)
        for tid, xt in xvec.items()
    }
    return RmpEnumeration(
        target=tuple(xvec.values()),
        per_threat=per_threat,
        per_threat_counts=per_counts,
        total=prod(per_counts.values()),
        truncated=any(per_counts[t] > len(a) for t, a in per_threat.items()),
    )


def count_rmps(m: RiskModel, x) -> int:
    """Exact number of complete risk-management policies realizing the
    residue vector: product over threats of the per-threat counts."""
    return prod(
        count_assignments(m, tid, xt) for tid, xt in residue_vector(m, x).items()
    )

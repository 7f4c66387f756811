"""Recover all mitigation mappings realizing a residue vector.

Per threat this is the enumeration of every length-n level vector over the
mitigation scale summing to n * (1 - x), excluding the all-max assignment: a
subset-sum-with-multiplicities instance.  Sums are integers over the scale's
common denominator, and the scale's level_counts gives, for every number
of controls, how many level vectors reach each sum.  That one table answers
the exact count and guides the listing: top down it tells how many completions
each partial sum must supply, and bottom up each partial sum's completions
are built once, as suffixes that every row ending in them shares.  The
listing never walks into a dead end.  The rows of the first controls are
never built: each path through them is a prefix, and the paths go deeper
while a listing of r rows has at most isqrt(r) of them.  A listing is thus
a Listing of at most isqrt(r) groups, each a prefix of control symbols with
the shared list of tails it extends, and a writer renders each group at
once.

The scale builds each table once per number of controls and keeps it, so
solve, counts and map-back share it.  One call that maps back many vectors
shares a `listed` dict between them, which holds the count and the list of
each (threat id, residue) pair: every distinct pair is counted once and
listed once.  A dict serves one model, one limit and one form of heads.
"""

from collections import namedtuple
from math import isqrt, prod

from .model import RiskModel, rat
from .residue import residue_vector

# listings above this many assignments, for one threat or in all, are refused
# unless a limit bounds them: they would take minutes and outgrow memory
MAX_ASSIGNMENTS = 10**6


class MitigationAssignment(namedtuple("MitigationAssignment", "threat_id levels")):
    """One threat's levels, one per control in model control order."""

    __slots__ = ()

    def as_dict(self, m: RiskModel):
        threat = m.threat(self.threat_id)
        return {c.id: lv for c, lv in zip(threat.controls, self.levels)}


# target: the residue vector, model threat order; per_threat: threat id ->
# its listing; per_threat_counts: threat id -> exact count; total: their
# product; truncated: whether a limit cut a listing
RmpEnumeration = namedtuple("RmpEnumeration", "target per_threat "
                            "per_threat_counts total truncated")


def _check_limit(limit):
    """Refuse a listing limit that is neither None nor an int >= 0."""
    if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int)
                              or limit < 0):
        raise ValueError(f"limit must be None or an integer >= 0, got {limit!r}")


def _instance(m, tid, x):
    """One threat's instance: (grid, counts, target).  x is read by
    model.rat, and a residue that the scale's residue_sums do not list is
    refused.  grid pairs each scaled level, descending, with the scale's own
    Fraction; counts is the scale's level-sum table; target is the integer
    sum of the n scaled levels that realizes x."""
    x = rat(x, f"residue {tid!r}")
    n = len(m.threat(tid).controls)
    sums = m.scale.residue_sums(n)
    if x not in sums:
        raise ValueError(f"residue {x} not achievable for threat {tid!r}")
    den, counts = m.scale.level_counts(n)
    grid = sorted(((int(lv * den), lv) for lv in m.scale.levels), reverse=True)
    return grid, counts, sums[x]


class Listing:
    """A listing's rows as groups: each group is a prefix, the symbols of
    any number of first controls, with the list of tails that it extends.
    Groups hold at least one tail each, and the tails of a group all have
    the same length, so a group's rows are prefix + tail for each of its
    tails.  Tails lists may be shared between groups.  len() is the number
    of rows, and iteration yields the rows, each as one tuple, in order."""

    __slots__ = ("groups", "_len")

    def __init__(self, groups=()):
        self.groups = list(groups)
        self._len = sum(len(tails) for _, tails in self.groups)

    def __len__(self):
        return self._len

    def __iter__(self):
        for prefix, tails in self.groups:
            for tail in tails:
                yield prefix + tail

    def __eq__(self, other):
        if isinstance(other, (Listing, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


def _walk(grid, counts, target, stop, heads):
    """The first stop completions of n levels summing to target, in
    lexicographic order with higher levels first, each as the tuple of
    heads[j][i], the symbol of grid index i at position j, as a Listing.

    A node is a sum left for the k positions still to fill.  Top down, each
    node gives its children, in grid order, as many completions as it still
    needs, up to each child's count, and stops once it has enough.  The
    paths from the top node grow one position at a time while their
    children cannot outnumber isqrt(size), size being the number of rows
    listed; each path is a prefix, whose rows are never built, and its
    tails are the list of the node it reaches, cut to what the path needs.
    Below the paths a child wants the most any parent gives it, and bottom
    up a node's list is its head before each of its children's lists, cut
    to what it still needs; a child's list is dropped once its last parent
    has read it.  So a large listing's lists hold few of its rows, and a
    small one does not break into one-row groups.  Nothing recurses and no
    row is walked position by position, so the number of controls is not
    bounded by the recursion limit."""
    n = top = len(counts) - 1
    scaled = [s for s, _ in grid]
    size = min(stop, counts[n][target])
    # the paths through the levels above top: (prefix, node, need)
    paths = [((), target, size)]
    while top and len(paths) * len(grid) <= isqrt(size):
        below, into = counts[top - 1], []
        for prefix, s, need in paths:
            for v, head in zip(scaled, heads[n - top]):
                have = below.get(s - v)
                if have:
                    give = min(need, have)
                    into.append((prefix + (head,), s - v, give))
                    need -= give
                    if not need:
                        break
        paths, top = into, top - 1
    wants = [None] * top + [{}]
    for _, s, need in paths:
        if wants[top].get(s, 0) < need:
            wants[top][s] = need
    readers = [{} for _ in range(top)]
    for k in range(top, 0, -1):
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
    for k in range(1, top + 1):
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
    return Listing((prefix, lists[s][:need] if len(lists[s]) > need else lists[s])
                   for prefix, s, need in paths)


def listing(m: RiskModel, tid, x, heads, limit=None) -> Listing:
    """Every assignment of scale levels to the threat's controls whose mean
    equals 1 - x, excluding all-max, as the tuple of heads[j][level] over
    the control positions j: lexicographic over control positions with
    higher levels first.  At most limit assignments are listed; an
    unachievable residue raises even when limit is 0."""
    _check_limit(limit)
    grid, counts, target = _instance(m, tid, x)
    if limit == 0:
        return Listing()
    stop = counts[-1][target] if limit is None else limit
    return _walk(grid, counts, target, stop,
                 [[h[lv] for _, lv in grid] for h in heads])


def assignments_for_residue(m: RiskModel, tid, x, limit=None):
    """The listing of residue x on one threat as MitigationAssignments, whose
    levels are the scale's own Fraction objects."""
    own = {lv: lv for lv in m.scale.levels}
    rows = listing(m, tid, x, [own] * len(m.threat(tid).controls), limit)
    return [MitigationAssignment(tid, levels) for levels in rows]


def count_assignments(m: RiskModel, tid, x) -> int:
    """Number of assignments realizing residue x on one threat."""
    _, counts, target = _instance(m, tid, x)
    return counts[-1][target]


def listing_counts(m: RiskModel, vectors, limit=None, listed=None) -> list:
    """Exact assignment count per threat of each residue vector, as one dict
    per vector.  Without a limit, before anything is listed, a threat with
    more than MAX_ASSIGNMENTS assignments is refused, and then so is a
    listing whose total over all threats and vectors exceeds it.  Given
    listed, each distinct pair is counted once: its count is read from
    there, or kept there with no list yet."""
    _check_limit(limit)
    listed = {} if listed is None else listed
    per_vector = []
    for x in vectors:
        counts = {}
        for tid, xt in residue_vector(m, x).items():
            if (tid, xt) not in listed:
                listed[tid, xt] = (count_assignments(m, tid, xt), None)
            counts[tid] = listed[tid, xt][0]
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


def enumerate_rmps(m: RiskModel, x, limit=None, listed=None,
                   heads=None) -> RmpEnumeration:
    """All mitigation mappings realizing the residue vector, threat by
    threat.  Every threat is counted before any is listed, and the exact
    total count is reported even when per-threat listing is truncated by
    limit.  Given heads (threat id -> listing's per-control symbol
    tables), each list is listing's Listing, else MitigationAssignments.
    Calls that share listed reuse the count and list of a pair met before."""
    xvec = residue_vector(m, x)
    listed = {} if listed is None else listed
    (per_counts,) = listing_counts(m, [xvec], limit, listed)
    for tid, xt in xvec.items():
        count, rows = listed[tid, xt]
        if rows is None:
            rows = (listing(m, tid, xt, heads[tid], limit) if heads
                    else assignments_for_residue(m, tid, xt, limit))
            listed[tid, xt] = (count, rows)
    per_threat = {tid: listed[tid, xt][1] for tid, xt in xvec.items()}
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

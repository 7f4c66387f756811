"""Dominance, non-dominated front extraction by branch and bound over the
residue space (and by one culling pass over a point stream), and the
risk-appetite constrained variant.

Internally a feasible point is carried as an integer pair (nums, den) with
objective component s equal to nums[s] / den and den > 0; the scaling is
uniform per model and mode, so dominance can be decided with integer
cross-multiplications instead of Fraction arithmetic.  Public results are
exact Fractions.
"""

import itertools
import time
from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import add

from . import impact
from .model import Record, RiskModel, rat
from .residue import count_raw, residue_space, vector_at

# solve_direct_oracle refuses raw policy spaces larger than this
ORACLE_CAP = 10**6


class SolveTimeout(Exception):
    """Raised when a solve exceeds its deadline (used by the bench harness)."""


class SolveConfig(namedtuple("SolveConfig", "mode strategy bounds "
                                          "exclusive_bounds deadline")):
    """How to solve: the objective mode; the strategy, only "upfront", kept
    while benchmark/worker.py still passes it; lower bounds on the objective
    per stakeholder id (risk appetite), strict if exclusive_bounds; and a
    time.monotonic() deadline, or None."""

    __slots__ = ()

    def __new__(cls, mode="goals", strategy="upfront", bounds=None,
                exclusive_bounds=False, deadline=None):
        if mode not in impact.MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if strategy != "upfront":
            raise ValueError(f"unknown strategy {strategy!r}")
        # exact copies, so that neither a binary float nor a later change
        # to the caller's dict reaches the solve
        bounds = {sid: rat(v, f"bounds.{sid}") for sid, v in (bounds or {}).items()}
        if any(v < 0 for v in bounds.values()):
            raise ValueError("risk-appetite bounds must be nonnegative")
        return super().__new__(cls, mode, strategy, bounds, exclusive_bounds,
                               deadline)

    @classmethod
    def _make(cls, fields):
        # _replace builds through _make, so both pass the checks of __new__
        return cls(*fields)


# objective: per stakeholder, exact Fractions; residues: the residue vectors
# achieving it, in enumeration order
FrontEntry = namedtuple("FrontEntry", "objective residues")


class ParetoFront(Record):
    """The front entries, sorted lexicographically by objective; len() is
    their number."""

    __slots__ = ("entries",)

    @property
    def feasible(self):
        return bool(self.entries)

    def objectives(self):
        return [e.objective for e in self.entries]

    def __len__(self):
        return len(self.entries)


def dominates(p, q) -> bool:
    """True iff p is componentwise <= q with at least one strict component."""
    if len(p) != len(q):
        raise ValueError(f"dimension mismatch: {len(p)} vs {len(q)}")
    return all(a <= b for a, b in zip(p, q)) and any(a < b for a, b in zip(p, q))


# key comparison outcomes
_EQ, _DOM, _DOMBY, _INC = range(4)


def _compare_keys(p, q):
    """Compare two (nums, den) ratio points; den > 0 on both sides."""
    pn, pd = p
    qn, qd = q
    p_le = p_ge = True
    for a, b in zip(pn, qn):
        left = a * qd
        right = b * pd
        if left < right:
            p_ge = False
        elif left > right:
            p_le = False
    if p_le and p_ge:
        return _EQ
    if p_le:
        return _DOM
    if p_ge:
        return _DOMBY
    return _INC


def _add_point(front, key, payload):
    """Insert one point into a mutable front (list of [key, payloads]) kept
    sorted by the first objective.

    payload is a list of opaque achieving witnesses (ordinals or residue
    vectors); equal points merge payloads in arrival order.  Dominators and
    equals can only sit where r0 <= the point's r0, searched nearest first;
    dominated entries only where r0 >= it.  With one or two objectives the
    front's r0 are distinct and the later objective falls as r0 rises, so the
    nearest entry decides alone and the dominated entries are one run."""
    nums, den = key
    n0 = nums[0]
    size = len(front)
    lo, hi = 0, size
    while lo < hi:  # first entry whose r0 >= the point's r0
        mid = (lo + hi) // 2
        e = front[mid][0]
        if e[0][0] * den < n0 * e[1]:
            lo = mid + 1
        else:
            hi = mid
    while hi < size and front[hi][0][0][0] * den == n0 * front[hi][0][1]:
        hi += 1
    planar = len(nums) <= 2
    for i in range(hi - 1, -1, -1):
        entry = front[i]
        cmp = _compare_keys(entry[0], key)
        if cmp == _EQ:
            entry[1].extend(payload)
            return
        if cmp == _DOM:
            return
        if planar:
            break
    if planar:
        end = lo
        while end < size and _compare_keys(key, front[end][0]) == _DOM:
            end += 1
        front[lo:end] = [[key, list(payload)]]
    else:
        front[lo:] = [[key, list(payload)]] + [
            e for e in front[lo:] if _compare_keys(key, e[0]) != _DOM]


def _ratio_key(objective):
    """(nums, den) key of an exact objective point over a common denominator."""
    obj = [Fraction(v) for v in objective]
    den = lcm(*(v.denominator for v in obj))
    return tuple(v.numerator * (den // v.denominator) for v in obj), den


def front(points) -> ParetoFront:
    """Exact non-dominated set of a finite stream of
    (objective_point, residue_vector) pairs, culled in arrival order; equal
    points merge."""
    culled = []
    for obj, res in points:
        _add_point(culled, _ratio_key(obj), [tuple(res)])
    return _assemble(culled, tuple)


class _Evaluator:
    """The objective fold of impact._fold scaled to integers and tabulated
    per threat: tables[i][d] is the (nums, den) contribution of digit d of
    threat i, and base the denominator of criteria mode (0 in goals mode)."""

    def __init__(self, m: RiskModel, mode, space):
        self.model = m
        # scale all residues to a common integer grid
        dens = [x.denominator for rs in space.sets for x in rs.residues]
        scale = lcm(*dens) if dens else 1
        num, den = impact._fold(m, mode)
        k = lcm(*(c.denominator for c in itertools.chain(*num, den or ())))
        coef = [[int(c * k) for c in row] for row in num]
        cden = [0] * len(space.sets) if den is None else [int(c * k) for c in den]
        self.base = k * scale if den is None else 0
        self.tables = [
            [(tuple(row[i] * x for row in coef), cden[i] * x)
             for x in (int(r * scale) for r in rs.residues)]
            for i, rs in enumerate(space.sets)
        ]

    def bound_tests(self, bounds, exclusive):
        """Compile exact bounds into (stakeholder index, p, q, e) integer
        tests: keep the point iff nums[i] * q >= p * den + e, where e is 1
        for an exclusive bound and 0 otherwise (on integers, a > b iff
        a >= b + 1)."""
        sids = self.model.stakeholder_ids()
        tests = []
        for sid, lb in bounds.items():
            if sid not in sids:
                raise KeyError(f"unknown stakeholder {sid!r} in bounds")
            tests.append((sids.index(sid), lb.numerator, lb.denominator,
                          int(exclusive)))
        return tests


def _fails(num, den, p, q, e):
    """True iff the ratio num / den fails the bound test (i, p, q, e) of
    _Evaluator.bound_tests."""
    return num * q < p * den + e


def _feasible_keys(ev, tests, deadline):
    """Yield (key, ordinal) over the whole space in mixed-radix order,
    filtered by the risk-appetite bounds.  The leading threats' rows are
    summed once per head; each point then adds one row of the last threat."""
    zero = (0,) * len(ev.model.stakeholders)
    *lead, last = [(zero, ev.base)], *(ev.tables or [[(zero, 0)]])
    ordinal = 0
    for head in itertools.product(*lead):
        if deadline is not None and time.monotonic() > deadline:
            raise SolveTimeout
        head_nums = list(map(sum, zip(*(n for n, _ in head))))
        head_den = sum(d for _, d in head)
        for row_nums, row_den in last:
            nums = tuple(map(add, head_nums, row_nums))
            den = head_den + row_den
            if not any(_fails(nums[si], den, p, q, e) for si, p, q, e in tests):
                yield (nums, den), ordinal
            ordinal += 1


def _assemble(culled, witness) -> ParetoFront:
    """Public front of culled (key, payloads) pairs, sorted by objective;
    witness maps a payload to its residue vector.  Repeated payloads
    collapse, keeping arrival order."""
    entries = [
        FrontEntry(
            objective=tuple(Fraction(n, den) for n in nums),
            residues=tuple(witness(p) for p in dict.fromkeys(payloads)),
        )
        for (nums, den), payloads in culled
    ]
    entries.sort(key=lambda e: e.objective)
    return ParetoFront(tuple(entries))


def _extreme(a, b, start, rows, low):
    """Exact minimum (low) or maximum of (a + sum_T n_T x_T) / (b + sum_T d_T x_T)
    with each remaining x_T at its lowest or highest residue, as (num, den).
    rows holds per remaining threat the one-stakeholder table rows of its
    lowest and highest residue, (n lo, d lo, n hi, d hi); start sums the lo
    (low) or hi rows, the first vertex tried.  Dinkelbach's iteration: with
    lambda the current ratio, put each x_T at lo where n_T - lambda d_T is
    positive (at hi for the maximum), until the ratio stops moving.
    Residues are positive, so the sign of that term is the sign of
    n hi * den - num * d hi."""
    num, den = a + start[0], b + start[1]
    while True:
        n2, d2 = a, b
        for ln, ld, hn, hd in rows:
            if (hn * den > num * hd) == low:
                n2 += ln
                d2 += ld
            else:
                n2 += hn
                d2 += hd
        if n2 * den == num * d2:
            return num, den
        num, den = n2, d2


def _bisect(front, before):
    """Length of the longest prefix of the front on whose keys before holds;
    it must hold on a prefix."""
    lo, hi = 0, len(front)
    while lo < hi:
        mid = (lo + hi) // 2
        if before(front[mid][0]):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _dominated(front, ideal, lo, planar):
    """True iff an entry of the front, sorted by r0, strictly dominates the
    point whose component s is the ratio ideal[s] = (num, den).  Only the
    first lo entries, those with r0 <= the point's, can; with one or two
    objectives the last of them has the least r1, so it decides alone."""
    for (nums, den), _ in front[max(lo - 1, 0) if planar else 0:lo]:
        strict = False
        for e, (n, d) in zip(nums, ideal):
            left = e * d
            right = n * den
            if left > right:
                break
            strict = strict or left < right
        else:
            if strict:
                return True
    return False


def _separated(front, ideal, lo, nums, den, box):
    """With two objectives: True iff a line w.y = L, which no completion of
    the node lies below, leaves every completion strictly dominated.

    The points above the ideal point that the two-objective front leaves
    undominated lie in open cells whose corners are its local nadirs (r0 of
    one entry, r1 of the one before it), or in the unbounded cells beyond
    its two ends.  w is normal to the chord between the entries that
    bracket the ideal point, L is the exact minimum of w.y over the
    completions, and every nadir inside the ideal box must lie on or below
    the line.  That bounds the entries there strictly below it too.  An
    ideal point raised to the bounds leaves out only infeasible completions.
    lo is _dominated's: the number of entries with r0 <= the ideal point's."""
    n1, d1 = ideal[1]
    first = lo - 1
    last = _bisect(front, lambda key: key[0][1] * d1 > n1 * key[1])
    if first < 0 or last <= first or last == len(front):
        return False
    (fn, fd), (ln, ld) = front[first][0], front[last][0]
    w0 = fn[1] * ld - ln[1] * fd
    w1 = ln[0] * fd - fn[0] * ld
    rows = [(w0 * a[0] + w1 * b[0], a[1], w0 * a[2] + w1 * b[2], a[3])
            for a, b in zip(box[0][0], box[1][0])]
    start = (sum(r[0] for r in rows), sum(r[1] for r in rows))
    num, bottom = _extreme(w0 * nums[0] + w1 * nums[1], den, start, rows, True)
    for j in range(first, last):
        (an, ad), (bn, bd) = front[j + 1][0], front[j][0]
        if (w0 * an[0] * bd + w1 * bn[1] * ad) * bottom > num * ad * bd:
            return False
    return True


def _threat_order(tables):
    """Threat indices in the order the search branches on them: by the sum
    of two scores, each relative to its greatest value over the threats,
    highest first, ties in model order.  One is the threat's swing in the
    common denominator, d_T x_T from its lowest to its highest residue (0
    in criteria mode).  The other is the spread across stakeholders of its
    ratio n_Ts / d_T, the value its weight pulls objective s towards (n_Ts
    itself in criteria mode, which has no denominator): how far the threat
    sets the stakeholders apart.  Fixing such threats first narrows the
    ideal box of a node most."""
    swings, spreads = [], []
    for rows in tables:
        (nums, den), (_, den_lo) = rows[0], rows[-1]
        ratios = [Fraction(n, den or 1) for n in nums]
        swings.append(den - den_lo)
        spreads.append(max(ratios) - min(ratios))
    top_swing = max(swings) or 1
    top_spread = max(spreads) or 1
    return sorted(range(len(tables)), key=lambda i: -(
        Fraction(swings[i], top_swing) + spreads[i] / top_spread))


def _search(ev, tests, deadline):
    """The front of the feasible points, as culled (key, ordinals) pairs,
    by a depth-first branch and bound over the mixed-radix digit tree.

    The tree branches on the threats in the fixed order of _threat_order,
    and a node fixes the digits of the leading threats of that order.  A
    node is pruned when every completion is strictly dominated by the front
    so far: when an entry strictly dominates the ideal point of the
    completions, or, with two objectives, when a weighted-sum line below
    them shows it (_separated).  It is also pruned when the maximum over its
    completions of a bounded objective fails its bound.  Otherwise a bounded
    component of the ideal point below its bound is raised to it: the
    feasible completions all lie on or above the raised point, so the
    dominance tests stay exact.  Equality never prunes, so no tied witness
    is lost.
    The last threat's digit runs as one flat row loop through _add_point,
    lowest residue first, as every digit is tried.  A witness ordinal sums
    each digit times its threat's place in the model's mixed-radix order,
    so the ordinals, and the order solve sorts witnesses in, are those of
    the flat pass whatever order the search branches in."""
    dims = len(ev.model.stakeholders)
    zero = (0,) * dims
    tables = ev.tables or [[(zero, 0)]]
    n = len(tables)
    # places[i]: the mixed-radix place of threat i in the model's order
    places = [1] * n
    for i in range(n - 2, -1, -1):
        places[i] = places[i + 1] * len(tables[i + 1])
    order = _threat_order(tables)
    tables = [tables[i] for i in order]
    places = [places[i] for i in order]
    planar = dims <= 2
    # box[k][s]: _extreme's rows of stakeholder s over threats k.., and the
    # sums of their lo and of their hi rows; residues descend, so a table's
    # last row is its lowest residue
    box = []
    for k in range(n):
        per_s = []
        for s in range(dims):
            rows = [(t[-1][0][s], t[-1][1], t[0][0][s], t[0][1]) for t in tables[k:]]
            per_s.append((rows, (sum(r[0] for r in rows), sum(r[1] for r in rows)),
                          (sum(r[2] for r in rows), sum(r[3] for r in rows))))
        box.append(per_s)
    add_point = _add_point  # looked up per call, so a replaced one is used
    front = []
    stack = [(0, zero, ev.base, 0)]
    while stack:
        k, nums, den, base = stack.pop()
        if deadline is not None and time.monotonic() > deadline:
            raise SolveTimeout
        if any(_fails(*_extreme(nums[si], den, box[k][si][2], box[k][si][0], False),
                      p, q, e) for si, p, q, e in tests):
            continue
        ideal = [_extreme(a, den, lo, rows, True)
                 for a, (rows, lo, _) in zip(nums, box[k])]
        for si, p, q, _ in tests:
            if ideal[si][0] * q < p * ideal[si][1]:
                ideal[si] = (p, q)
        n0, d0 = ideal[0]
        lo = _bisect(front, lambda key: key[0][0] * d0 <= n0 * key[1])
        if (_dominated(front, ideal, lo, planar)
                or dims == 2 and _separated(front, ideal, lo, nums, den, box[k])):
            continue
        table = tables[k]
        place = places[k]
        if k < n - 1:
            # pushed highest residue first, so the lowest is popped first
            for d, (row_nums, row_den) in enumerate(table):
                stack.append((k + 1, tuple(map(add, nums, row_nums)),
                              den + row_den, base + d * place))
            continue
        for d in range(len(table) - 1, -1, -1):
            row_nums, row_den = table[d]
            leaf = tuple(map(add, nums, row_nums))
            leaf_den = den + row_den
            if not any(_fails(leaf[si], leaf_den, p, q, e)
                       for si, p, q, e in tests):
                add_point(front, (leaf, leaf_den), [base + d * place])
    return front


def _prepare(m: RiskModel, cfg: SolveConfig):
    """The residue space, its evaluator and the compiled bound tests."""
    space = residue_space(m)
    ev = _Evaluator(m, cfg.mode, space)
    return space, ev, ev.bound_tests(cfg.bounds, cfg.exclusive_bounds)


def evaluated_points(m: RiskModel, cfg: SolveConfig = SolveConfig()):
    """Yield (objective, residue vector) for every point of the residue space
    that meets the risk-appetite bounds, in enumeration order."""
    space, ev, tests = _prepare(m, cfg)
    for (nums, den), ordinal in _feasible_keys(ev, tests, cfg.deadline):
        yield tuple(Fraction(n, den) for n in nums), vector_at(space, ordinal)


def solve(m: RiskModel, cfg: SolveConfig = SolveConfig()) -> ParetoFront:
    """Pareto front of the reduced problem over the residue space, after
    risk-appetite filtering.  An empty feasible set yields an empty front, not
    an exception.

    The front is found by one branch-and-bound search (_search).  Each
    entry's witnesses are listed in enumeration order, as the flat culling
    of evaluated_points by front() lists them."""
    space, ev, tests = _prepare(m, cfg)
    culled = _search(ev, tests, cfg.deadline)
    return _assemble(((key, sorted(ordinals)) for key, ordinals in culled),
                     lambda o: vector_at(space, o))


def solve_direct_oracle(m: RiskModel, cfg: SolveConfig = SolveConfig()) -> ParetoFront:
    """Brute force over all mitigation-mapping combinations (excluding the
    all-max assignment per threat).  Test-scale oracle for solve(): the
    objective-point sets must coincide."""
    raw = count_raw(m)
    if raw > ORACLE_CAP:
        raise ValueError(f"raw search space {raw} exceeds the oracle cap {ORACLE_CAP}")
    levels = m.scale.levels
    top = max(levels)
    per_threat = []
    for t in m.threats:
        n = len(t.controls)
        if n == 0:
            per_threat.append([Fraction(1)])
            continue
        residues = []
        for combo in itertools.product(levels, repeat=n):
            if all(lv == top for lv in combo):
                continue
            residues.append(1 - sum(combo, Fraction(0)) / n)
        per_threat.append(residues)

    # Fraction arithmetic over the fold, independent of the integer kernel
    fold = impact._fold(m, cfg.mode)
    sids = m.stakeholder_ids()
    bounds = [(sids.index(sid), lb) for sid, lb in cfg.bounds.items()]

    def points():
        for xvec in itertools.product(*per_threat):
            obj = impact._evaluate(fold, xvec)
            if all(obj[i] > lb if cfg.exclusive_bounds else obj[i] >= lb
                   for i, lb in bounds):
                yield obj, xvec

    return front(points())

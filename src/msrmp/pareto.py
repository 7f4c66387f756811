"""Dominance, non-dominated front extraction by one culling pass, and the
risk-appetite constrained variant.

Internally a feasible point is carried as an integer pair (nums, den) with
objective component s equal to nums[s] / den and den > 0; the scaling is
uniform per model and mode, so dominance can be decided with integer
cross-multiplications instead of Fraction arithmetic.  Public results are
exact Fractions.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import impact
from .model import RiskModel
from .residue import count_raw, residue_space, vector_at

STRATEGIES = ("upfront", "chunk-collect", "chunk-carry")

# solve_direct_oracle refuses raw policy spaces larger than this
ORACLE_CAP = 10**6


class SolveTimeout(Exception):
    """Raised when a solve exceeds its deadline (used by the bench harness)."""


@dataclass(frozen=True)
class SolveConfig:
    mode: str = "goals"
    strategy: str = "upfront"
    chunk: int = 4096
    # lower bounds on the objective per stakeholder id (risk appetite)
    bounds: dict = field(default_factory=dict)
    exclusive_bounds: bool = False
    deadline: float | None = None  # time.monotonic() value

    def __post_init__(self):
        if self.mode not in impact.MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.chunk < 1:
            raise ValueError("chunk size must be >= 1")
        if any(Fraction(v) < 0 for v in self.bounds.values()):
            raise ValueError("risk-appetite bounds must be nonnegative")


@dataclass(frozen=True)
class FrontEntry:
    objective: tuple          # per stakeholder, exact Fractions
    residues: tuple           # residue vectors achieving it, enumeration order

    @property
    def rmp_residue_count(self):
        return len(self.residues)


@dataclass(frozen=True)
class ParetoFront:
    entries: tuple[FrontEntry, ...]   # sorted lexicographically by objective

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
    """Insert one point into a mutable front (list of [key, payloads]).

    payload is a list of opaque achieving witnesses (ordinals or residue
    vectors); equal points merge payloads in arrival order."""
    for entry in front:
        cmp = _compare_keys(entry[0], key)
        if cmp == _EQ:
            entry[1].extend(payload)
            return
        if cmp == _DOM:
            return
    front[:] = [e for e in front if _compare_keys(key, e[0]) != _DOM]
    front.append([key, list(payload)])


def _cull(points):
    """The one culling pass: insert (key, payloads) pairs in arrival order."""
    front = []
    for key, payload in points:
        _add_point(front, key, payload)
    return front


def _ratio_key(objective):
    """(nums, den) key of an exact objective point over a common denominator."""
    obj = [Fraction(v) for v in objective]
    den = lcm(*(v.denominator for v in obj))
    return tuple(v.numerator * (den // v.denominator) for v in obj), den


def front(points) -> ParetoFront:
    """Exact non-dominated set of a finite stream of
    (objective_point, residue_vector) pairs; equal points merge."""
    culled = _cull((_ratio_key(obj), [tuple(res)]) for obj, res in points)
    return _assemble(culled, tuple)


class _Evaluator:
    """The objective fold of impact._fold scaled to integers, evaluated over
    residue-space digits."""

    def __init__(self, m: RiskModel, mode, space):
        self.model = m
        # scale all residues to a common integer grid
        dens = [x.denominator for rs in space.sets for x in rs.residues]
        scale = lcm(*dens) if dens else 1
        self.xs = [
            [int(x * scale) for x in rs.residues] for rs in space.sets
        ]
        num, den = impact._fold(m, mode)
        k = lcm(*(c.denominator for c in itertools.chain(*num, den or ())))
        self.coef = [[int(c * k) for c in row] for row in num]
        self.cden = None if den is None else [int(c * k) for c in den]
        self.d0 = k * scale

    def key_at(self, digits):
        xs = self.xs
        x = [xs[i][d] for i, d in enumerate(digits)]
        if self.cden is None:
            den = self.d0
        else:
            den = sum(c * v for c, v in zip(self.cden, x))
        nums = tuple(sum(a * v for a, v in zip(row, x)) for row in self.coef)
        return nums, den

    def bound_tests(self, bounds):
        """Compile bounds into (stakeholder index, p, q) integer tests:
        keep the point iff nums[i] * q >= p * den (or > when exclusive)."""
        sids = self.model.stakeholder_ids()
        tests = []
        for sid, lb in bounds.items():
            if sid not in sids:
                raise KeyError(f"unknown stakeholder {sid!r} in bounds")
            lb = Fraction(lb)
            tests.append((sids.index(sid), lb.numerator, lb.denominator))
        return tests


def _feasible_keys(ev, space, tests, exclusive, deadline, check_every=8192):
    """Yield (key, ordinal) over the whole space in mixed-radix order,
    filtered by the risk-appetite bounds."""
    radices = space.radices()
    nt = len(radices)
    digits = [0] * nt
    total = space.size
    key_at = ev.key_at
    ordinal = 0
    while True:
        if deadline is not None and ordinal % check_every == 0:
            if time.monotonic() > deadline:
                raise SolveTimeout
        key = key_at(digits)
        ok = True
        if tests:
            nums, den = key
            for si, p, q in tests:
                lhs = nums[si] * q
                rhs = p * den
                if (lhs <= rhs) if exclusive else (lhs < rhs):
                    ok = False
                    break
        if ok:
            yield key, ordinal
        ordinal += 1
        if ordinal == total:
            return
        for i in range(nt - 1, -1, -1):
            digits[i] += 1
            if digits[i] < radices[i]:
                break
            digits[i] = 0


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


def _feasible(m: RiskModel, cfg: SolveConfig):
    """The residue space and its stream of feasible (key, ordinal) pairs."""
    space = residue_space(m)
    ev = _Evaluator(m, cfg.mode, space)
    tests = ev.bound_tests(cfg.bounds)
    return space, _feasible_keys(ev, space, tests, cfg.exclusive_bounds,
                                 cfg.deadline)


def evaluated_points(m: RiskModel, cfg: SolveConfig = SolveConfig()):
    """Yield (objective, residue vector) for every point of the residue space
    that meets the risk-appetite bounds, in enumeration order."""
    space, stream = _feasible(m, cfg)
    for (nums, den), ordinal in stream:
        yield tuple(Fraction(n, den) for n in nums), vector_at(space, ordinal)


def solve(m: RiskModel, cfg: SolveConfig = SolveConfig()) -> ParetoFront:
    """Pareto front of the reduced problem over the residue space, after
    risk-appetite filtering.  An empty feasible set yields an empty front, not
    an exception.

    Every strategy streams the space through the one culling pass, so
    cfg.strategy and cfg.chunk are accepted but select nothing: a front
    carried across windows is the front so far, and culling each window first
    ends in the same front with the same witnesses in the same order."""
    space, stream = _feasible(m, cfg)
    culled = _cull((key, [o]) for key, o in stream)
    return _assemble(culled, lambda o: vector_at(space, o))


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
    bounds = [(sids.index(sid), Fraction(lb)) for sid, lb in cfg.bounds.items()]

    def points():
        for xvec in itertools.product(*per_threat):
            obj = impact._evaluate(fold, xvec)
            if all(obj[i] > lb if cfg.exclusive_bounds else obj[i] >= lb
                   for i, lb in bounds):
                yield obj, xvec

    return front(points())

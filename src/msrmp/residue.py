"""Per-threat residue sets, search-space counts, and the mixed-radix order
of the cartesian residue space.

A threat with n controls and mitigation scale A admits residues
x = 1 - sigma/n for every achievable sum sigma of n levels from A, except the
unique all-max assignment (adopting every control fully is excluded).  The
sets are ordered descending (1 first); a point of the space is numbered by
its mixed-radix ordinal, with the first threat as the most significant
digit.  vector_at decodes an ordinal; the enumeration itself, in ordinal
order, is pareto.evaluated_points, and solve lists each front entry's
witnesses in that order.
"""

from collections import namedtuple
from fractions import Fraction
from math import prod

from .model import Record, RiskModel


class ResidueSet(Record):
    """The residues of one threat, distinct and descending, 1 first; len()
    is their number."""

    __slots__ = ("threat_id", "n_controls", "residues")

    def __len__(self):
        return len(self.residues)


def residue_set(m: RiskModel, tid) -> ResidueSet:
    """All achievable residues of a threat, from the level-sum table.  A
    threat with no controls yields {1}: nothing can be mitigated."""
    threat = m.threat(tid)
    n = len(threat.controls)
    if n == 0:
        return ResidueSet(tid, 0, (Fraction(1),))
    den, counts = m.scale.level_counts(n)
    # ascending sums give descending residues; the largest sum is reached
    # only by the all-max assignment, which is excluded
    sums = sorted(counts[n])[:-1]
    return ResidueSet(tid, n, tuple(1 - Fraction(s, n * den) for s in sums))


def residue_vector(m: RiskModel, x) -> dict:
    """Normalize a residue vector given as a dict or sequence to a dict
    {threat id -> Fraction} in model threat order.  A dict must name every
    threat of the model and no other."""
    tids = m.threat_ids()
    if isinstance(x, dict):
        unknown = [t for t in x if t not in tids]
        if unknown:
            raise KeyError(f"residue vector names unknown threats {unknown}")
        missing = [t for t in tids if t not in x]
        if missing:
            raise KeyError(f"residue vector missing threats {missing}")
        return {t: Fraction(x[t]) for t in tids}
    x = list(x)
    if len(x) != len(tids):
        raise ValueError(f"residue vector has {len(x)} entries, expected {len(tids)}")
    return {t: Fraction(v) for t, v in zip(tids, x)}


class ResidueSpace(namedtuple("ResidueSpace", "sets")):
    """The residue sets of the threats, in model threat order."""

    __slots__ = ()

    @property
    def size(self):
        return prod(len(s) for s in self.sets)

    def radices(self):
        return [len(s) for s in self.sets]


def residue_space(m: RiskModel) -> ResidueSpace:
    return ResidueSpace(tuple(residue_set(m, t.id) for t in m.threats))


def count_raw(m: RiskModel) -> int:
    """Number of mitigation-mapping combinations, excluding the all-max
    assignment per threat (exact big integer)."""
    k = len(m.scale.levels)
    factors = []
    for t in m.threats:
        n = len(t.controls)
        factors.append(1 if n == 0 else k**n - 1)
    return prod(factors)


def count_reduced(m: RiskModel) -> int:
    """Size of the reduced search space: product of residue-set sizes."""
    return residue_space(m).size


def vector_at(space: ResidueSpace, ordinal) -> tuple:
    """Residue vector at a mixed-radix ordinal (first threat most
    significant, digits indexing the descending residue lists)."""
    radices = space.radices()
    if not 0 <= ordinal < space.size:
        raise IndexError(f"ordinal {ordinal} outside [0, {space.size})")
    digits = [0] * len(radices)
    rem = ordinal
    for i in range(len(radices) - 1, -1, -1):
        rem, digits[i] = divmod(rem, radices[i])
    return tuple(space.sets[i].residues[d] for i, d in enumerate(digits))


def residue_of_assignment(m: RiskModel, tid, assignment) -> Fraction:
    """Residue 1 - (sum of levels / number of controls) of one threat under a
    total assignment {control id -> level}."""
    threat = m.threat(tid)
    n = len(threat.controls)
    if n == 0:
        return Fraction(1)
    level_set = set(m.scale.levels)
    total = Fraction(0)
    for c in threat.controls:
        if c.id not in assignment:
            raise ValueError(f"assignment for threat {tid!r} misses control {c.id!r}")
        lv = Fraction(assignment[c.id])
        if lv not in level_set:
            raise ValueError(
                f"level {lv} for control {c.id!r} is not in the mitigation scale"
            )
        total += lv
    x = 1 - total / n
    if x == 1 - max(m.scale.levels):
        # reachable only by adopting every control at the maximum level
        raise ValueError(
            f"assignment for threat {tid!r} adopts all controls at the maximum "
            f"level, which is excluded"
        )
    return x

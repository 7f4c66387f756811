"""Scoring formulas: impact levels, observation weights, threat criticality,
and the two overall-impact-residue objectives (criteria mode and goal-weighted
mode).  Everything is computed over exact rationals.
"""

from collections import namedtuple
from fractions import Fraction

from .model import RiskModel
from .residue import residue_of_assignment, residue_vector

MODES = ("criteria", "goals")


def impact_level(m: RiskModel, sid, tid) -> Fraction:
    """Criteria-weighted, scale-normalized aversion of stakeholder sid to
    threat tid: sum of aversion * criterion weight, divided by the maximum
    impact level."""
    s = m.stakeholder(sid)
    m.threat(tid)  # raises on unknown id
    total = Fraction(0)
    for c in s.criteria:
        total += Fraction(m.aversion[sid][c.id][tid]) * c.weight
    return total / m.scale.impact_scale_max


def impact_profile(m: RiskModel) -> dict:
    """impact_profile(m)[sid][tid] -> impact level, for all pairs."""
    return {
        s.id: {t.id: impact_level(m, s.id, t.id) for t in m.threats}
        for s in m.stakeholders
    }


def affected_goal_count(m: RiskModel, tid) -> int:
    return len(m.threat(tid).goals)


def observation_weight(m: RiskModel, tid) -> Fraction:
    """Fraction of all threat-to-goal incidences attributed to this threat."""
    total = sum(len(t.goals) for t in m.threats)
    if total == 0:
        raise ValueError("no threat affects any goal; observation weights undefined")
    return Fraction(affected_goal_count(m, tid), total)


def goal_threat_counts(m: RiskModel) -> dict:
    """Number of threats affecting each goal."""
    counts = {g.id: 0 for g in m.goals}
    for t in m.threats:
        for g in t.goals:
            counts[g] += 1
    return counts


def goal_spread(m: RiskModel, tid) -> Fraction:
    """Sum over the threat's goals of 1 / (threats affecting that goal).

    This is the per-threat factor that makes the double sum over goals
    collapse to a single sum over threats (see objective_goals).
    """
    counts = goal_threat_counts(m)
    return sum((Fraction(1, counts[g]) for g in m.threat(tid).goals), Fraction(0))


def ntc(m: RiskModel, x) -> dict:
    """Normalized threat criticality: OW_T * x_T, renormalized to sum 1."""
    xv = residue_vector(m, x)
    ows = {t.id: observation_weight(m, t.id) for t in m.threats}
    denom = sum((ows[t] * xv[t] for t in xv), Fraction(0))
    if denom == 0:
        raise ValueError("normalization denominator is zero for this residue vector")
    return {t: ows[t] * xv[t] / denom for t in xv}


def _require_goals(m: RiskModel):
    bad = [t.id for t in m.threats if not t.goals]
    if bad:
        raise ValueError(f"threats {bad} affect no goal; goal-weighted mode undefined")


def _fold(m: RiskModel, mode):
    """Per-model constants folded once into exact coefficients (num, den):
    objective_s(x) = sum_T num[s][T] x_T / sum_T den[T] x_T, with den None
    (denominator 1) in criteria mode.  Criteria mode has no 1/|T| prefactor:
    the Pareto set is invariant under positive constant factors and the worked
    arithmetic of the source tables carries none."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    profile = impact_profile(m)
    tids = m.threat_ids()
    if mode == "criteria":
        return [[profile[s.id][t] for t in tids] for s in m.stakeholders], None
    _require_goals(m)
    ows = [observation_weight(m, t) for t in tids]
    spreads = [goal_spread(m, t) for t in tids]
    num = [
        [ow * g * profile[s.id][t] for t, ow, g in zip(tids, ows, spreads)]
        for s in m.stakeholders
    ]
    return num, ows


def _evaluate(fold, xs) -> tuple:
    """Objective at residues xs (threat order) over a fold from _fold."""
    num, den = fold
    d = 1 if den is None else sum((c * x for c, x in zip(den, xs)), Fraction(0))
    if d == 0:
        raise ValueError("normalization denominator is zero for this residue vector")
    return tuple(
        sum((c * x for c, x in zip(row, xs)), Fraction(0)) / d for row in num
    )


def objective(m: RiskModel, x, mode="goals") -> tuple:
    return _evaluate(_fold(m, mode), residue_vector(m, x).values())


def objective_criteria(m: RiskModel, x) -> tuple:
    """Linear objective: per stakeholder, sum of impact level * residue."""
    return objective(m, x, "criteria")


def objective_goals_ratio(m: RiskModel, x) -> tuple:
    """Ratio form of the goal-weighted objective:
    (sum_T OW*g*i_s*x) / (sum_T OW*x).  Property-tested against the direct
    double sum of objective_goals."""
    return objective(m, x, "goals")


def _goal_sum(m: RiskModel, xv) -> tuple:
    """Direct double sum at residues xv: (NTC, averages, objectives), where
    averages[goal][stakeholder] is the mean NTC-weighted impact of the threats
    affecting the goal (goals no threat affects are skipped)."""
    crit = ntc(m, xv)
    profile = impact_profile(m)
    counts = goal_threat_counts(m)
    averages = {
        g.id: {
            s.id: sum(
                (crit[t.id] * profile[s.id][t.id]
                 for t in m.threats if g.id in t.goals),
                Fraction(0),
            ) / counts[g.id]
            for s in m.stakeholders
        }
        for g in m.goals
        if counts[g.id]
    }
    objectives = tuple(
        sum((per_s[s.id] for per_s in averages.values()), Fraction(0))
        for s in m.stakeholders
    )
    return crit, averages, objectives


def objective_goals(m: RiskModel, x) -> tuple:
    """Goal-weighted objective as the direct double sum, kept independent of
    _fold as the reference for the ratio form.  A threat affecting no goal is
    an error."""
    _require_goals(m)
    return _goal_sum(m, residue_vector(m, x))[2]


# residues: threat id -> Fraction; objectives: per stakeholder, model order;
# ntc: threat id -> Fraction, and goal_averages: goal id -> {stakeholder id
# -> Fraction}, in goals mode only (else None)
AssessmentReport = namedtuple("AssessmentReport",
                              "mode residues objectives ntc goal_averages")


def assess(m: RiskModel, assignment=None, mode="goals") -> AssessmentReport:
    """Evaluate a fixed per-threat assignment: residues, criticality,
    per-goal averages and the overall objectives."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if assignment is None:
        assignment = m.assignment
    if assignment is None:
        raise ValueError("no assignment given and the model carries none")

    residues = {}
    for t in m.threats:
        per_ctrl = assignment.get(t.id)
        if per_ctrl is None:
            raise ValueError(f"assignment missing threat {t.id!r}")
        residues[t.id] = residue_of_assignment(m, t.id, per_ctrl)

    crit = goal_avgs = None
    if mode == "goals":
        crit, goal_avgs, objectives = _goal_sum(m, residues)
    else:
        objectives = objective_criteria(m, residues)

    return AssessmentReport(
        mode=mode,
        residues=residues,
        objectives=objectives,
        ntc=crit,
        goal_averages=goal_avgs,
    )

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrmp import assess, impact_level, ntc, objective, observation_weight
from msrmp.harness import BenchSpec, gen_instance
from msrmp.impact import (
    affected_goal_count,
    goal_spread,
    goal_threat_counts,
    impact_profile,
    objective_criteria,
    objective_goals,
    objective_goals_ratio,
)
from msrmp.model import decimal_str

F = Fraction


def test_impact_level_worked_values(running_model):
    m = running_model
    # (0.4*4 + 0.2*2 + 0.3*2 + 0.1*3) / 4
    assert impact_level(m, "DS", "T2") == F(29, 40)
    # (0.4*1 + 0.6*2) / 4
    assert impact_level(m, "DC", "T1") == F(2, 5)
    assert impact_level(m, "DS", "T1") == F(3, 40)
    assert impact_level(m, "DC", "T5") == F(1, 2)


def test_impact_level_unknown_ids(running_model):
    with pytest.raises(KeyError):
        impact_level(running_model, "nobody", "T1")
    with pytest.raises(KeyError):
        impact_level(running_model, "DS", "T9")


def test_impact_profile_shape_and_range(running_model):
    profile = impact_profile(running_model)
    assert set(profile) == {"DS", "DC"}
    for per_t in profile.values():
        assert list(per_t) == running_model.threat_ids()
        for v in per_t.values():
            assert 0 <= v <= 1


def test_observation_weights(running_model):
    m = running_model
    assert affected_goal_count(m, "T2") == 3
    assert observation_weight(m, "T1") == F(2, 10)
    assert observation_weight(m, "T2") == F(3, 10)
    assert observation_weight(m, "T5") == F(1, 10)
    total = sum(observation_weight(m, t) for t in m.threat_ids())
    assert total == 1


def test_goal_threat_counts(running_model):
    counts = goal_threat_counts(running_model)
    assert counts == {"G1": 3, "G2": 2, "G3": 2, "G4": 2, "G5": 0, "G6": 1}


def test_goal_spread(running_model):
    # T1 affects G1 (3 threats) and G4 (2 threats)
    assert goal_spread(running_model, "T1") == F(1, 3) + F(1, 2)
    assert goal_spread(running_model, "T5") == 1


def test_ntc_sums_to_one(running_model):
    x = {"T1": F(2, 5), "T2": F(7, 20), "T3": F(1, 4), "T4": F(5, 6), "T5": F(2, 3)}
    crit = ntc(running_model, x)
    assert sum(crit.values()) == 1
    assert all(v > 0 for v in crit.values())


def test_ntc_rejects_zero_denominator(running_model):
    zero = dict.fromkeys(running_model.threat_ids(), F(0))
    with pytest.raises(ValueError, match="denominator is zero"):
        ntc(running_model, zero)


def test_residue_vector_forms_agree(running_model):
    as_dict = {"T1": F(1), "T2": F(1, 2), "T3": F(1, 4), "T4": F(1, 3), "T5": F(2, 3)}
    as_seq = [as_dict[t] for t in running_model.threat_ids()]
    for mode in ("criteria", "goals"):
        assert objective(running_model, as_dict, mode) == objective(
            running_model, as_seq, mode
        )


def test_residue_vector_shape_errors(running_model):
    with pytest.raises(KeyError, match="missing threats"):
        objective(running_model, {"T1": F(1)}, "criteria")
    with pytest.raises(ValueError, match="expected 5"):
        objective(running_model, [F(1)] * 4, "criteria")
    with pytest.raises(ValueError, match="unknown mode"):
        objective(running_model, [F(1)] * 5, "nope")


def test_assess_running_example(running_model):
    report = assess(running_model, mode="goals")
    assert report.residues == {
        "T1": F(2, 5),
        "T2": F(7, 20),
        "T3": F(1, 4),
        "T4": F(5, 6),
        "T5": F(2, 3),
    }
    assert sum(report.ntc.values()) == 1
    # G5 is affected by no threat and must not appear
    assert "G5" not in report.goal_averages
    avgs = report.goal_averages["G1"]
    assert decimal_str(avgs["DS"], 3) == "0.074"
    assert decimal_str(avgs["DC"], 3) == "0.087"
    oir = dict(zip(running_model.stakeholder_ids(), report.objectives))
    assert decimal_str(oir["DS"], 3) == "0.549"
    assert decimal_str(oir["DC"], 3) == "0.576"


def test_assess_requires_an_assignment(small_model):
    with pytest.raises(ValueError, match="carries none"):
        assess(small_model, mode="criteria")


def test_assess_criteria_mode(running_model):
    report = assess(running_model, mode="criteria")
    assert report.ntc is None and report.goal_averages is None
    x = report.residues
    assert report.objectives == objective_criteria(running_model, x)


def test_small_example_impacts(small_model):
    profile = impact_profile(small_model)
    assert [profile["s1"][t] for t in ("T1", "T2", "T3")] == [
        F(3, 5), F(1, 5), F(3, 10)
    ]
    assert [profile["s2"][t] for t in ("T1", "T2", "T3")] == [
        F(3, 10), F(1, 2), F(3, 5)
    ]


def test_criteria_objective_is_linear(small_model):
    ones = [F(1)] * 3
    base = objective_criteria(small_model, ones)
    profile = impact_profile(small_model)
    assert base == tuple(
        sum(profile[s][t] for t in small_model.threat_ids())
        for s in small_model.stakeholder_ids()
    )
    half = objective_criteria(small_model, [F(1, 2)] * 3)
    assert half == tuple(v / 2 for v in base)


def _random_instance(index, nt=None, q=None):
    rng = random.Random(index * 7919 + 13)
    return gen_instance(
        BenchSpec(seed=1234),
        index=index,
        threat_count=nt or rng.randint(1, 5),
        controls_per_threat=q or rng.randint(1, 4),
    )


def _random_positive_vector(rng, n):
    return [F(rng.randint(1, 24), rng.randint(1, 24)) for _ in range(n)]


@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_goals_ratio_equals_direct_double_sum(index, rng):
    m = _random_instance(index)
    x = _random_positive_vector(rng, len(m.threats))
    assert objective_goals(m, x) == objective_goals_ratio(m, x)


@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_goals_objective_scale_invariant(index, rng):
    """Scaling every residue by the same positive factor cancels out."""
    m = _random_instance(index)
    x = _random_positive_vector(rng, len(m.threats))
    lam = F(rng.randint(1, 9), rng.randint(1, 9))
    scaled = [lam * v for v in x]
    assert objective_goals(m, x) == objective_goals(m, scaled)


@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_criteria_objective_monotone(index, rng):
    m = _random_instance(index)
    x = _random_positive_vector(rng, len(m.threats))
    i = rng.randrange(len(x))
    higher = list(x)
    higher[i] += F(1, rng.randint(1, 9))
    lo = objective_criteria(m, x)
    hi = objective_criteria(m, higher)
    assert all(a <= b for a, b in zip(lo, hi))


def test_objective_goals_rejects_goalless_threats(small_model):
    bad_threats = tuple(
        t._replace(goals=()) if t.id == "T2" else t
        for t in small_model.threats
    )
    m = small_model._replace(threats=bad_threats)
    with pytest.raises(ValueError, match="affect no goal"):
        objective_goals(m, [F(1)] * 3)

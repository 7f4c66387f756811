import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrmp import (
    SolveConfig,
    dominates,
    evaluated_points,
    front,
    objective,
    solve,
    solve_direct_oracle,
)
from msrmp.harness import BenchSpec, gen_instance
from msrmp.pareto import SolveTimeout
from msrmp.residue import count_raw, count_reduced

F = Fraction


def test_dominates_basics():
    assert dominates((1, 1), (1, 2))
    assert dominates((0, 0), (1, 1))
    assert not dominates((1, 2), (1, 1))
    assert not dominates((1, 1), (1, 1))  # equality is not dominance
    # classic incomparable pair
    assert not dominates((1, 2, 1), (1, 1, 2))
    assert not dominates((1, 1, 2), (1, 2, 1))


def test_dominates_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        dominates((1, 2), (1, 2, 3))


def test_front_of_known_points():
    pts = [
        ((F(2), F(1)), (F(1, 2),)),
        ((F(1), F(2)), (F(1, 4),)),
        ((F(3), F(3)), (F(1),)),      # dominated
        ((F(1), F(2)), (F(3, 4),)),   # equal objective, second witness
    ]
    result = front(pts)
    assert len(result) == 2
    assert result.objectives() == [(F(1), F(2)), (F(2), F(1))]
    assert result.entries[0].residues == ((F(1, 4),), (F(3, 4),))
    assert result.entries[0].rmp_residue_count == 2


def test_front_is_idempotent():
    pts = [((F(a), F(b)), (F(a), F(b))) for a in range(4) for b in range(4)]
    once = front(pts)
    again = front(
        (e.objective, vec) for e in once.entries for vec in e.residues
    )
    assert once == again


def test_front_of_nothing_is_empty():
    result = front([])
    assert len(result) == 0
    assert not result.feasible
    assert result.objectives() == []


def test_duplicate_witnesses_collapse():
    pts = [((F(1), F(1)), (F(1, 2),))] * 3
    result = front(pts)
    assert len(result) == 1
    assert result.entries[0].residues == ((F(1, 2),),)


def test_solve_config_validation():
    with pytest.raises(ValueError, match="unknown mode"):
        SolveConfig(mode="nope")
    with pytest.raises(ValueError, match="unknown strategy"):
        SolveConfig(strategy="nope")
    with pytest.raises(ValueError, match="chunk size"):
        SolveConfig(chunk=0)
    with pytest.raises(ValueError, match="nonnegative"):
        SolveConfig(bounds={"DS": F(-1, 2)})


def test_small_example_criteria_front(small_model):
    result = solve(small_model, SolveConfig(mode="criteria"))
    assert len(result) == 1
    assert result.objectives() == [(F(7, 20), F(1, 2))]
    assert result.entries[0].residues == ((F(1, 4), F(1, 4), F(1, 2)),)


def test_running_example_goals_front(running_model):
    result = solve(running_model, SolveConfig(mode="goals"))
    assert len(result) == 1
    (entry,) = result.entries
    assert entry.residues == ((F(1), F(1, 20), F(1, 8), F(1, 6), F(1, 6)),)


def test_solve_is_deterministic(small_model):
    cfg = SolveConfig(mode="criteria")
    assert solve(small_model, cfg) == solve(small_model, cfg)


def test_unsatisfiable_bounds_yield_empty_front(small_model):
    cfg = SolveConfig(mode="criteria", bounds={"s1": F(99)})
    result = solve(small_model, cfg)
    assert not result.feasible
    assert len(result) == 0


def test_bounds_unknown_stakeholder(small_model):
    with pytest.raises(KeyError, match="unknown stakeholder"):
        solve(small_model, SolveConfig(mode="criteria", bounds={"zz": F(1, 2)}))


def test_bounds_filter_feasible_set(small_model):
    """Every surviving objective respects the bound; exclusive drops equality."""
    lb = F(1, 2)
    incl = solve(small_model, SolveConfig(mode="criteria", bounds={"s2": lb}))
    excl = solve(
        small_model,
        SolveConfig(mode="criteria", bounds={"s2": lb}, exclusive_bounds=True),
    )
    assert incl.feasible
    assert all(obj[1] >= lb for obj in incl.objectives())
    assert all(obj[1] > lb for obj in excl.objectives())
    assert min(obj[1] for obj in incl.objectives()) == lb


def test_expired_deadline_raises(running_model):
    cfg = SolveConfig(mode="goals", deadline=time.monotonic() - 1)
    with pytest.raises(SolveTimeout):
        solve(running_model, cfg)


def test_goals_mode_rejects_goalless_threats(small_model):
    import dataclasses

    bad = dataclasses.replace(
        small_model,
        threats=tuple(
            dataclasses.replace(t, goals=()) if t.id == "T3" else t
            for t in small_model.threats
        ),
    )
    with pytest.raises(ValueError, match="affect no goal"):
        solve(bad, SolveConfig(mode="goals"))


def _instance(index, nt, q, seed=77):
    return gen_instance(BenchSpec(seed=seed), index=index, threat_count=nt,
                        controls_per_threat=q)


# shapes kept small enough for brute force / repeated solving
_SHAPES = [(1, 1), (1, 4), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (5, 1)]


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(_SHAPES),
       st.sampled_from(["criteria", "goals"]))
@settings(max_examples=40, deadline=None)
def test_strategies_agree(index, shape, mode):
    m = _instance(index, *shape)
    cfgs = [
        SolveConfig(mode=mode, strategy="upfront"),
        SolveConfig(mode=mode, strategy="chunk-collect", chunk=3),
        SolveConfig(mode=mode, strategy="chunk-carry", chunk=3),
        SolveConfig(mode=mode, strategy="chunk-carry", chunk=1),
    ]
    fronts = [solve(m, cfg) for cfg in cfgs]
    assert all(f == fronts[0] for f in fronts[1:])


def _same_front(reduced, oracle):
    """Same objectives and, per objective, the same achieving residue sets."""
    if reduced.objectives() != oracle.objectives():
        return False
    return all(
        set(a.residues) == set(b.residues)
        for a, b in zip(reduced.entries, oracle.entries)
    )


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(_SHAPES),
       st.sampled_from(["criteria", "goals"]))
@settings(max_examples=25, deadline=None)
def test_reduced_solve_matches_direct_oracle(index, shape, mode):
    m = _instance(index, *shape)
    assert count_raw(m) <= 10**5
    cfg = SolveConfig(mode=mode)
    assert _same_front(solve(m, cfg), solve_direct_oracle(m, cfg))


def test_oracle_matches_with_bounds(small_model):
    for exclusive in (False, True):
        cfg = SolveConfig(mode="criteria", bounds={"s1": F(2, 5)},
                          exclusive_bounds=exclusive)
        assert _same_front(solve(small_model, cfg),
                           solve_direct_oracle(small_model, cfg))


def test_oracle_refuses_large_spaces(running_model):
    assert count_raw(running_model) > 10**6
    with pytest.raises(ValueError, match="oracle cap"):
        solve_direct_oracle(running_model, SolveConfig(mode="goals"))


def test_front_size_bounded_by_space(small_model):
    result = solve(small_model, SolveConfig(mode="criteria"))
    total_vectors = sum(len(e.residues) for e in result.entries)
    assert total_vectors <= count_reduced(small_model)


@pytest.mark.parametrize("mode", ["criteria", "goals"])
def test_evaluated_points_cover_the_space(small_model, mode):
    points = list(evaluated_points(small_model, SolveConfig(mode=mode)))
    assert len(points) == count_reduced(small_model)
    assert len({vec for _, vec in points}) == len(points)
    for obj, vec in points:
        assert obj == objective(small_model, vec, mode)


@pytest.mark.parametrize("mode", ["criteria", "goals"])
@pytest.mark.parametrize("exclusive", [False, True])
def test_evaluated_points_respect_bounds(small_model, mode, exclusive):
    everything = list(evaluated_points(small_model, SolveConfig(mode=mode)))
    lb = sorted(obj[0] for obj, _ in everything)[len(everything) // 2]
    cfg = SolveConfig(mode=mode, bounds={"s1": lb}, exclusive_bounds=exclusive)
    kept = [(obj, vec) for obj, vec in everything
            if (obj[0] > lb if exclusive else obj[0] >= lb)]
    assert 0 < len(kept) < len(everything)
    assert list(evaluated_points(small_model, cfg)) == kept

import hashlib
import json
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
from msrmp import pareto
from msrmp.harness import BenchSpec, gen_instance
from msrmp.pareto import SolveTimeout
from msrmp.residue import count_raw, count_reduced

from .conftest import scales, with_scale

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


_small = st.builds(F, st.integers(0, 3), st.integers(1, 2))


@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.tuples(st.tuples(*[_small] * k), st.tuples(st.integers(0, 5))),
    max_size=30)))
@settings(max_examples=300, deadline=None)
def test_front_matches_brute_force(pts):
    """The O(n^2) definition: the non-dominated distinct objectives, sorted,
    each with its witnesses in arrival order; small values make ties on the
    first objective, and equal points, common."""
    objs = list(dict.fromkeys(obj for obj, _ in pts))
    expected = [
        (o, tuple(dict.fromkeys(w for obj, w in pts if obj == o)))
        for o in sorted(objs)
        if not any(dominates(p, o) for p in objs)
    ]
    result = front(pts)
    assert [(e.objective, e.residues) for e in result.entries] == expected


def test_solve_config_validation():
    with pytest.raises(ValueError, match="unknown mode"):
        SolveConfig(mode="nope")
    for strategy in ("nope", "chunk-carry"):
        with pytest.raises(ValueError, match="unknown strategy"):
            SolveConfig(strategy=strategy)
    with pytest.raises(ValueError, match="nonnegative"):
        SolveConfig(bounds={"DS": F(-1, 2)})
    # bounds are exact: a binary float or a boolean is refused, a decimal
    # string is parsed, and the config keeps its own parsed copy
    with pytest.raises(ValueError, match="floats are not accepted"):
        SolveConfig(bounds={"DS": 0.45})
    with pytest.raises(ValueError, match="boolean"):
        SolveConfig(bounds={"DS": True})
    with pytest.raises(ValueError, match="cannot parse"):
        SolveConfig(bounds={"DS": "half"})
    bounds = {"DS": "0.45"}
    cfg = SolveConfig(bounds=bounds)
    bounds["DS"] = F(-1)
    assert cfg.bounds == {"DS": F(9, 20)}


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
    bad = small_model._replace(threats=tuple(
        t._replace(goals=()) if t.id == "T3" else t for t in small_model.threats))
    with pytest.raises(ValueError, match="affect no goal"):
        solve(bad, SolveConfig(mode="goals"))


def _instance(index, nt, q, seed=77, stakeholders=2):
    return gen_instance(BenchSpec(seed=seed, stakeholders=stakeholders),
                        index=index, threat_count=nt, controls_per_threat=q)


# shapes kept small enough for brute force / repeated solving
_SHAPES = [(1, 1), (1, 4), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (5, 1)]


def _impact_free(m, tid):
    """m with every aversion to threat tid set to 0."""
    return m._replace(aversion={
        sid: {cid: {t: 0 if t == tid else v for t, v in row.items()}
              for cid, row in per_criterion.items()}
        for sid, per_criterion in m.aversion.items()})


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(_SHAPES),
       st.sampled_from(["criteria", "goals"]), st.integers(1, 4),
       st.none() | scales, st.none() | st.integers(0, 4),
       st.sampled_from([None, False, True]), st.data())
@settings(max_examples=200, deadline=None)
def test_solve_matches_flat_reference(index, shape, mode, stakeholders, levels,
                                      free, exclusive, data):
    """The search against the flat culling pass over every feasible point,
    witness order included.  An impact-free threat makes, in criteria mode,
    every residue of it a tied witness, each in its own subtree.  Bounds,
    when drawn, sit on point values, so ties with them are common."""
    m = _instance(index, *shape, stakeholders=stakeholders)
    if levels is not None:
        m = with_scale(m, levels)
    if free is not None:
        m = _impact_free(m, m.threat_ids()[free % len(m.threats)])
    bounds = {}
    if exclusive is not None:
        points = [obj for obj, _ in evaluated_points(m, SolveConfig(mode=mode))]
        sids = m.stakeholder_ids()
        for s in data.draw(st.sets(st.integers(0, stakeholders - 1), min_size=1)):
            bounds[sids[s]] = data.draw(st.sampled_from(sorted({p[s] for p in points})))
    cfg = SolveConfig(mode=mode, bounds=bounds, exclusive_bounds=bool(exclusive))
    assert solve(m, cfg) == front(evaluated_points(m, cfg))


def test_weak_pruning_shape_matches_flat_reference():
    """Seed 1, the instance the ideal-point test alone prunes worst (at
    |T|=7), at a size the flat pass checks in about a second."""
    m = gen_instance(BenchSpec(seed=1), threat_count=5, controls_per_threat=4)
    cfg = SolveConfig(mode="goals")
    assert solve(m, cfg) == front(evaluated_points(m, cfg))


def _leaves(monkeypatch, m, cfg):
    """The solve of m, and the number of leaves its search sends through
    the culling step."""
    calls = []
    add_point = pareto._add_point

    def counted(*args):
        calls.append(None)
        return add_point(*args)

    monkeypatch.setattr(pareto, "_add_point", counted)
    return solve(m, cfg), len(calls)


@pytest.mark.parametrize("exclusive, leaves", [(False, 322), (True, 7723)])
def test_bounded_search_prunes_on_clipped_ideal(monkeypatch, running_model,
                                                exclusive, leaves):
    """Criterion 5, in the threat order of _threat_order: the ideal point
    raised to the bounds prunes subtrees the bare ideal point keeps (7,669
    leaves without the clip).  Every entry lies strictly above an exclusive
    bound, so there the clip never prunes, but the front stays exact either
    way."""
    cfg = SolveConfig(bounds={"DS": F(45, 100), "DC": F(55, 100)},
                      exclusive_bounds=exclusive)
    result, count = _leaves(monkeypatch, running_model, cfg)
    assert result == front(evaluated_points(running_model, cfg))
    assert count == leaves


def test_threat_order_cuts_the_goals_t6_search(monkeypatch):
    """Seed-9 |T|=6, q=4 in goals mode: the search in model order sends
    5,216 leaves through culling, in the threat order of _threat_order
    1,352."""
    m = gen_instance(BenchSpec(seed=9), threat_count=6, controls_per_threat=4)
    result, count = _leaves(monkeypatch, m, SolveConfig(mode="goals"))
    assert len(result) == 160
    assert count == 1352


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(_SHAPES),
       st.sampled_from(["criteria", "goals"]), st.integers(2, 4),
       st.sampled_from([None, False, True]), st.data())
@settings(max_examples=200, deadline=None)
def test_permuted_threats_permute_the_witnesses(index, shape, mode, stakeholders,
                                                exclusive, data):
    """The search branches in an order of its own, but a model whose threats
    are listed in another order has the same front, each witness permuted
    to match.  Bounds, when drawn, sit on the values of front entries."""
    m = _instance(index, *shape, stakeholders=stakeholders)
    perm = data.draw(st.permutations(range(len(m.threats))))
    permuted = m._replace(threats=tuple(m.threats[i] for i in perm))
    bounds = {}
    if exclusive is not None:
        objectives = solve(m, SolveConfig(mode=mode)).objectives()
        for s, sid in enumerate(m.stakeholder_ids()):
            if data.draw(st.booleans()):
                bounds[sid] = data.draw(st.sampled_from(objectives))[s]
    cfg = SolveConfig(mode=mode, bounds=bounds, exclusive_bounds=bool(exclusive))
    result, other = solve(m, cfg), solve(permuted, cfg)
    assert other.objectives() == result.objectives()
    for a, b in zip(result.entries, other.entries):
        assert {tuple(vec[i] for i in perm) for vec in a.residues} == set(b.residues)


def _digest(result):
    """sha256 of a front's exact objectives and witnesses, in order."""
    text = json.dumps([[[str(v) for v in e.objective],
                        [[str(x) for x in vec] for vec in e.residues]]
                       for e in result.entries])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("q, size, digest", [
    (4, 15, "d3c02b1463767a47042c9e22b382a2111ef288524558bc1a8f506104aaa46538"),
    (5, 47, "1a260b6c55c827230e59b556ce367097e7b8edaf614069e8e94dbfa249cdba5a"),
])
def test_paper_scale_fronts(q, size, digest):
    """The paper's largest scalability rows: seed-9 |T|=8 with 8^8 and 10^8
    points.  Both digests were checked once against the flat culling pass."""
    m = gen_instance(BenchSpec(seed=9), threat_count=8, controls_per_threat=q)
    result = solve(m, SolveConfig(mode="goals"))
    assert len(result) == size
    assert _digest(result) == digest


def _same_front(reduced, oracle):
    """Same objectives and, per objective, the same achieving residue sets."""
    if reduced.objectives() != oracle.objectives():
        return False
    return all(
        set(a.residues) == set(b.residues)
        for a, b in zip(reduced.entries, oracle.entries)
    )


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(_SHAPES),
       st.sampled_from(["criteria", "goals"]), st.sampled_from([1, 2, 3]))
@settings(max_examples=25, deadline=None)
def test_reduced_solve_matches_direct_oracle(index, shape, mode, stakeholders):
    m = _instance(index, *shape, stakeholders=stakeholders)
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


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(_SHAPES),
       st.sampled_from(["criteria", "goals"]), st.integers(1, 4), st.booleans(),
       st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_integer_bound_test_matches_fraction_filter(index, shape, mode,
                                                    stakeholders, midway,
                                                    exclusive, data):
    """The integer bound test against the Fraction comparison (>= or >) of
    the unbounded stream, with the bound on an attained value of one
    objective or midway between two adjacent ones."""
    m = _instance(index, *shape, stakeholders=stakeholders)
    everything = list(evaluated_points(m, SolveConfig(mode=mode)))
    s = data.draw(st.integers(0, stakeholders - 1))
    values = sorted({obj[s] for obj, _ in everything})
    i = data.draw(st.integers(0, len(values) - 1))
    lb = values[i]
    if midway and i + 1 < len(values):
        lb = (lb + values[i + 1]) / 2
    cfg = SolveConfig(mode=mode, bounds={m.stakeholder_ids()[s]: lb},
                      exclusive_bounds=exclusive)
    kept = [(obj, vec) for obj, vec in everything
            if (obj[s] > lb if exclusive else obj[s] >= lb)]
    assert list(evaluated_points(m, cfg)) == kept


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

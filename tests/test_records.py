"""The record types: immutable, validated however they are built, and equal
by their fields alone."""

from fractions import Fraction as F

import pytest

from msrmp import assess, enumerate_rmps, residue_set, residue_space, solve
from msrmp.harness import BenchSpec, run_bench
from msrmp.model import MitigationScale, RiskModel
from msrmp.pareto import ParetoFront, SolveConfig


def _records(small, running):
    front = solve(small, SolveConfig(mode="criteria"))
    enum = enumerate_rmps(small, front.entries[0].residues[0])
    threat = small.threats[0]
    stakeholder = small.stakeholders[0]
    return [
        small, small.scale, threat, threat.controls[0], stakeholder,
        stakeholder.criteria[0], small.goals[0], residue_set(small, threat.id),
        residue_space(small), assess(running), enum, enum.per_threat[threat.id][0],
        SolveConfig(), front.entries[0], front, BenchSpec(),
        run_bench(BenchSpec(threat_counts=(1,), controls_per_threat=1))[0],
    ]


def test_records_are_immutable(small_model, running_model):
    for record in _records(small_model, running_model):
        fields = getattr(record, "_fields", None) or record.__slots__
        for name, value in (fields[0], None), ("extra", 1):
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, fields[0])


@pytest.mark.parametrize("change, match", [
    ({"bounds": {"DS": 0.45}}, "floats are not accepted"),
    ({"bounds": {"DS": True}}, "boolean"),
    ({"bounds": {"DS": F(-1, 2)}}, "nonnegative"),
    ({"mode": "nope"}, "unknown mode"),
    ({"strategy": "chunk-carry"}, "unknown strategy"),
])
def test_derived_solve_config_is_validated(change, match):
    cfg = SolveConfig(bounds={"DS": "0.45"})
    with pytest.raises(ValueError, match=match):
        cfg._replace(**change)
    with pytest.raises(ValueError, match=match):
        SolveConfig._make(change.get(k, v) for k, v in zip(cfg._fields, cfg))
    # a derived config keeps its own exact copy of the bounds
    bounds = {"DC": "0.55"}
    derived = cfg._replace(bounds=bounds)
    bounds["DC"] = F(-1)
    assert derived.bounds == {"DC": F(11, 20)}
    assert cfg._replace(mode="criteria").bounds == {"DS": F(9, 20)}


@pytest.mark.parametrize("change, match", [
    ({"timeout_secs": float("nan")}, "timeout_secs"),
    ({"timeout_secs": -1.0}, "timeout_secs"),
    ({"threat_counts": ()}, "threat_counts"),
    ({"controls_per_threat": 0}, "counts"),
])
def test_derived_bench_spec_is_validated(change, match):
    spec = BenchSpec(seed=3)
    with pytest.raises(ValueError, match=match):
        spec._replace(**change)
    with pytest.raises(ValueError, match=match):
        BenchSpec._make(change.get(k, v) for k, v in zip(spec._fields, spec))
    assert spec._replace(timeout_secs=0.0).timeout_secs == 0.0


def test_models_without_a_scale_do_not_share_tables(small_model):
    parts = small_model[:4]
    first, second = RiskModel(*parts), RiskModel(*parts)
    assert first.scale == second.scale == MitigationScale()
    first.scale.level_counts(3)
    assert list(first.scale.tables) == [3]
    assert second.scale.tables == {}
    assert MitigationScale().tables == {}


def test_scale_equality_ignores_its_tables():
    used, fresh = MitigationScale(), MitigationScale()
    used.level_counts(2)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert used != MitigationScale((F(0), F(1)))
    assert used != MitigationScale(impact_scale_max=5)
    # a derived scale starts with tables of its own
    assert used._replace(levels=(F(0), F(1))).tables == {}


def test_front_equality_is_by_entries(small_model):
    cfg = SolveConfig(mode="criteria")
    front, again = solve(small_model, cfg), solve(small_model, cfg)
    assert front is not again
    assert front == again and hash(front) == hash(again)
    assert front != ParetoFront(front.entries[1:])
    assert front != front.entries
    assert ParetoFront(()) == ParetoFront(()) and not ParetoFront(())
    assert repr(front).startswith("ParetoFront(entries=(FrontEntry(objective=")

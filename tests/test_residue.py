import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrmp import count_raw, count_reduced, residue_set, residue_space
from msrmp.harness import BenchSpec, gen_instance
from msrmp.residue import residue_of_assignment, vector_at

from .conftest import scales, with_scale

F = Fraction


def test_running_example_residue_sets(running_model):
    space = residue_space(running_model)
    assert space.radices() == [10, 20, 8, 6, 6]
    t1 = space.sets[0]
    assert t1.residues == tuple(F(k, 10) for k in range(10, 0, -1))
    # descending, 1 first, all-max (residue 0) excluded
    for rs in space.sets:
        assert rs.residues[0] == 1
        assert all(a > b for a, b in zip(rs.residues, rs.residues[1:]))
        assert 0 not in rs.residues


def test_running_example_counts(running_model):
    assert count_reduced(running_model) == 57_600
    assert count_raw(running_model) == 772_782_433_280
    # (3^5-1)(3^10-1)(3^4-1)(3^3-1)(3^3-1)
    assert count_raw(running_model) == 242 * 59_048 * 80 * 26 * 26


def test_small_example_counts(small_model):
    assert count_raw(small_model) == 128
    assert count_reduced(small_model) == 32
    assert residue_space(small_model).radices() == [4, 4, 2]


def test_default_scale_set_size_is_2n():
    """With levels {0, 1/2, 1}, a threat with n controls has 2n residues."""
    for q in range(1, 7):
        m = gen_instance(BenchSpec(seed=3), threat_count=1, controls_per_threat=q)
        assert len(residue_set(m, "T1")) == 2 * q


def _brute_residues(m, tid):
    threat = m.threat(tid)
    n = len(threat.controls)
    levels = m.scale.levels
    top = max(levels)
    out = set()
    for combo in itertools.product(levels, repeat=n):
        if n and all(lv == top for lv in combo):
            continue
        out.add(1 - sum(combo, F(0)) / n if n else F(1))
    return out


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=6),
       scales)
@settings(max_examples=60, deadline=None)
def test_residue_set_matches_brute_force(index, q, levels):
    m = with_scale(gen_instance(BenchSpec(seed=42), index=index, threat_count=1,
                                controls_per_threat=q), levels)
    rs = residue_set(m, "T1")
    assert list(rs.residues) == sorted(_brute_residues(m, "T1"), reverse=True)
    assert count_raw(m) == (len(levels)**q - 1 if q else 1)


def test_counts_multiply_over_threats():
    m = gen_instance(BenchSpec(seed=5), threat_count=4, controls_per_threat=3)
    assert count_raw(m) == (3**3 - 1) ** 4
    assert count_reduced(m) == 6**4


def test_vector_at_enumeration_order(small_model):
    space = residue_space(small_model)
    seen = [vector_at(space, o) for o in range(space.size)]
    # first threat is the most significant digit
    assert seen[0] == (F(1), F(1), F(1))
    assert seen[1] == (F(1), F(1), F(1, 2))
    assert seen[2] == (F(1), F(3, 4), F(1))
    assert seen[-1] == (F(1, 4), F(1, 4), F(1, 2))
    assert len(set(seen)) == space.size


def test_vector_at_bounds(small_model):
    space = residue_space(small_model)
    with pytest.raises(IndexError):
        vector_at(space, -1)
    for ordinal in (space.size, space.size * 2, 10**30):
        with pytest.raises(IndexError):
            vector_at(space, ordinal)


def test_residue_of_assignment_worked_values(running_model):
    m = running_model
    a = m.assignment
    assert residue_of_assignment(m, "T1", a["T1"]) == F(2, 5)
    assert residue_of_assignment(m, "T2", a["T2"]) == F(7, 20)
    assert residue_of_assignment(m, "T3", a["T3"]) == F(1, 4)
    assert residue_of_assignment(m, "T4", a["T4"]) == F(5, 6)
    assert residue_of_assignment(m, "T5", a["T5"]) == F(2, 3)


def test_residue_of_assignment_errors(small_model):
    m = small_model
    with pytest.raises(ValueError, match="misses control"):
        residue_of_assignment(m, "T1", {"c1": F(1)})
    with pytest.raises(ValueError, match="not in the mitigation scale"):
        residue_of_assignment(m, "T1", {"c1": F(1, 3), "c2": F(0)})
    with pytest.raises(ValueError, match="maximum"):
        residue_of_assignment(m, "T1", {"c1": F(1), "c2": F(1)})


def test_every_space_point_is_realized_by_some_assignment(small_model):
    """The reduced space is exactly the image of the assignment space."""
    m = small_model
    realized = {tid: set() for tid in m.threat_ids()}
    for t in m.threats:
        ids = [c.id for c in t.controls]
        for combo in itertools.product(m.scale.levels, repeat=len(ids)):
            try:
                x = residue_of_assignment(m, t.id, dict(zip(ids, combo)))
            except ValueError:
                continue
            realized[t.id].add(x)
    space = residue_space(m)
    for rs in space.sets:
        assert set(rs.residues) == realized[rs.threat_id]

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msrmp import ModelError, assess, count_rmps, enumerate_rmps, objective
from msrmp.harness import BenchSpec, gen_instance
from msrmp.mapback import (assignments_for_residue, count_assignments, listing,
                           listing_counts)
from msrmp.residue import residue_of_assignment, residue_set

from .conftest import scales, with_scale

F = Fraction

OPTIMUM = (F(1), F(1, 20), F(1, 8), F(1, 6), F(1, 6))


def test_count_at_running_example_optimum(running_model):
    assert count_rmps(running_model, OPTIMUM) == 360
    enum = enumerate_rmps(running_model, OPTIMUM)
    assert enum.per_threat_counts == {"T1": 1, "T2": 10, "T3": 4, "T4": 3, "T5": 3}
    assert enum.total == 1 * 10 * 4 * 3 * 3
    assert not enum.truncated


def test_running_example_optimum_structure(running_model):
    enum = enumerate_rmps(running_model, OPTIMUM)
    # residue 1 on T1: the single all-zero assignment
    (t1,) = enum.per_threat["T1"]
    assert t1.levels == (F(0),) * 5
    # residue 1/20 on T2: nine controls at 1 and one at 1/2
    for a in enum.per_threat["T2"]:
        assert sorted(a.levels) == [F(1, 2)] + [F(1)] * 9
    # residue 1/8 on T3: three at 1 and one at 1/2
    for a in enum.per_threat["T3"]:
        assert sorted(a.levels) == [F(1, 2)] + [F(1)] * 3
    for tid in ("T4", "T5"):
        for a in enum.per_threat[tid]:
            assert sorted(a.levels) == [F(1, 2)] + [F(1)] * 2


def test_published_example_policies_are_enumerated(running_model):
    """Three reference policies: T1 all zero, and in every other threat the
    k-th listed control at 1/2 with the rest at 1 (k = 1, 2, 3)."""
    enum = enumerate_rmps(running_model, OPTIMUM)
    m = running_model
    for k in range(3):
        for tid, which in (("T2", k), ("T3", k), ("T4", k), ("T5", k)):
            n = len(m.threat(tid).controls)
            levels = [F(1)] * n
            levels[which] = F(1, 2)
            assert any(a.levels == tuple(levels) for a in enum.per_threat[tid])
        assert any(a.levels == (F(0),) * 5 for a in enum.per_threat["T1"])


def test_small_example_enumeration(small_model):
    enum = enumerate_rmps(small_model, (F(1, 4), F(1, 2), F(1, 2)))
    assert enum.per_threat_counts == {"T1": 2, "T2": 3, "T3": 1}
    assert enum.total == 6
    assert [a.levels for a in enum.per_threat["T1"]] == [
        (F(1), F(1, 2)), (F(1, 2), F(1)),
    ]
    assert [a.levels for a in enum.per_threat["T2"]] == [
        (F(1), F(0)), (F(1, 2), F(1, 2)), (F(0), F(1)),
    ]
    assert [a.levels for a in enum.per_threat["T3"]] == [(F(1, 2),)]


def test_dict_target_matches_sequence_target(small_model):
    target = {"T1": F(1, 4), "T2": F(1, 2), "T3": F(1, 2)}
    seq = (F(1, 4), F(1, 2), F(1, 2))
    assert enumerate_rmps(small_model, target) == enumerate_rmps(small_model, seq)
    assert count_rmps(small_model, target) == count_rmps(small_model, seq)


def test_unachievable_residue_raises(small_model):
    with pytest.raises(ValueError, match="not achievable"):
        count_assignments(small_model, "T1", F(1, 3))
    with pytest.raises(ValueError, match="not achievable"):
        list(assignments_for_residue(small_model, "T1", F(1, 3)))
    with pytest.raises(ValueError, match="not achievable"):
        list(assignments_for_residue(small_model, "T1", F(1, 3), limit=0))
    # residue 0 means all-max, which is excluded
    with pytest.raises(ValueError, match="not achievable"):
        count_assignments(small_model, "T1", F(0))
    with pytest.raises(ValueError, match="not achievable"):
        count_assignments(small_model, "T1", F(2))


def test_wrong_vector_length(small_model):
    for call in (enumerate_rmps, count_rmps):
        for vec in ((F(1), F(1)), (F(1),) * 4):
            with pytest.raises(ValueError, match="expected 3"):
                call(small_model, vec)
        with pytest.raises(KeyError, match="missing threats"):
            call(small_model, {"T1": F(1), "T2": F(1)})


def test_limit_truncates_emission_not_counts(running_model):
    enum = enumerate_rmps(running_model, OPTIMUM, limit=2)
    assert enum.truncated
    assert enum.total == 360  # exact despite truncation
    assert len(enum.per_threat["T2"]) == 2
    assert enum.per_threat_counts["T2"] == 10


def test_limit_zero_emits_nothing_but_counts_exactly(running_model):
    enum = enumerate_rmps(running_model, OPTIMUM, limit=0)
    assert enum.truncated
    assert enum.total == 360
    assert all(a == [] for a in enum.per_threat.values())


@pytest.mark.parametrize("limit", [-1, 2.5, True, "3"])
def test_limit_must_be_an_int_at_least_zero(small_model, limit):
    """A negative limit would report an empty, truncated listing and a
    fractional one fail inside a slice; both are refused up front."""
    x = {"T1": "0.25", "T2": "0.5", "T3": "0.5"}
    own = {lv: lv for lv in small_model.scale.levels}
    for call in (lambda: enumerate_rmps(small_model, x, limit=limit),
                 lambda: listing_counts(small_model, [x], limit),
                 lambda: listing(small_model, "T1", "0.25", [own] * 2, limit)):
        with pytest.raises(ValueError, match="limit must be"):
            call()


@pytest.mark.parametrize("limit", [None, 0, 2])
def test_heads_form_lists_the_default_rows(running_model, limit):
    """Given heads, each threat's list is the default listing's rows, each
    level mapped through its control position's table."""
    m = running_model
    heads = {t.id: [{lv: f"{c.id}={lv}" for lv in m.scale.levels}
                    for c in t.controls]
             for t in m.threats}
    default = enumerate_rmps(m, OPTIMUM, limit=limit)
    rows = enumerate_rmps(m, OPTIMUM, limit=limit, heads=heads)
    assert rows.target == default.target
    assert rows.per_threat_counts == default.per_threat_counts
    assert (rows.total, rows.truncated) == (default.total, default.truncated)
    for tid, assignments in default.per_threat.items():
        assert len(rows.per_threat[tid]) == len(assignments)
        assert rows.per_threat[tid] == [
            tuple(h[lv] for h, lv in zip(heads[tid], a.levels))
            for a in assignments]


def test_levels_are_the_scale_objects(running_model):
    """The CLI renders a level by the identity of its Fraction object."""
    scale = {id(lv) for lv in running_model.scale.levels}
    enum = enumerate_rmps(running_model, OPTIMUM)
    for assignments in enum.per_threat.values():
        assert all(id(lv) in scale for a in assignments for lv in a.levels)


def test_assignments_round_trip_to_their_residue(running_model):
    enum = enumerate_rmps(running_model, OPTIMUM)
    for tid, xt in zip(running_model.threat_ids(), OPTIMUM):
        for a in enum.per_threat[tid]:
            assert residue_of_assignment(
                running_model, tid, a.as_dict(running_model)
            ) == xt


def _brute_assignments(m, tid, x):
    threat = m.threat(tid)
    n = len(threat.controls)
    top = max(m.scale.levels)
    out = []
    for combo in itertools.product(m.scale.levels, repeat=n):
        if n and all(lv == top for lv in combo):
            continue
        if (1 - sum(combo, F(0)) / n if n else F(1)) == x:
            out.append(combo)
    return out


@given(st.data(), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=5), scales)
@settings(max_examples=50, deadline=None)
def test_sound_and_complete_against_brute_force(data, index, q, levels):
    """Both forms of the listing, in full and cut at any limit up to one
    past the count, so that cut wants shared by several parents and lists
    dropped after their last reader are exercised; q = 0 is drawn too."""
    m = with_scale(gen_instance(BenchSpec(seed=11), index=index, threat_count=1,
                                controls_per_threat=q), levels)
    # a symbol per position and level that no other position shares
    heads = [{lv: f"{j}:{lv}" for lv in levels} for j in range(q)]
    for x in residue_set(m, "T1").residues:
        expected = sorted(_brute_assignments(m, "T1", x), reverse=True)
        symbols = [tuple(h[lv] for h, lv in zip(heads, combo))
                   for combo in expected]
        limit = data.draw(st.integers(min_value=0, max_value=len(expected) + 1))
        got = [a.levels for a in assignments_for_residue(m, "T1", x)]
        assert got == expected
        got = [a.levels for a in assignments_for_residue(m, "T1", x, limit=limit)]
        assert got == expected[:limit]
        assert listing(m, "T1", x, heads) == symbols
        assert listing(m, "T1", x, heads, limit=limit) == symbols[:limit]
        assert count_assignments(m, "T1", x) == len(expected)


@pytest.mark.parametrize("levels, q", [((F(0), F(1)), 10),
                                       ((F(0), F(1, 2), F(1)), 9)])
def test_deep_prefixes_against_brute_force(levels, q):
    """Listings large enough that their prefixes hold three controls or
    more, in full and cut at half their count; prefixes that reach the
    same node share its list of tails."""
    m = with_scale(gen_instance(BenchSpec(seed=11), threat_count=1,
                                controls_per_threat=q), levels)
    heads = [{lv: f"{j}:{lv}" for lv in levels} for j in range(q)]
    expected = {}
    # the product runs in ascending order, so each residue's rows are
    # listed backwards
    for combo in reversed(list(itertools.product(levels, repeat=q))):
        expected.setdefault(1 - sum(combo, F(0)) / q, []).append(
            tuple(h[lv] for h, lv in zip(heads, combo)))
    del expected[F(0)]  # the all-max assignment alone
    assert sorted(expected, reverse=True) == list(residue_set(m, "T1").residues)
    for x, rows in expected.items():
        assert listing(m, "T1", x, heads) == rows
        assert listing(m, "T1", x, heads, limit=len(rows) // 2) == rows[:len(rows) // 2]
    middle = max(expected, key=lambda x: len(expected[x]))
    groups = listing(m, "T1", middle, heads).groups
    assert min(len(prefix) for prefix, _ in groups) >= 3
    assert len({id(tails) for _, tails in groups}) < len(groups)


def test_large_listing_holds_about_a_root_of_its_rows():
    """The 996,216-assignment listing of one threat of 16 controls: its
    prefixes run six controls deep, so 722 groups share 34,001 stored tails
    (two-control prefixes would hold 596,388 in 9 groups)."""
    m = gen_instance(BenchSpec(seed=9), threat_count=1, controls_per_threat=16)
    own = {lv: lv for lv in m.scale.levels}
    rows = listing(m, "T1", "0.6875", [own] * 16)
    stored = {id(tails): len(tails) for _, tails in rows.groups}
    assert len(rows) == 996_216
    assert (len(rows.groups), sum(stored.values())) == (722, 34_001)
    assert {len(prefix) for prefix, _ in rows.groups} == {6}


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=5),
       scales)
@settings(max_examples=30, deadline=None)
def test_counts_cover_the_whole_assignment_space(index, q, levels):
    """Summing the per-residue counts recovers k^q - 1 for k levels (1 when
    there are no controls)."""
    m = with_scale(gen_instance(BenchSpec(seed=12), index=index, threat_count=1,
                                controls_per_threat=q), levels)
    total = sum(
        count_assignments(m, "T1", x) for x in residue_set(m, "T1").residues
    )
    assert total == (len(levels)**q - 1 if q else 1)


@given(st.data(), scales, st.integers(min_value=0, max_value=4),
       st.none() | st.just(0) | st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_shared_listing_changes_nothing(small_model, data, levels, q, limit):
    """Vectors that repeat (threat, residue) pairs enumerate alike with one
    shared dict and without: the shared dict only saves work."""
    m = with_scale(data.draw(st.sampled_from([
        small_model,  # 2, 2 and 1 controls: tables of two sizes
        gen_instance(BenchSpec(seed=13), threat_count=2, controls_per_threat=q),
    ])), levels)
    # one or two residues per threat, so the vectors repeat pairs
    pools = [data.draw(st.lists(st.sampled_from(residue_set(m, t).residues),
                                min_size=1, max_size=2, unique=True))
             for t in m.threat_ids()]
    vectors = data.draw(st.lists(st.tuples(*map(st.sampled_from, pools)),
                                 min_size=1, max_size=5))
    listed = {}
    for x in vectors:
        shared = enumerate_rmps(m, x, limit=limit, listed=listed)
        alone = enumerate_rmps(m, x, limit=limit)
        assert shared == alone
        assert list(shared.per_threat) == list(alone.per_threat)
        for t, xt in zip(m.threat_ids(), x):
            # the shared dict holds each pair's count beside its list
            assert listed[t, xt] == (shared.per_threat_counts[t],
                                     shared.per_threat[t])
            assert shared.per_threat[t] is listed[t, xt][1]


def test_unknown_threat_ids_are_refused(small_model):
    """A residue vector naming a threat the model lacks is refused, not read
    as if the threat were not there.  A residue or an assignment level that
    is a float, a boolean or an over-long number is refused as a document
    number is, naming its threat."""
    x = {"T1": "0.25", "T2": "0.5", "T3": "0.5", "T9": "0.5"}
    for call in (enumerate_rmps, count_rmps, objective):
        with pytest.raises(KeyError, match="unknown threats \\['T9'\\]"):
            call(small_model, x)
    levels = {"T1": {"c1": 1, "c2": 0}, "T3": {"c5": 0}}
    for bad in (0.5, True, "1e-200000"):
        x = {"T1": "0.25", "T2": bad, "T3": "0.5"}
        calls = [
            lambda: enumerate_rmps(small_model, x),
            lambda: count_rmps(small_model, x),
            lambda: objective(small_model, list(x.values())),
            lambda: count_assignments(small_model, "T2", bad),
            lambda: assess(small_model, {**levels, "T2": {"c3": bad, "c4": 0}}),
        ]
        for call in calls:
            with pytest.raises(ModelError, match="T2"):
                call()

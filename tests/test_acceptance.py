"""Acceptance gate: one test per published claim about the solver.

Each test pins the externally stated numbers at their stated tolerance
(exact value, or rounding at the stated number of decimals).  Two claims
about the running example's constrained/optimal objective values are not
reproducible under exact arithmetic; those assertions are kept as stated
and fail honestly rather than being loosened.
"""

import random
import resource
import time
from fractions import Fraction

import pytest

from msrmp import (
    SolveConfig,
    assess,
    count_raw,
    count_reduced,
    count_rmps,
    enumerate_rmps,
    evaluated_points,
    front,
    impact_level,
    ntc,
    solve,
    solve_direct_oracle,
)
from msrmp.cli import main
from msrmp.harness import BenchSpec, gen_instance
from msrmp.impact import objective_goals, objective_goals_ratio
from msrmp.model import decimal_str

from .conftest import RUNNING
from .test_pareto import _digest

F = Fraction

OPTIMUM = (F(1), F(1, 20), F(1, 8), F(1, 6), F(1, 6))


def test_criterion_1_worked_assessment(running_model):
    t0 = time.perf_counter()
    assert impact_level(running_model, "DS", "T2") == F(29, 40)  # 0.725 exactly
    report = assess(running_model, mode="goals")
    elapsed = time.perf_counter() - t0
    g1 = report.goal_averages["G1"]
    assert decimal_str(g1["DS"], 3) == "0.074"
    assert decimal_str(g1["DC"], 3) == "0.087"
    oir = dict(zip(running_model.stakeholder_ids(), report.objectives))
    assert decimal_str(oir["DS"], 3) == "0.549"
    assert decimal_str(oir["DC"], 3) == "0.576"
    assert elapsed < 1.0


def test_criterion_2_search_space_counts(running_model, small_model):
    assert count_reduced(running_model) == 57_600
    assert count_raw(small_model) == 128

    # the eight published benchmark rows, from pure arithmetic
    spec = BenchSpec(seed=0)
    for t in (5, 6, 7, 8):
        m = gen_instance(spec, threat_count=t, controls_per_threat=4)
        assert count_raw(m) == 80**t == 8**t * 10**t
        assert count_reduced(m) == 8**t
        assert count_raw(m) // count_reduced(m) == 10**t
    assert count_raw(gen_instance(spec, threat_count=5, controls_per_threat=4)) \
        == 32_768 * 10**5
    for t in (5, 6, 7, 8):
        m = gen_instance(spec, threat_count=t, controls_per_threat=5)
        assert count_raw(m) == 242**t
        assert count_reduced(m) == 10**t
    # published magnitudes of the q=5 raw counts (leading digits, truncated)
    assert (str(242**5)[:3], len(str(242**5))) == ("829", 12)  # ~8.29e11
    assert (round(242**6, -12), len(str(242**6))) == (201 * 10**12, 15)  # ~2.01e14
    assert (str(242**7)[:3], len(str(242**7))) == ("486", 17)  # ~4.86e16


def test_criterion_3_running_example_optimum(running_model):
    t0 = time.perf_counter()
    result = solve(running_model, SolveConfig(mode="goals"))
    elapsed = time.perf_counter() - t0
    assert len(result) == 1
    (entry,) = result.entries
    assert entry.residues == (OPTIMUM,)
    ds, dc = entry.objective
    assert decimal_str(ds, 4) == "0.2260"
    assert decimal_str(dc, 4) == "0.4168"
    assert elapsed < 30.0


def test_criterion_4_mapping_back(running_model):
    assert count_rmps(running_model, OPTIMUM) == 360 == 1 * 10 * 4 * 3 * 3
    enum = enumerate_rmps(running_model, OPTIMUM)
    assert enum.per_threat_counts == {"T1": 1, "T2": 10, "T3": 4, "T4": 3, "T5": 3}
    (t1,) = enum.per_threat["T1"]
    assert t1.levels == (F(0),) * 5
    # the three published example policies: k-th control of every multi-control
    # threat at 1/2, the rest at 1
    for k in range(3):
        for tid in ("T2", "T3", "T4", "T5"):
            n = len(running_model.threat(tid).controls)
            levels = [F(1)] * n
            levels[k] = F(1, 2)
            assert any(a.levels == tuple(levels) for a in enum.per_threat[tid])


def test_criterion_5_risk_appetite_bounds(running_model):
    cfg = SolveConfig(
        mode="goals", bounds={"DS": F(45, 100), "DC": F(55, 100)}
    )
    result = solve(running_model, cfg)
    assert result.feasible
    assert all(obj[0] >= F(45, 100) and obj[1] >= F(55, 100)
               for obj in result.objectives())
    assert len(result) == 6


def test_criterion_6_strategy_equivalence():
    # >= 100 seeded instances within |T| <= 6, q <= 4: the branch-and-bound
    # search against the flat culling pass over every point
    shapes = [(nt, q) for nt in range(1, 7) for q in range(1, 5)
              if (2 * q) ** nt <= 4200]
    assert len(shapes) == 20
    instances = [
        gen_instance(BenchSpec(seed=606), index=rep * 100 + i,
                     threat_count=nt, controls_per_threat=q)
        for rep in range(5)
        for i, (nt, q) in enumerate(shapes)
    ]
    assert len(instances) == 100
    cfg = SolveConfig(mode="goals")
    for m in instances:
        assert solve(m, cfg) == front(evaluated_points(m, cfg))


def _fronts_match(reduced, oracle):
    return reduced.objectives() == oracle.objectives() and all(
        set(a.residues) == set(b.residues)
        for a, b in zip(reduced.entries, oracle.entries)
    )


def test_criterion_7_oracle_equivalence(small_model):
    # the 128-combination example, both modes
    for mode in ("criteria", "goals"):
        cfg = SolveConfig(mode=mode)
        assert _fronts_match(solve(small_model, cfg),
                             solve_direct_oracle(small_model, cfg))

    # published optimum of the criteria-mode example: first coordinate 0.35;
    # the second coordinate is pinned to the oracle's exact value
    cfg = SolveConfig(mode="criteria")
    oracle = solve_direct_oracle(small_model, cfg)
    (entry,) = solve(small_model, cfg).entries
    assert decimal_str(entry.objective[0], 2) == "0.35"
    assert entry.objective[1] == oracle.entries[0].objective[1] == F(1, 2)

    # seeded instances across every shape with raw count <= 10^5
    shapes = [(nt, q) for nt in range(1, 7) for q in range(1, 6)
              if (3**q - 1) ** nt <= 10**5]
    for index, (nt, q) in enumerate(shapes):
        m = gen_instance(BenchSpec(seed=707), index=index,
                         threat_count=nt, controls_per_threat=q)
        assert count_raw(m) <= 10**5
        for mode in ("criteria", "goals"):
            cfg = SolveConfig(mode=mode)
            assert _fronts_match(solve(m, cfg), solve_direct_oracle(m, cfg))


def test_criterion_8_exactness_and_determinism(running_model, tmp_path):
    # byte-identical output documents over repeated runs
    outs = []
    for i in range(5):
        path = tmp_path / f"run{i}.json"
        assert main(["solve", str(RUNNING), "--mode", "goals",
                     "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert all(o == outs[0] for o in outs)

    # sum of normalized threat criticalities is exactly 1
    rng = random.Random(808)
    tids = running_model.threat_ids()
    for _ in range(10_000):
        x = {t: F(rng.randint(1, 60), rng.randint(1, 60)) for t in tids}
        assert sum(ntc(running_model, x).values()) == 1

    # ratio form of the goal-weighted objective equals the direct double sum
    rng = random.Random(909)
    for i in range(10_000):
        m = gen_instance(BenchSpec(seed=111), index=i,
                         threat_count=rng.randint(1, 4),
                         controls_per_threat=rng.randint(1, 3))
        x = [F(rng.randint(1, 24), rng.randint(1, 24)) for _ in m.threats]
        assert objective_goals(m, x) == objective_goals_ratio(m, x)


def test_criterion_9_scale_smoke():
    m = gen_instance(BenchSpec(seed=9), threat_count=7, controls_per_threat=4)
    assert count_reduced(m) == 2_097_152
    t0 = time.perf_counter()
    result = solve(m, SolveConfig(mode="goals"))
    assert time.perf_counter() - t0 < 600.0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert peak_mb < 2048
    # checked once against the flat culling pass, which takes about a minute
    assert len(result) == 8
    assert _digest(result) == (
        "91f160c356cc843a1d18375da00b7f960ea198c2e91d832768744002ba24c31b")

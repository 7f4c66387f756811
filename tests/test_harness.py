import ast
import importlib
import io
from fractions import Fraction

import pytest

from msrmp import validate_model
from msrmp.harness import BenchSpec, gen_instance, run_bench, write_csv
from msrmp.residue import count_raw, count_reduced

from .conftest import ROOT

F = Fraction


def test_gen_instance_is_deterministic():
    spec = BenchSpec(seed=123)
    a = gen_instance(spec, index=4, threat_count=3, controls_per_threat=2)
    b = gen_instance(spec, index=4, threat_count=3, controls_per_threat=2)
    assert a == b
    c = gen_instance(spec, index=5, threat_count=3, controls_per_threat=2)
    assert a != c
    d = gen_instance(BenchSpec(seed=124), index=4, threat_count=3,
                     controls_per_threat=2)
    assert a != d


def test_generated_instances_are_valid():
    for index in range(20):
        m = gen_instance(BenchSpec(seed=9), index=index,
                         threat_count=1 + index % 5,
                         controls_per_threat=1 + index % 4)
        assert validate_model(m, goals_mode=True) == []
        for s in m.stakeholders:
            assert sum((c.weight for c in s.criteria), F(0)) == 1
        for t in m.threats:
            assert t.goals  # every threat affects at least one goal


def test_generated_shape_follows_spec():
    spec = BenchSpec(seed=1)
    m = gen_instance(spec, threat_count=5, controls_per_threat=4)
    assert len(m.threats) == 5
    assert all(len(t.controls) == 4 for t in m.threats)
    assert [len(s.criteria) for s in m.stakeholders] == [4, 2]
    assert len(m.goals) == 6


def test_bench_spec_validation():
    with pytest.raises(ValueError):
        BenchSpec(threat_counts=())
    with pytest.raises(ValueError):
        BenchSpec(threat_counts=(0,))
    with pytest.raises(ValueError):
        BenchSpec(controls_per_threat=0)
    for timeout in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="timeout_secs"):
            BenchSpec(timeout_secs=timeout)
    assert BenchSpec(timeout_secs=0.0).timeout_secs == 0.0


def test_run_bench_records_and_csv():
    spec = BenchSpec(threat_counts=(2, 3), controls_per_threat=2, seed=21)
    records = run_bench(spec)
    assert [rec.threats for rec in records] == [2, 3]
    for rec in records:
        m = gen_instance(spec, index=spec.threat_counts.index(rec.threats),
                         threat_count=rec.threats)
        assert rec.raw_count == count_raw(m)
        assert rec.reduced_count == count_reduced(m)
        assert rec.reduction_factor == F(rec.raw_count, rec.reduced_count)
        assert rec.controls_total == rec.threats * 2
        assert not rec.timed_out
        assert rec.front_size >= 1

    buf = io.StringIO()
    write_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ("threats,controls_total,raw_count,reduced_count,"
                        "reduction_factor,mode,seconds,peak_mem_mb,"
                        "front_size,timed_out")
    assert len(lines) == 1 + len(records)
    row = lines[1].split(",")
    assert row[:6] == ["2", "4", "64", "16", "4", "goals"]
    assert len(row) == 10 and float(row[6]) >= 0


def test_run_bench_timeout_is_recorded_not_raised():
    spec = BenchSpec(threat_counts=(5,), controls_per_threat=4, seed=2,
                     timeout_secs=0.0)
    records = run_bench(spec)
    assert len(records) == 1
    assert records[0].timed_out
    assert records[0].front_size == 0


def test_peak_memory_is_measured_per_cell():
    """A small cell run after a larger one reports its own, smaller peak,
    not the process's high-water mark."""
    spec = BenchSpec(threat_counts=(6, 2), seed=9)
    big, small = run_bench(spec)
    assert 0 < small.peak_mem_mb < big.peak_mem_mb


def test_every_tracer_target_exists():
    """benchmark/tracing.py patches these names by module and attribute, and
    reports the metrics of a missing one as absent.  Its TARGETS are read
    from the file, not imported."""
    tree = ast.parse((ROOT / "benchmark" / "tracing.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [ast.unparse(t) for t in node.targets] == ["TARGETS"])
    assert targets
    for mod, attr in targets.values():
        assert hasattr(importlib.import_module(mod), attr), f"{mod}.{attr}"

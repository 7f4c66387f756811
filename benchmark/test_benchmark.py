"""Self-test of the benchmark on tiny configurations.

    python3 -m pytest -q benchmark/test_benchmark.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import Workload, front_digest, goals_document, vary  # noqa: E402

from msrmp import pareto  # noqa: E402
from msrmp.harness import BenchSpec, gen_instance  # noqa: E402
from msrmp.model import parse_model, render_model  # noqa: E402

TINY = {
    "tiny-goals": Workload("tiny-goals", "goals", threats=3),
    "tiny-cli": Workload("tiny-cli", "cli", fixture="fixtures/example-small.json",
                         argv=("--mode", "criteria", "--with-rmps")),
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(wl, trace):
    return run.run_one(wl, 9, 0.05, trace, run.per_layer_units())


def test_every_metric_is_printed_with_its_unit():
    spec = _spec()
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        units = {m["name"]: m["unit"] for m in declared}
        for wl in TINY.values():
            lines, result = _run(wl, trace)
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            metrics = result["metrics"]
            assert set(metrics) == set(units), (wl.name, trace)
            text = "\n".join(lines)
            for name, unit in units.items():
                assert metrics[name]["unit"] == unit
                assert isinstance(metrics[name]["value"], (int, float))
                assert f"{name} " in text and f" {unit}" in text
            if not trace:
                assert "error_rate" in text


def test_corrupted_reference_digest_gives_failures():
    for wl in TINY.values():
        bad = dataclasses.replace(wl, reference="0" * 64)
        lines, result = _run(bad, 0)
        assert result["attempted"] >= 1
        assert result["failed"] == result["attempted"]
        assert not result["correct"]
        assert any("error_rate   1.0000" in line for line in lines)


def test_missing_internal_target_is_reported_absent(tmp_path):
    doc, order = goals_document(TINY["tiny-goals"], 3)
    document = tmp_path / "model.json"
    document.write_text(json.dumps(doc))
    cfg = {
        "kind": "goals", "document": str(document), "order": order,
        "argv": [], "output": str(tmp_path / "out.json"), "reference": None,
        "seconds": 0, "budget_s": 60, "trace": True,
    }
    original = pareto._compare_keys
    targets = dict(tracing.TARGETS,
                   compare=("msrmp.pareto", "_compare_keys_gone"),
                   evaluate=("msrmp.pareto", "_feasible_keys_gone"))
    raw = worker.run(cfg, targets=targets)
    assert pareto._compare_keys is original  # patches are undone
    assert not any(op["error"] for op in raw["ops"])
    lines, result = run.summarize("tiny-goals", raw, 1, run.per_layer_units())
    gone = {"pareto.compare_calls", "pareto.compares_per_point",
            "pareto.evaluate_s", "pareto.evaluate_ns_per_point",
            "pareto.points_feasible", "pareto.cull_s", "pareto.cull_yield"}
    assert gone.isdisjoint(result["metrics"])
    assert result["metrics"]["pareto.front_size"]["value"] > 0
    assert result["metrics"]["pareto.assemble_s"]["value"] > 0
    for name in gone:
        assert any(line.startswith(f"  absent: {name} ") for line in lines)


def test_seeded_variants_solve_to_the_same_canonical_front():
    m = gen_instance(BenchSpec(seed=9), threat_count=3, controls_per_threat=4)
    config = pareto.SolveConfig(mode="goals")
    expected = front_digest(pareto.solve(m, config), [0, 1])
    for seed in range(6):
        doc, order = vary(render_model(m), seed)
        assert front_digest(pareto.solve(parse_model(doc), config), order) == expected


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "goals-t6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

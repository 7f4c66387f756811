import json

import pytest

from msrmp.cli import main

from .conftest import RUNNING, SMALL


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", str(RUNNING))
    assert code == 0
    assert err.strip() == "ok"


def test_validate_reports_diagnostics(tmp_path, capsys):
    doc = json.loads(SMALL.read_text())
    doc["stakeholders"][0]["criteria"][0]["weight"] = "0.7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "weights sum to" in err


def test_missing_file_is_an_error_not_a_traceback(capsys):
    code, out, err = run(capsys, "validate", "no-such-file.json")
    assert code == 1
    assert err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["assess", str(RUNNING), "--precision", "-1"],
    ["count", str(RUNNING), "--precision", "x"],
    ["solve", str(SMALL), "--chunk", "0"],
    ["bench", "--threats", "2,x"],
    ["bench", "--chunks", "2,x"],
])
def test_bad_option_values_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_count_document(capsys):
    code, out, err = run(capsys, "count", str(RUNNING))
    assert code == 0
    doc = json.loads(out)
    assert doc["raw_count"] == 772_782_433_280
    assert doc["reduced_count"] == 57_600
    assert [t["residue_count"] for t in doc["threats"]] == [10, 20, 8, 6, 6]


def test_assess_document(capsys):
    code, out, err = run(capsys, "assess", str(RUNNING), "--precision", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["residues"]["T2"] == {"decimal": "0.350", "exact": "0.35"}
    assert doc["residues"]["T4"]["exact"] == "5/6"
    assert doc["objectives"]["DS"]["decimal"] == "0.549"
    assert doc["objectives"]["DC"]["decimal"] == "0.576"
    assert doc["goal_averages"]["G1"]["DS"]["decimal"] == "0.074"
    assert "G5" not in doc["goal_averages"]


def test_assess_without_assignment_fails(capsys):
    code, out, err = run(capsys, "assess", str(SMALL))
    assert code == 1
    assert "no assignment" in err


def test_solve_document(capsys):
    code, out, err = run(capsys, "solve", str(SMALL), "--mode", "criteria")
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["front_size"] == 1
    (entry,) = doc["entries"]
    assert entry["objectives"]["s1"]["decimal"] == "0.3500"
    assert entry["objectives"]["s2"]["exact"] == "0.5"
    assert entry["residues"] == [
        {"T1": {"decimal": "0.2500", "exact": "0.25"},
         "T2": {"decimal": "0.2500", "exact": "0.25"},
         "T3": {"decimal": "0.5000", "exact": "0.5"}}
    ]


def test_solve_with_rmps(capsys):
    code, out, err = run(capsys, "solve", str(SMALL), "--mode", "criteria",
                         "--with-rmps")
    assert code == 0
    doc = json.loads(out)
    (entry,) = doc["entries"]
    assert entry["rmp_count"] == 4  # 2 * 2 * 1 over the three threats
    (rmp,) = entry["rmps"]
    t2 = next(p for p in rmp["per_threat"] if p["threat"] == "T2")
    assert t2["count"] == 2
    assert t2["assignments"] == [{"c3": "1", "c4": "0.5"},
                                 {"c3": "0.5", "c4": "1"}]


def test_solve_with_bounds(capsys):
    code, out, err = run(capsys, "solve", str(SMALL), "--mode", "criteria",
                         "--min-bound", "s2=0.6")
    assert code == 0
    doc = json.loads(out)
    assert doc["bounds"] == {"s2": "0.6"}
    assert doc["front_size"] >= 1
    assert all(
        float(e["objectives"]["s2"]["decimal"]) >= 0.6 for e in doc["entries"]
    )


def test_bad_bound_syntax(capsys):
    code, out, err = run(capsys, "solve", str(SMALL), "--mode", "criteria",
                         "--min-bound", "s2")
    assert code == 1
    assert "STAKEHOLDER=VALUE" in err


def test_map_back_explicit_residues(capsys):
    code, out, err = run(capsys, "map-back", str(SMALL),
                         "--residue", "T1=0.25", "--residue", "T2=0.5",
                         "--residue", "T3=0.5")
    assert code == 0
    doc = json.loads(out)
    (result,) = doc["results"]
    assert result["total"] == 6
    assert result["truncated"] is False


def test_map_back_missing_residue(capsys):
    code, out, err = run(capsys, "map-back", str(SMALL), "--residue", "T1=0.25")
    assert code == 1
    assert "missing residues" in err


def test_map_back_unachievable_residue(capsys):
    code, out, err = run(capsys, "map-back", str(SMALL),
                         "--residue", "T1=0.33", "--residue", "T2=0.5",
                         "--residue", "T3=0.5")
    assert code == 1
    assert "not achievable" in err


def test_map_back_after_solve(capsys):
    code, out, err = run(capsys, "map-back", str(SMALL), "--mode", "criteria")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 1
    assert doc["results"][0]["total"] == 4


def test_out_file_and_repeatability(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = main(["solve", str(RUNNING), "--mode", "goals",
                     "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_plot_csv(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    svg = tmp_path / "cloud.svg"
    code = main(["plot", str(SMALL), "--mode", "criteria",
                 "--out", str(out), "--svg", str(svg)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "oir_s1,oir_s2,pareto"
    assert len(lines) == 1 + 32  # header + full reduced space
    flagged = [ln for ln in lines[1:] if ln.endswith(",1")]
    assert len(flagged) == 1
    assert flagged[0] == "0.3500,0.5000,1"
    assert svg.read_text().startswith("<svg")


def test_plot_svg_needs_two_stakeholders(tmp_path, capsys):
    doc = json.loads(SMALL.read_text())
    doc["stakeholders"] = doc["stakeholders"][:1]
    doc["aversion"] = {"s1": doc["aversion"]["s1"]}
    solo = tmp_path / "solo.json"
    solo.write_text(json.dumps(doc))
    code, out, err = run(capsys, "plot", str(solo), "--mode", "criteria",
                         "--svg", str(tmp_path / "x.svg"))
    assert code == 1
    assert "exactly 2 stakeholders" in err


def test_bench_csv(capsys):
    code, out, err = run(capsys, "bench", "--threats", "2", "--controls", "2",
                         "--strategies", "upfront", "--chunks", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("threats,controls_total,raw_count")
    assert len(lines) == 2
    assert lines[1].startswith("2,4,64,16,4,goals,upfront,4,")

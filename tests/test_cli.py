import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msrmp import enumerate_rmps, mapback, model, parse_model, pareto
from msrmp.cli import _write_json, main
from msrmp.harness import BenchSpec, gen_instance
from msrmp.model import decimal_str, exact_str, render_model

from .conftest import ROOT, RUNNING, SMALL
from .test_model import _json


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
    # --chunk, --chunks and --strategy are not options
    ["solve", str(SMALL), "--chunk", "0"],
    ["bench", "--threats", "2,x"],
    ["bench", "--chunks", "2,x"],
    ["count", str(RUNNING), "--precision", "100000000"],
    ["solve", str(SMALL), "--with-rmps", "--limit", "-1"],
    ["map-back", str(SMALL), "--limit", "-1"],
    ["solve", str(SMALL), "--strategy", "upfront"],
    ["bench", "--controls", "0"],
    ["bench", "--controls", "-3"],
    ["bench", "--threats", "0"],
    ["bench", "--threats", "2,0"],
    ["bench", "--timeout-secs", "nan"],
    ["bench", "--timeout-secs", "inf"],
    ["bench", "--timeout-secs", "-1"],
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


def test_rmps_document_bytes_are_pinned(tmp_path):
    """The criterion-5 solve with every mitigation policy, byte for byte."""
    out = tmp_path / "rmps.json"
    code = main(["solve", str(RUNNING), "--min-bound", "DS=0.45",
                 "--min-bound", "DC=0.55", "--with-rmps", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "56f0ca865ed36e6a7a96e2038b146f8424d73fa0bbf6ee018eff875513942d03")


def test_rmps_document_bytes_on_stdout_are_pinned(capsys):
    """The same document written to stdout, without --out."""
    code, out, err = run(capsys, "solve", str(RUNNING), "--min-bound", "DS=0.45",
                         "--min-bound", "DC=0.55", "--with-rmps")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "56f0ca865ed36e6a7a96e2038b146f8424d73fa0bbf6ee018eff875513942d03")


def test_truncated_map_back_bytes_are_pinned(tmp_path):
    """The criterion-5 map-back cut at three assignments per threat, byte
    for byte."""
    out = tmp_path / "rmps.json"
    code = main(["map-back", str(RUNNING), "--min-bound", "DS=0.45",
                 "--min-bound", "DC=0.55", "--limit", "3", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "2d9e8860510f2c215e6eacae9b9005aa00715652e128ad67b33f14b3b7b9816b")


@pytest.mark.parametrize("argv", [
    ["solve", str(SMALL), "--mode", "criteria", "--with-rmps", "--limit", "0"],
    ["map-back", str(SMALL), "--mode", "criteria", "--limit", "0"],
])
def test_limit_zero_emits_no_assignments(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    (rmp,) = doc["entries"][0]["rmps"] if "entries" in doc else doc["results"]
    assert rmp["truncated"] is True
    assert rmp["total"] == 4
    assert [p["count"] for p in rmp["per_threat"]] == [2, 2, 1]
    assert all(p["assignments"] == [] for p in rmp["per_threat"])


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


@pytest.mark.parametrize("argv, diagnostic", [
    (["solve", str(SMALL), "--mode", "criteria", "--min-bound", "s2=0.9",
      "--min-bound", "s2=0.1"], "--min-bound gives stakeholder 's2' twice"),
    (["solve", str(SMALL), "--mode", "criteria", "--min-bound", "zz=0.1"],
     "unknown stakeholder 'zz' in bounds"),
    (["map-back", str(SMALL), "--residue", "T1"],
     "--residue 'T1': expected THREAT=VALUE"),
])
def test_bad_pair_diagnostics(capsys, argv, diagnostic):
    assert run(capsys, *argv) == (1, "", diagnostic + "\n")


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


@pytest.mark.parametrize("residues, diagnostic", [
    (["T1=0.25", "T2=0.5", "T3=0.5", "T9=0.5"], "unknown threat 'T9'"),
    (["T1=0.25", "T2=0.5", "T3=0.5", "T1=0.5"], "threat 'T1' twice"),
])
def test_map_back_rejects_bad_residue_threats(capsys, residues, diagnostic):
    argv = ["map-back", str(SMALL)]
    for pair in residues:
        argv += ["--residue", pair]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert diagnostic in err
    assert out == ""


def test_map_back_unachievable_residue(capsys):
    code, out, err = run(capsys, "map-back", str(SMALL),
                         "--residue", "T1=0.33", "--residue", "T2=0.5",
                         "--residue", "T3=0.5")
    assert code == 1
    assert "not achievable" in err


def _seed9_doc(tmp_path_factory, threats, controls):
    """The seed-9 harness instance of that shape, written as a document."""
    m = gen_instance(BenchSpec(seed=9), threat_count=threats,
                     controls_per_threat=controls)
    path = tmp_path_factory.mktemp("seed9") / f"t{threats}q{controls}.json"
    path.write_text(json.dumps(render_model(m)))
    return path


@pytest.fixture(scope="module")
def wide_doc(tmp_path_factory):
    """One threat of 16 controls: 5,196,627 assignments at residue 1/2."""
    return _seed9_doc(tmp_path_factory, 1, 16)


@pytest.mark.parametrize("argv, count", [
    (["map-back", "--residue", "T1=0.5"], 5_196_627),
    # every residue is a witness of the one goals-mode optimum; 21/32 is the
    # first above the ceiling, and nothing is listed before it is refused
    (["solve", "--with-rmps"], 1_665_456),
    (["map-back"], 1_665_456),
])
def test_oversized_listing_is_refused(capsys, tmp_path, wide_doc, argv, count):
    code, out, err = run(capsys, argv[0], str(wide_doc), *argv[1:])
    assert code == 1
    assert out == ""
    assert f"has {count} assignments" in err
    # refused before the output file is opened
    path = tmp_path / "out.json"
    code, out, err = run(capsys, argv[0], str(wide_doc), *argv[1:],
                         "--out", str(path))
    assert code == 1
    assert f"has {count} assignments" in err
    assert not path.exists()


def test_limit_bounds_an_oversized_listing(capsys, wide_doc):
    code, out, err = run(capsys, "map-back", str(wide_doc),
                         "--residue", "T1=0.5", "--limit", "3")
    assert code == 0
    (result,) = json.loads(out)["results"]
    (t1,) = result["per_threat"]
    assert len(t1["assignments"]) == 3
    assert t1["count"] == result["total"] == 5_196_627
    assert result["truncated"] is True


def test_oversized_total_is_refused(capsys, tmp_path_factory):
    """Two threats each just under the ceiling: 2 x 996,216 in all."""
    doc = str(_seed9_doc(tmp_path_factory, 2, 16))
    residues = ("--residue", "T1=0.6875", "--residue", "T2=0.6875")
    code, out, err = run(capsys, "map-back", doc, *residues)
    assert code == 1
    assert out == ""
    assert "has 1992432 assignments in all" in err
    code, out, err = run(capsys, "map-back", doc, *residues, "--limit", "3")
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert [len(t["assignments"]) for t in result["per_threat"]] == [3, 3]
    assert result["total"] == 996_216 ** 2


def test_map_back_lists_a_thousand_controls(capsys, tmp_path_factory):
    """The listing does not recurse, so no recursion limit binds it."""
    doc = str(_seed9_doc(tmp_path_factory, 1, 1000))
    code, out, err = run(capsys, "map-back", doc, "--residue", "T1=0.5",
                         "--limit", "1")
    assert code == 0
    (result,) = json.loads(out)["results"]
    (t1,) = result["per_threat"]
    assert len(t1["assignments"]) == 1
    # levels 0, 1/2 and 1 with mean 1/2: as many 1s as 0s, k of each
    exact = sum(math.comb(1000, k) * math.comb(1000 - k, k) for k in range(501))
    assert t1["count"] == result["total"] == exact


_CRITERION_5 = ["--min-bound", "DS=0.45", "--min-bound", "DC=0.55"]


@pytest.mark.parametrize("argv, builds", [
    # the running example's threats have 5, 10, 4, 3 and 3 controls
    (["solve", str(RUNNING), *_CRITERION_5, "--with-rmps"], 4),
    (["map-back", str(RUNNING), *_CRITERION_5, "--limit", "2"], 4),
    # the small example's have 2, 2 and 1
    (["map-back", str(SMALL), "--residue", "T1=0.25", "--residue", "T2=0.5",
      "--residue", "T3=0.5"], 2),
    # wide_doc's one threat of 16 controls: the solve and its counts
    (["solve", "WIDE"], 1),
])
def test_level_tables_are_built_once_per_call(monkeypatch, tmp_path, wide_doc,
                                              argv, builds):
    """Solve, counts and map-back run the level-sum dynamic program once
    per number of controls in the whole call."""
    built = []
    level_sums = model.level_sums

    def counted(levels, n):
        built.append(n)
        return level_sums(levels, n)

    monkeypatch.setattr(model, "level_sums", counted)
    argv = [str(wide_doc) if a == "WIDE" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
    assert sorted(built) == sorted(set(built)) and len(built) == builds


def test_each_pair_is_listed_once(monkeypatch, tmp_path):
    """The criterion-5 witnesses hold 24 distinct (threat, residue) pairs;
    each is listed once, as the encoded rows the document writes."""
    walks = []
    walk = mapback._walk

    def counted(*args):
        walks.append(None)
        return walk(*args)

    monkeypatch.setattr(mapback, "_walk", counted)
    assert main(["solve", str(RUNNING), *_CRITERION_5, "--with-rmps",
                 "--out", str(tmp_path / "out.json")]) == 0
    assert len(walks) == 24


def test_each_pair_is_counted_once(monkeypatch, tmp_path):
    """The up-front check and the listing share each pair's count: the
    criterion-5 solve counts its 24 distinct pairs once each."""
    calls = []
    count = mapback.count_assignments

    def counted(*args):
        calls.append(args[1:])
        return count(*args)

    monkeypatch.setattr(mapback, "count_assignments", counted)
    assert main(["solve", str(RUNNING), *_CRITERION_5, "--with-rmps",
                 "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == len(set(calls)) == 24


def _reference_rmp(m, vec, limit):
    """The map-back document of one vector from its own enumeration."""
    enum = enumerate_rmps(m, vec, limit=limit)

    def num(x):
        return {"decimal": decimal_str(x, 4), "exact": exact_str(x)}

    return {
        "target": {t: num(x) for t, x in zip(m.threat_ids(), enum.target)},
        "per_threat": [
            {
                "threat": t,
                "residue": num(x),
                "count": enum.per_threat_counts[t],
                "assignments": [
                    {c: exact_str(lv) for c, lv in a.as_dict(m).items()}
                    for a in enum.per_threat[t]
                ],
            }
            for t, x in zip(m.threat_ids(), enum.target)
        ],
        "total": enum.total,
        "truncated": enum.truncated,
    }


@pytest.mark.parametrize("command", ["solve", "map-back"])
@pytest.mark.parametrize("limit", [None, 3])
def test_rmps_match_independent_enumerations(tmp_path, command, limit):
    """The criterion-5 witnesses repeat (threat, residue) pairs: listing each
    once per call gives the document that enumerating every vector on its
    own gives."""
    out = tmp_path / "out.json"
    argv = [command, str(RUNNING), *_CRITERION_5, "--out", str(out)]
    argv += ["--with-rmps"] if command == "solve" else []
    argv += [] if limit is None else ["--limit", str(limit)]
    assert main(argv) == 0
    m = parse_model(RUNNING.read_bytes())
    cfg = pareto.SolveConfig(bounds={"DS": F(45, 100), "DC": F(55, 100)})
    entries = pareto.solve(m, cfg).entries
    if command == "solve":
        doc = json.loads(out.read_text())
        for entry, doc_entry in zip(entries, doc["entries"]):
            rmps = [_reference_rmp(m, vec, limit) for vec in entry.residues]
            doc_entry["rmp_count"] = sum(r["total"] for r in rmps)
            doc_entry["rmps"] = rmps
    else:
        doc = {"command": "map-back", "results": [
            _reference_rmp(m, vec, limit)
            for entry in entries for vec in entry.residues]}
    # compared apart from the assert: pytest's diff of two 15 MB texts
    # would take minutes
    same = out.read_text() == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    assert same, "the document differs from the independent enumerations"


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
    assert out == ""


def test_plot_refuses_a_large_space(tmp_path_factory, capsys):
    """The criterion-9 instance is refused with its count before the solve."""
    doc = _seed9_doc(tmp_path_factory, 7, 4)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "plot", str(doc))
    assert time.perf_counter() - t0 < 10
    assert code == 1
    assert "2097152 points" in err
    assert out == ""


def test_bench_csv(capsys):
    code, out, err = run(capsys, "bench", "--threats", "2", "--controls", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("threats,controls_total,raw_count")
    assert len(lines) == 2
    assert lines[1].startswith("2,4,64,16,4,goals,")


def test_bench_writes_one_row_per_threat_count(capsys):
    code, out, err = run(capsys, "bench", "--threats", "2,3", "--controls", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(r[0], r[5]) for r in rows] == [("2", "goals"), ("3", "goals")]


def test_cli_start_does_not_import_harness():
    """Only bench needs the harness, so no other command loads it."""
    code = "import sys, msrmp.cli; print('msrmp.harness' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_import_footprint():
    """Every command starts with importing the package and the CLI, so
    neither loads dataclasses or typing, nor what dataclasses imports.  -S
    keeps site-packages start-up files from loading any of them first."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import msrmp, msrmp.cli; "
            "print([m for m in ('ast', 'dataclasses', 'dis', 'inspect', 'typing') "
            "if m in sys.modules])")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


class _AsRows(list):
    """A list of string-valued dicts that the writer is handed as the
    mapback.Listing of its groups: each group a prefix dict with its tail
    dicts, all of one length, and each row the prefix's items followed by
    a tail's."""

    def __init__(self, groups=()):
        self.groups = [(prefix, list(tails)) for prefix, tails in groups]
        super().__init__({**prefix, **tail}
                         for prefix, tails in self.groups for tail in tails)


def _rowed(value):
    """value with each _AsRows replaced by the Listing of its groups, each
    item encoded."""
    enc = json.encoder.encode_basestring

    def items(row):
        return tuple(enc(k) + ": " + enc(v) for k, v in row.items())

    if isinstance(value, _AsRows):
        return mapback.Listing((items(prefix), [items(tail) for tail in tails])
                               for prefix, tails in value.groups)
    if isinstance(value, dict):
        return {k: _rowed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_rowed(v) for v in value)
    return value


_text = st.text(max_size=6)
# ids with quotes, backslashes, control and non-ASCII characters
_id = st.text(st.sampled_from('c1"\\\x00\x1f\x7f\u2028\u00e9\U0001f600')
              | st.characters(), max_size=6)


@st.composite
def _group(draw):
    """A prefix of up to two items and one or more tails sharing it; no
    items at all makes rows written {}."""
    keys = draw(st.lists(_id, unique=True, max_size=4))
    cut = draw(st.integers(min_value=0, max_value=min(2, len(keys))))
    prefix = {k: draw(_text) for k in keys[:cut]}
    tail = st.fixed_dictionaries({k: _text for k in keys[cut:]})
    return prefix, draw(st.lists(tail, min_size=1, max_size=3))


# empty lists of rows are drawn too
_rows = st.lists(_group(), max_size=3).map(_AsRows)
_json_doc = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
    | st.floats() | _text | _rows,
    # a plain tuple is written as a list, as json.dumps writes it
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_text, inner, max_size=3)
    | st.dictionaries(_text, _text, max_size=3),
    max_leaves=25,
)


@given(_json_doc)
@settings(max_examples=300, deadline=None)
def test_write_json_matches_json_dumps(value):
    """Any document, with grouped lists of pre-encoded rows at any depth,
    is written exactly as json.dumps writes it with each row as its
    dict."""
    buf = io.StringIO()
    _write_json(_rowed(value), buf)
    assert buf.getvalue() == json.dumps(value, indent=2, ensure_ascii=False) + "\n"


class _Chunks(list):
    def write(self, text):
        self.append(text)


def test_write_json_writes_long_row_lists_in_batches():
    """A group longer than two batches, more one-row groups than a batch
    and a group of empty rows are written in bounded chunks, and as
    json.dumps writes them."""
    rows = _AsRows([
        ({"c0": "1", "c1": "0.5"},
         [{"c2": f"{i % 7}/{i + 1}", "c3": "0"} for i in range(2 * 4096 + 3)]),
        *(({"c0": f"{i}"}, [{}]) for i in range(4096 + 1)),
        ({}, [{}] * 3),
    ])
    value = {"rows": rows, "after": [_AsRows(rows.groups[:2]), _AsRows()]}
    chunks = _Chunks()
    _write_json(_rowed(value), chunks)
    text = json.dumps(value, indent=2, ensure_ascii=False) + "\n"
    # compared apart from the assert: pytest's diff of two long texts would
    # take minutes
    same = "".join(chunks) == text
    assert same, "the chunks differ from json.dumps"
    assert max(map(len, chunks)) < len(text) / 4


def _paths(value, path=()):
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


_SMALL_DOC = json.loads(SMALL.read_text())


def _replaced(path, value):
    doc = json.loads(json.dumps(_SMALL_DOC))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


_one_field_replaced = st.builds(
    _replaced, st.sampled_from(list(_paths(_SMALL_DOC))[1:]), _json)


@given(st.sampled_from(["solve", "count", "assess", "map-back"]),
       st.sampled_from(["goals", "criteria"]),
       _json | _one_field_replaced)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_document_ends_in_an_exit_code(tmp_path, command, mode, document):
    """Any document ends in exit 0, 1 or 2, never in a traceback."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    argv = [command, str(path), "--out", str(tmp_path / "out.json")]
    if command != "count":
        argv += ["--mode", mode]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2)

import decimal
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msrmp import ModelError, parse_model, render_model, validate_model
from msrmp.cli import main
from msrmp.model import decimal_str, exact_str, rat

from .conftest import RUNNING, SMALL


def test_rat_parses_ints_and_strings():
    assert rat(3) == Fraction(3)
    assert rat("0.4") == Fraction(2, 5)
    assert rat("0.725") == Fraction(29, 40)
    assert rat("5/6") == Fraction(5, 6)
    assert rat("-0.25") == Fraction(-1, 4)


@pytest.mark.parametrize("bad", [0.4, True, "abc", "1/0", None, [1]])
def test_rat_rejects_non_exact_values(bad):
    with pytest.raises(ModelError):
        rat(bad)


def test_decimal_str_rounds_half_to_even():
    assert decimal_str(Fraction(1, 8), 2) == "0.12"
    assert decimal_str(Fraction(3, 8), 2) == "0.38"
    assert decimal_str(Fraction(5, 6), 2) == "0.83"
    assert decimal_str(Fraction(-1, 8), 2) == "-0.12"
    assert decimal_str(Fraction(3, 2), 0) == "2"
    assert decimal_str(Fraction(1, 2), 0) == "0"
    assert decimal_str(Fraction(7, 20), 4) == "0.3500"


@given(
    st.fractions(
        min_value=-1000, max_value=1000, max_denominator=10**6
    ),
    st.integers(min_value=0, max_value=8),
)
def test_decimal_str_matches_decimal_module(q, places):
    ctx = decimal.Context(prec=60)
    d = ctx.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))
    quantum = decimal.Decimal(1).scaleb(-places)
    want = f"{d.quantize(quantum, rounding=decimal.ROUND_HALF_EVEN):f}"
    if want.startswith("-") and Fraction(want) == 0:
        want = want[1:]
    got = decimal_str(q, places)
    if got.startswith("-") and Fraction(got) == 0:
        got = got[1:]
    assert got == want


def test_exact_str_prefers_finite_decimals():
    assert exact_str(Fraction(1, 2)) == "0.5"
    assert exact_str(Fraction(7, 20)) == "0.35"
    assert exact_str(Fraction(3)) == "3"
    assert exact_str(Fraction(5, 6)) == "5/6"
    assert exact_str(Fraction(1, 3)) == "1/3"


@given(st.fractions(max_denominator=10**9))
def test_exact_str_round_trips_through_rat(q):
    assert rat(exact_str(q)) == q


@given(st.integers(-10**12, 10**12), st.integers(0, 40), st.integers(0, 40),
       st.integers(1, 10**6))
def test_exact_str_is_a_decimal_iff_the_denominator_is_2a5b(num, a, b, other):
    q = Fraction(num, 2**a * 5**b * other)
    text = exact_str(q)
    assert Fraction(text) == q
    # other < 2**20 and 5**9, so 10**60 holds every power of 2 and 5 of q
    assert ("/" not in text) == (10**60 % q.denominator == 0)


def test_parse_fixture_documents():
    running = parse_model(RUNNING.read_bytes())
    assert running.stakeholder_ids() == ["DS", "DC"]
    assert running.threat_ids() == ["T1", "T2", "T3", "T4", "T5"]
    assert [len(t.controls) for t in running.threats] == [5, 10, 4, 3, 3]
    assert running.assignment is not None

    small = parse_model(SMALL.read_bytes())
    assert [len(t.controls) for t in small.threats] == [2, 2, 1]
    assert small.assignment is None


def test_render_parse_round_trip(running_model, small_model):
    for m in (running_model, small_model):
        again = parse_model(render_model(m))
        assert again == m
        # the rendered document is plain JSON
        json.dumps(render_model(m))


def test_null_name_reads_as_the_id():
    """A "name": null is read as a missing name, not as the string "None",
    and is rendered back as the id."""
    doc = json.loads(SMALL.read_text())
    doc["threats"][0]["name"] = None
    doc["stakeholders"][0]["name"] = None
    m = parse_model(json.dumps(doc))
    threat, stakeholder = m.threats[0], m.stakeholders[0]
    assert (threat.name, stakeholder.name) == (threat.id, stakeholder.id)
    rendered = render_model(m)
    assert rendered["threats"][0]["name"] == threat.id
    assert rendered["stakeholders"][0]["name"] == stakeholder.id


def test_parse_accepts_str_bytes_and_file():
    text = RUNNING.read_text()
    with open(RUNNING, "rb") as fh:
        from_file = parse_model(fh)
    assert parse_model(text) == parse_model(text.encode()) == from_file


def test_parse_reports_syntax_position():
    with pytest.raises(ModelError, match="line"):
        parse_model("{\n  broken\n}")


def _doc():
    return json.loads(SMALL.read_text())


def test_weights_must_sum_to_one():
    doc = _doc()
    doc["stakeholders"][0]["criteria"][0]["weight"] = "0.7"
    with pytest.raises(ModelError, match="weights sum to 1.1"):
        parse_model(doc)


def test_aversion_must_be_total_and_in_range():
    doc = _doc()
    del doc["aversion"]["s1"]["s1a"]["T3"]
    with pytest.raises(ModelError, match="aversion.s1.s1a.T3: missing"):
        parse_model(doc)
    doc = _doc()
    doc["aversion"]["s2"]["s2b"]["T1"] = 9
    with pytest.raises(ModelError, match=r"outside \[0, 4\]"):
        parse_model(doc)
    doc = _doc()
    doc["aversion"]["s2"]["s2b"]["T1"] = "2"
    with pytest.raises(ModelError, match="must be an integer"):
        parse_model(doc)


def test_duplicate_ids_are_diagnosed():
    doc = _doc()
    doc["threats"][1]["id"] = "T1"
    with pytest.raises(ModelError) as exc:
        parse_model(doc)
    assert any("duplicate threat id" in d for d in exc.value.diagnostics)

    doc = _doc()
    doc["stakeholders"][1]["id"] = "s1"
    with pytest.raises(ModelError, match="duplicate stakeholder id"):
        parse_model(doc)


def test_unknown_goal_reference_is_diagnosed():
    doc = _doc()
    doc["threats"][0]["goals"] = ["G9"]
    with pytest.raises(ModelError, match="unknown goal id 'G9'"):
        parse_model(doc)


def test_multiple_diagnostics_are_collected():
    doc = _doc()
    doc["stakeholders"][0]["criteria"][0]["weight"] = "0.9"
    del doc["aversion"]["s2"]["s2a"]["T2"]
    doc["threats"][2]["goals"] = ["nope"]
    with pytest.raises(ModelError) as exc:
        parse_model(doc)
    assert len(exc.value.diagnostics) >= 3


def test_assignment_validation(running_model):
    doc = json.loads(RUNNING.read_text())
    doc["assignment"]["T4"]["c21"] = "0.3"
    with pytest.raises(ModelError, match="not in the mitigation scale"):
        parse_model(doc)
    doc = json.loads(RUNNING.read_text())
    del doc["assignment"]["T5"]["c25"]
    with pytest.raises(ModelError, match="assignment.T5.c25: missing level"):
        parse_model(doc)


def test_goals_mode_validation_requires_goals(small_model):
    doc = _doc()
    doc["threats"][0]["goals"] = []
    m = parse_model(doc)  # valid as such ...
    diags = validate_model(m, goals_mode=True)  # ... but not for goal scoring
    assert any("must be non-empty" in d for d in diags)
    assert validate_model(small_model, goals_mode=True) == []


def test_with_assignment(small_model):
    assignment = {
        "T1": {"c1": Fraction(1), "c2": Fraction(0)},
        "T2": {"c3": Fraction(1, 2), "c4": Fraction(1, 2)},
        "T3": {"c5": Fraction(0)},
    }
    m2 = small_model._replace(assignment=assignment)
    assert m2.assignment == assignment
    assert validate_model(m2) == []
    assert small_model.assignment is None


def test_mitigation_scale_invariants():
    doc = _doc()
    doc["mitigation_levels"] = ["0.5", "1"]
    with pytest.raises(ModelError, match="must contain 0"):
        parse_model(doc)
    doc = _doc()
    doc["mitigation_levels"] = ["0", "1", "0.5"]
    with pytest.raises(ModelError, match="strictly increasing"):
        parse_model(doc)


@pytest.mark.parametrize("document, diagnostic", [
    ('{"stakeholders": [1]}', "stakeholders[0]: expected an object"),
    ('{"stakeholders": "s1"}', "stakeholders: expected a list"),
    ('{"stakeholders": [{"id": "s1", "criteria": {}}]}',
     "stakeholders[0].criteria: expected a list"),
    ('{"goals": [1]}', "goals[0]: expected an object"),
    ('{"threats": ["x"]}', "threats[0]: expected an object"),
    ('{"threats": [{"id": "T1", "controls": 5}]}', "threats[0].controls: expected a list"),
    ('{"threats": [{"id": "T1", "goals": 5}]}', "threats[0].goals: expected a list"),
    ('{"aversion": []}', "aversion: expected an object"),
    ('{"aversion": {"s1": {"p1": 3}}}', "aversion.s1.p1: expected an object"),
    ('{"assignment": 3}', "assignment: expected an object"),
    ('{"assignment": {"T1": [1]}}', "assignment.T1: expected an object"),
    ('{"mitigation_levels": 5}', "mitigation_levels: expected a list"),
    (b'{"threats": "\xff"}', "document: not valid UTF-8"),
    ("[" * 100_000 + "]" * 100_000, "document: nested too deeply"),
    ('{"stakeholders": [{"id": "s1", "criteria": [{"id": "p1", '
     '"weight": "1e-20000"}]}]}', "stakeholders[0].criteria[0].weight: exponent"),
    ('{"mitigation_levels": ["0", "1e-1000000"]}', "mitigation_levels[1]: exponent"),
    ('{"mitigation_levels": ["0.' + "0" * 5000 + '1"]}',
     "mitigation_levels[0]: number longer than"),
    ('{"impact_scale_max": true}', "impact_scale_max: must be an integer"),
    ('{"threats": [{"id": "T1", "controls": [{"name": "c"}]}]}',
     "threats[0].controls[0].id: missing"),
    ('{"goals": [{"name": "G"}]}', "goals[0].id: missing"),
    ('{"threats": [{"id": null}]}', "threats[0].id: missing"),
])
def test_malformed_structure_is_a_model_error(document, diagnostic):
    with pytest.raises(ModelError) as exc:
        parse_model(document)
    assert any(d.startswith(diagnostic) for d in exc.value.diagnostics)


_FIELDS = ["id", "name", "weight", "criteria", "goals", "controls",
           "stakeholders", "threats", "aversion", "assignment",
           "mitigation_levels", "impact_scale_max"]
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=2), inner,
                      max_size=4),
    max_leaves=20,
)


@given(_json)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_json_value_parses_or_is_a_model_error(tmp_path, document):
    try:
        parse_model(document)
    except ModelError:
        pass
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    assert main(["validate", str(path)]) in (0, 1)

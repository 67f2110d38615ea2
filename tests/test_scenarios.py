import pytest

from liefact import scenarios
from liefact.errors import FormatError


def _catalog_formulas() -> list:
    out = []
    for rec in scenarios._catalog_data()["scenarios"]:
        for record in rec["expected"].values():
            out.extend(scenarios._formulas(record))
    return out


def test_catalog_formulas_match_python_evaluation():
    formulas = _catalog_formulas()
    assert len(formulas) == 9
    for text in formulas:
        compiled = scenarios._formula(text)
        for p in (3, 5, 7, 11):
            # the catalog's formulas are plain integer arithmetic, so Python's
            # own evaluation is the oracle
            assert compiled(p) == eval(text, {"__builtins__": {}}, {"p": p})


def test_formula_grammar():
    assert scenarios._formula("-(p - 1) * 2 + 7 // 2")(5) == -5
    assert scenarios._formula("(1 + p) // 2")(7) == 4
    for text in ("__import__('os')", "p ** 2", "q + 1", "p / 2", "1.5 * p", "p if p else 1",
                 "True + p", "p +", "", 7):
        with pytest.raises(FormatError):
            scenarios._formula(text)


def test_catalog_rejects_a_bad_formula(monkeypatch):
    data = scenarios._catalog_data()
    data["scenarios"][0]["expected"] = {"count": {"formula": "p ** 2", "tag": "paper"}}
    monkeypatch.setattr(scenarios, "_catalog_data", lambda: data)
    with pytest.raises(FormatError, match=r"p \*\* 2"):
        scenarios.load_catalog()


def test_expectations_evaluate_through_the_grammar():
    assert scenarios._expected_value({"formula": "p * p + p - 1"}, 5) == 29
    assert scenarios._expected_value({"formula_list": ["p - 1", "p * p"]}, 7) == [6, 49]
    assert scenarios._expected_value({"value": 3}, None) == 3


def _scenario_with(**changes):
    def edit(data):
        data["scenarios"][0].update(changes)
    return edit


def _expectation(record):
    return _scenario_with(expected={"count": record})


# case -> (edit of the catalog data, text the error must name)
BAD_SCHEMA = {
    "unknown-handler-kind": (_scenario_with(kind="no_such_kind"), "no_such_kind"),
    "unknown-field-kind": (_scenario_with(field={"kind": "GF"}), "'GF'"),
    "expectation-without-a-value": (_expectation({"tag": "paper"}), "exactly one of"),
    "expectation-with-two-values": (
        _expectation({"value": 3, "formula": "p", "tag": "paper"}), "exactly one of"
    ),
    "unknown-tag": (_expectation({"value": 3, "tag": "guessed"}), "'guessed'"),
    "missing-tag": (_expectation({"value": 3}), "None"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCHEMA))
def test_catalog_rejects_a_schema_violation(case, monkeypatch):
    data = scenarios._catalog_data()
    edit, named = BAD_SCHEMA[case]
    edit(data)
    monkeypatch.setattr(scenarios, "_catalog_data", lambda: data)
    with pytest.raises(FormatError) as info:
        scenarios.load_catalog()
    message = str(info.value)
    assert f"scenario {data['scenarios'][0]['id']!r}" in message and named in message

import itertools

import pytest

from liefact import iso, matched, scenarios
from liefact.errors import FormatError
from liefact.exactmath import Field, basis_vector


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


# -- criterion 7: Light's associativity test -------------------------------------------


def _sl2_product_table() -> list:
    """table[i][j]: the index of t_i * t_j by aut_multiply, over the 48
    triples of the inner-twisted sl2 extension over GF(3)."""
    f = Field.gf(3)
    sl2 = matched.make_sl2(f)
    triples = iso.enumerate_aut_triples(sl2, sl2.ad(basis_vector(f, 3, 0)))
    index = {(t.alpha, t.h0, t.v.matrix): i for i, t in enumerate(triples)}
    return [
        [index[prod.alpha, prod.h0, prod.v.matrix] for prod in (iso.aut_multiply(t1, t2) for t2 in triples)]
        for t1 in triples
    ]


def _associative_on_all_triples(table: list) -> bool:
    """The oracle: (a*b)*c = a*(b*c) for every a, b and c."""
    n = range(len(table))
    return all(table[table[a][b]][c] == table[a][table[b][c]] for a, b, c in itertools.product(n, repeat=3))


def test_lights_test_and_the_all_triples_oracle_accept_the_group_law():
    table = _sl2_product_table()
    assert len(table) == 48 and len(scenarios._generators(table)) == 3
    assert scenarios._associative(table)
    assert _associative_on_all_triples(table)


def test_lights_test_and_the_all_triples_oracle_reject_one_altered_entry():
    table = _sl2_product_table()
    for i, j in itertools.product(range(0, 48, 7), range(0, 48, 5)):
        altered = [row[:] for row in table]
        altered[i][j] = (table[i][j] + 1 + i) % 48
        assert not scenarios._associative(altered), (i, j)
        assert not _associative_on_all_triples(altered), (i, j)


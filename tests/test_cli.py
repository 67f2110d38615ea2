import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liefact.cli import main
from liefact.exactmath import Field, Matrix
from liefact import liecore, matched

Q = Field.rationals()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_l3(tmp_path):
    path = tmp_path / "l3.json"
    liecore.dump_algebra(matched.make_l(1, Q), path)
    return str(path)


def test_validate_ok(tmp_path, capsys):
    path = write_l3(tmp_path)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert "Jacobi: OK" in out and "dim 3" in out and "[3, 2, 0]" in out


def test_validate_jacobi_failure(tmp_path, capsys):
    bad = {
        "field": {"kind": "Q"},
        "dim": 3,
        "basis": ["e1", "e2", "e3"],
        "brackets": [
            {"lhs": "e1", "rhs": "e2", "out": [["e3", "1"]]},
            {"lhs": "e1", "rhs": "e3", "out": [["e1", "1"]]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "FAIL" in out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/file.json")
    assert code == 2


def test_families_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "L6.json"
    code, _, _ = run(capsys, "families", "--make", "L", "--n", "2", "--field", "Q", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(out_path))
    assert code == 0 and "Jacobi: OK" in out
    assert liecore.load_algebra(out_path) == matched.make_L(2, Q)


def test_families_requires_params(capsys):
    code, _, err = run(capsys, "families", "--make", "l1", "--field", "Q")
    assert code == 2 and "lambda0" in err
    code, _, err = run(capsys, "families", "--make", "nosuch")
    assert code == 2


def test_info_json(tmp_path, capsys):
    path = write_l3(tmp_path)
    code, out, _ = run(capsys, "info", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["derived_dims"] == [3, 2, 0]
    assert data["perfect"] is False
    assert data["solvable_length"] == 2


def test_info_of_the_zero_and_an_abelian_algebra(tmp_path, capsys):
    for dim, length in ((0, 0), (2, 1)):
        path = tmp_path / f"abelian{dim}.json"
        path.write_text(json.dumps({"field": {"kind": "Q"}, "dim": dim,
                                    "basis": [f"e{k}" for k in range(dim)], "brackets": []}))
        code, out, _ = run(capsys, "info", str(path), "--json")
        assert code == 0
        assert json.loads(out)["solvable_length"] == length


def test_derivations_cli(tmp_path, capsys):
    h5 = tmp_path / "h5.json"
    run(capsys, "families", "--make", "h5", "--field", "Q", "--out", str(h5))
    code, out, _ = run(capsys, "derivations", str(h5), "--json")
    assert code == 0
    assert json.loads(out)["dim"] == 6


def test_twisted_derivations_cli(tmp_path, capsys):
    path = write_l3(tmp_path)
    code, out, _ = run(capsys, "twisted-derivations", path, "--lambda", "G=1", "--json")
    assert code == 0
    assert json.loads(out)["dim"] == 3
    code, _, err = run(capsys, "twisted-derivations", path, "--lambda", "E=1")
    assert code == 1  # inadmissible covector is a mathematical failure


def test_pair_commands(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    code, _, _ = run(
        capsys, "families", "--make", "pair-L", "--n", "1", "--field", "Fp", "--p", "5",
        "--out", str(pair),
    )
    assert code == 0
    code, out, _ = run(capsys, "matched-check", "--pair", str(pair))
    assert code == 0 and "OK" in out

    code, out, _ = run(capsys, "deform-maps", "--pair", str(pair), "--json")
    assert code == 0 and json.loads(out)["count"] == 29

    code, out, _ = run(capsys, "complements", "--pair", str(pair), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["index"] == "3" and sorted(data["class_sizes"]) == [1, 4, 24]

    out_alg = tmp_path / "L4.json"
    code, _, _ = run(capsys, "bicrossed", "--pair", str(pair), "--out", str(out_alg))
    assert code == 0
    loaded = liecore.load_algebra(out_alg)
    assert loaded.permuted([1, 2, 3, 0]).same_brackets(matched.make_L(1, Field.gf(5)))


def test_bicrossed_rejects_bad_pair(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    run(capsys, "families", "--make", "pair-L", "--n", "1", "--field", "Q", "--out", str(pair))
    data = json.loads(pair.read_text())
    data["left_action"] = [{"x": "G", "g": "H", "out": [["H", "-1"]]}]
    bad = tmp_path / "bad_pair.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "bicrossed", "--pair", str(bad))
    assert code == 1
    assert "compat" in out or "module" in out


def _pair_with_a_factor_failing_jacobi(tmp_path) -> str:
    """g = k and h = span(e1, e2, e3), [e1, e2] = e3, [e1, e3] = e1, zero
    actions: every mixed axiom holds, Jacobi fails on h's triple (1, 2, 3)."""
    h = liecore.LieAlgebra.from_named_brackets(
        Q, ("e1", "e2", "e3"), {("e1", "e2"): [("e3", 1)], ("e1", "e3"): [("e1", 1)]}
    )
    pair = tmp_path / "pair.json"
    matched.dump_pair(matched.MatchedPair(liecore.LieAlgebra.abelian(Q, 1, ("F",)), h), pair)
    return str(pair)


def test_bicrossed_reports_a_factor_that_fails_jacobi(tmp_path, capsys):
    pair = _pair_with_a_factor_failing_jacobi(tmp_path)
    code, out, _ = run(capsys, "bicrossed", "--pair", pair, "--json")
    assert code == 1
    data = json.loads(out)
    assert data["violations"] == [["jacobi", [1, 2, 3]]]
    assert "Jacobi at (1, 2, 3)" in data["error"]


def test_matched_check_reports_a_factor_that_fails_jacobi(tmp_path, capsys):
    pair = _pair_with_a_factor_failing_jacobi(tmp_path)
    code, out, _ = run(capsys, "matched-check", "--pair", pair)
    assert (code, out) == (1, "violated: jacobi at (1, 2, 3)\n")
    code, out, _ = run(capsys, "matched-check", "--pair", pair, "--json")
    assert code == 1
    assert json.loads(out) == {
        "valid": False, "violations": [{"axiom": "jacobi", "indices": [1, 2, 3]}]
    }


def test_iso_and_aut_cli(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "families", "--make", "Lalpha", "--alpha", "2", "--field", "Fp", "--p", "7", "--out", str(a))
    run(capsys, "families", "--make", "Lalpha", "--alpha", "4", "--field", "Fp", "--p", "7", "--out", str(b))
    code, out, _ = run(capsys, "iso", "--a", str(a), "--b", str(b), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "yes" and data["witness"] is not None

    ab2 = tmp_path / "ab2.json"
    liecore.dump_algebra(liecore.LieAlgebra.abelian(Field.gf(3), 2), ab2)
    code, out, _ = run(capsys, "aut", "--algebra", str(ab2), "--json")
    assert code == 0 and json.loads(out)["count"] == 48


def test_aut_triples_cli(tmp_path, capsys):
    sl2 = tmp_path / "sl2.json"
    run(capsys, "families", "--make", "sl2", "--field", "Fp", "--p", "3", "--out", str(sl2))
    alg = matched.make_sl2(Field.gf(3))
    delta_file = tmp_path / "delta.json"
    delta_file.write_text(json.dumps(alg.ad((Field.gf(3).one, Field.gf(3).zero, Field.gf(3).zero)).to_json()))
    code, out, _ = run(capsys, "aut", "--algebra", str(sl2), "--delta", str(delta_file), "--json")
    assert code == 0
    assert json.loads(out)["count"] == 48


def test_aut_triples_over_budget_is_an_input_error(tmp_path, capsys):
    f5 = Field.gf(5)
    ab2 = tmp_path / "ab2.json"
    liecore.dump_algebra(liecore.LieAlgebra.abelian(f5, 2), ab2)
    delta_file = tmp_path / "delta.json"
    delta_file.write_text(json.dumps(Matrix.zeros(f5, 2, 2).to_json()))
    code, out, err = run(capsys, "aut", "--algebra", str(ab2), "--delta", str(delta_file),
                         "--budget", "1000")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("budget exceeded: ")
    assert "h0 fiber" in lines[0]


def test_aut_over_budget_names_the_algebra(tmp_path, capsys):
    l4 = tmp_path / "L4.json"
    liecore.dump_algebra(matched.make_L(1, Field.gf(3)), l4)
    code, out, err = run(capsys, "aut", "--algebra", str(l4), "--budget", "10")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("budget exceeded: automorphism search hit budget 10")
    assert "basis E, F, G, H" in lines[0] and "fingerprint (4," in lines[0]


def test_deform_maps_over_budget_names_the_pair(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    matched.dump_pair(matched.canonical_pair_L(1, Field.gf(5)), pair)
    code, out, err = run(capsys, "deform-maps", "--pair", str(pair), "--budget", "10")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("budget exceeded: ")
    assert lines[0] == (
        "budget exceeded: deformation search of dim g = 1, dim h = 3 over GF(5): "
        "budget 10 exceeded after 11 nodes, deepest level 3 of 3"
    )


def test_aut_reports_where_the_delta_file_is_broken(tmp_path, capsys):
    sl2 = tmp_path / "sl2.json"
    liecore.dump_algebra(matched.make_sl2(Field.gf(3)), sl2)
    delta_file = tmp_path / "broken.json"
    delta_file.write_text('{"entries":\n  [[1, 0], }')
    code, out, err = run(capsys, "aut", "--algebra", str(sl2), "--delta", str(delta_file))
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")
    assert "line 2 column 12" in lines[0]


def test_paper_verify_cli(capsys):
    code, out, _ = run(capsys, "paper-verify", "h5-der-dim")
    assert code == 0 and "PASS h5-der-dim" in out
    code, out, _ = run(capsys, "paper-verify", "m4-index", "--p", "7")
    assert code == 0 and "expected 4, got 4" in out
    code, _, err = run(capsys, "paper-verify", "no-such-scenario")
    assert code == 2
    code, _, err = run(capsys, "paper-verify", "h5-der-dim", "--p", "5")
    assert code == 2  # rationals-only scenario rejects --p


def test_json_output_stable(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    run(capsys, "families", "--make", "pair-m", "--field", "Fp", "--p", "5", "--out", str(pair))
    code, out1, _ = run(capsys, "complements", "--pair", str(pair), "--json")
    code2, out2, _ = run(capsys, "complements", "--pair", str(pair), "--json")
    assert code == code2 == 0
    assert out1 == out2

    code, v1, _ = run(capsys, "paper-verify", "defmaps-m", "--json")
    code2, v2, _ = run(capsys, "paper-verify", "defmaps-m", "--json")
    assert code == code2 == 0
    assert v1 == v2


def test_complements_cli_infinite_index(tmp_path, capsys):
    pair = tmp_path / "pairQ.json"
    run(capsys, "families", "--make", "pair-m", "--field", "Q", "--out", str(pair))
    code, out, _ = run(capsys, "complements", "--pair", str(pair), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["index"] == "infinite" and data["deformation_count"] is None


def test_composite_modulus_is_an_input_error(capsys):
    for argv in (
        ("families", "--make", "l", "--field", "Fp", "--p", "4"),
        ("paper-verify", "n1-index", "--p", "4"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["input error: modulus must be a prime below 2**32, got 4"]


def test_a_modulus_over_the_rationals_is_an_input_error(capsys):
    # as paper-verify does for a scenario over Q, families rejects --p
    # rather than dropping it
    for field in (("--field", "Q"), ()):
        code, out, err = run(capsys, "families", "--make", "l", "--n", "1", *field, "--p", "5")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["input error: --field Q runs over the rationals; --p does not apply"]


def test_family_size_below_one_is_an_input_error(capsys):
    families = (
        ("l1", "--lambda0", "1", "--delta", "0"),
        ("l2c2", "--field", "Fp", "--p", "2", "--lambda0", "1", "--delta", "0"),
        ("lbarpp_c", "--c", "2"),
    )
    for name, *params in families:
        for n in ("0", "-1"):
            code, out, err = run(capsys, "families", "--make", name, "--n", n, *params)
            assert code == 2
            assert out == ""
            assert err.splitlines() == ["input error: n must be >= 1"]


def _l3_with(**changes):
    record = matched.make_l(1, Q).to_json_dict()
    record.update(changes)
    return record


def _l3_term(term):
    return _l3_with(brackets=[{"lhs": "E", "rhs": "G", "out": [term]}])


def _write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def _validate(record):
    return lambda tmp_path: ["validate", _write(tmp_path, "alg.json", record)]


def _pair_with_right_term(tmp_path):
    record = matched.canonical_pair_L(1, Q).to_json_dict()
    record["right_action"][0]["out"] = [["E"]]
    return ["matched-check", "--pair", _write(tmp_path, "pair.json", record)]


def _aut_with_delta(entries):
    def argv(tmp_path):
        sl2 = _write(tmp_path, "sl2.json", matched.make_sl2(Field.gf(3)).to_json_dict())
        return ["aut", "--algebra", sl2, "--delta", _write(tmp_path, "delta.json", {"entries": entries})]

    return argv


def _iso_fields_differ(tmp_path):
    a, b = (_write(tmp_path, f"l-gf{p}.json", matched.make_l(1, Field.gf(p)).to_json_dict()) for p in (5, 7))
    return ["iso", "--a", a, "--b", b]


def _pair_fields_differ(tmp_path):
    record = matched.canonical_pair_L(1, Q).to_json_dict()
    record["h"] = matched.canonical_pair_L(1, Field.gf(5)).to_json_dict()["h"]
    return ["matched-check", "--pair", _write(tmp_path, "pair.json", record)]


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"basis": ["\xe9"]}'.encode("latin-1"))
    return ["validate", str(path)]


# case -> argv builder; each input once ended in a traceback or in exit 1
MALFORMED = {
    "validate-a-directory": lambda tmp_path: ["validate", str(tmp_path)],
    "out-is-a-directory": lambda tmp_path: ["families", "--make", "l", "--out", str(tmp_path)],
    "not-utf8": _not_utf8,
    "brackets-not-a-list": _validate(_l3_with(brackets=5)),
    "term-without-coefficient": _validate(_l3_term(["E"])),
    "coefficient-is-a-list": _validate(_l3_term(["E", [1]])),
    "coefficient-is-null": _validate(_l3_term(["E", None])),
    "basis-name-is-a-list": _validate(_l3_with(basis=[["E"], "F", "G"], brackets=[])),
    "action-term-without-coefficient": _pair_with_right_term,
    "delta-entry-is-null": _aut_with_delta([[None, 0, 0], [0, 0, 0], [0, 0, 0]]),
    "delta-rows-ragged": _aut_with_delta([[1, 0, 0], [0, 1], [0, 0, 1]]),
    "delta-not-dim-by-dim": _aut_with_delta([[1, 0], [0, 1]]),
    "iso-fields-differ": _iso_fields_differ,
    "pair-fields-differ": _pair_fields_differ,
    "matrix-parameter-rows-ragged": lambda tmp_path: [
        "families", "--make", "l2", "--A", "1,2;3", "--D", "1", "--delta", "1",
    ],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_an_input_error(case, tmp_path, capsys):
    code, out, err = run(capsys, *MALFORMED[case](tmp_path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")


def test_closed_stdout_ends_without_a_traceback():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "liefact.cli", "families", "--make", "L", "--n", "3", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr

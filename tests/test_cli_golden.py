"""Golden CLI outputs: stdout and exit code of each command, byte for byte.

The files under tests/golden_cli/ hold the stdout of each case,
exit_codes.json its exit code and options.json the option strings and
defaults of every subcommand.  Inputs are built here from the library and
written to a temporary directory, so no path appears in the output.  To
re-record after an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from liefact import matched
from liefact.cli import build_parser, main
from liefact.exactmath import Field, Matrix
from liefact.iso import verify_iso
from liefact.liecore import load_algebra

GOLDEN = Path(__file__).parent / "golden_cli"

Q = Field.rationals()
F3 = Field.gf(3)
F5 = Field.gf(5)
F7 = Field.gf(7)

JACOBI_VIOLATING = {
    "field": {"kind": "Q"},
    "dim": 3,
    "basis": ["e1", "e2", "e3"],
    "brackets": [
        {"lhs": "e1", "rhs": "e2", "out": [["e3", "1"]]},
        {"lhs": "e1", "rhs": "e3", "out": [["e1", "1"]]},
    ],
}

# a basis of GF(3)^4: into L(4) in it the iso search expands 1,104 nodes,
# which the kept almost abelian forms now spare, and into m(4) in it 67
F3_BASIS = Matrix(F3, [[0, 1, 0, 2], [1, 1, 0, 0], [0, 0, 1, 2], [1, 0, 0, 2]])


def _flipped_pair():
    """The canonical pair of L(4) over GF(5) with its left action (2, 0)
    flipped to -1: not a matched pair."""
    mp = matched.canonical_pair_L(1, F5)
    return matched.MatchedPair(mp.g, mp.h, right=dict(mp.right), left={(2, 0): (-1,)})


def _inputs():
    """File name -> JSON record of every input file the cases read."""
    sl2 = matched.make_sl2(F3)
    l4_f3 = matched.make_L(1, F3)
    m4_f3 = matched.make_m(1, F3)
    return {
        "L4_f5.json": matched.make_L(1, F5).to_json_dict(),
        "jacobi_violating.json": JACOBI_VIOLATING,
        "h5_q.json": matched.make_h5(Q).to_json_dict(),
        "l3_f3.json": matched.make_l(1, F3).to_json_dict(),
        "pairL_f5.json": matched.canonical_pair_L(1, F5).to_json_dict(),
        "pairm_f7.json": matched.canonical_pair_m(1, F7).to_json_dict(),
        "pairL_flipped_f5.json": _flipped_pair().to_json_dict(),
        "L4_f3.json": l4_f3.to_json_dict(),
        "L4_f3_conj.json": l4_f3.change_basis(F3_BASIS).to_json_dict(),
        "m4_f3.json": m4_f3.to_json_dict(),
        "m4_f3_conj.json": m4_f3.change_basis(F3_BASIS).to_json_dict(),
        "sl2_f3.json": sl2.to_json_dict(),
        "sl2_ad_e.json": sl2.ad((F3.one, F3.zero, F3.zero)).to_json(),
    }


# case name -> argv; {name} stands for the path of input file `name`
CASES = {
    "validate_ok": ["validate", "{L4_f5.json}", "--json"],
    "validate_jacobi": ["validate", "{jacobi_violating.json}", "--json"],
    "info": ["info", "{L4_f5.json}", "--json"],
    "derivations": ["derivations", "{h5_q.json}", "--json"],
    "twisted_all": ["twisted-derivations", "{l3_f3.json}", "--all", "--json"],
    "matched_check": ["matched-check", "--pair", "{pairL_f5.json}", "--json"],
    "bicrossed": ["bicrossed", "--pair", "{pairL_f5.json}", "--json"],
    "matched_check_flipped": ["matched-check", "--pair", "{pairL_flipped_f5.json}", "--json"],
    "bicrossed_flipped": ["bicrossed", "--pair", "{pairL_flipped_f5.json}", "--json"],
    "deform_maps": ["deform-maps", "--pair", "{pairL_f5.json}", "--json"],
    "complements_L_f5": ["complements", "--pair", "{pairL_f5.json}", "--json"],
    "complements_m_f7": ["complements", "--pair", "{pairm_f7.json}", "--json"],
    "iso": ["iso", "--a", "{L4_f3.json}", "--b", "{L4_f3_conj.json}", "--json"],
    # m(4) is not almost abelian, so its "yes" comes from the search
    "iso_searched": ["iso", "--a", "{m4_f3.json}", "--b", "{m4_f3_conj.json}", "--json"],
    "aut": ["aut", "--algebra", "{sl2_f3.json}", "--json"],
    "aut_delta": ["aut", "--algebra", "{sl2_f3.json}", "--delta", "{sl2_ad_e.json}", "--json"],
    "paper_verify_n1": ["paper-verify", "n1-index", "--json"],
    "paper_verify_m4_p7": ["paper-verify", "m4-index", "--p", "7", "--json"],
}

# the named families, one case each, with generic parameters; the recorded
# outputs pin their structure constants and action tables
GF5 = ["--field", "Fp", "--p", "5"]
GF2 = ["--field", "Fp", "--p", "2"]
FAMILY_CASES = {
    "families_L_n2": ["--make", "L", "--n", "2"],
    "families_L_n3": ["--make", "L", "--n", "3"],
    "families_m_n2": ["--make", "m", "--n", "2"],
    "families_m_n3": ["--make", "m", "--n", "3"],
    "families_l1_f5": ["--make", "l1", "--n", "2", *GF5, "--lambda0", "4", "--delta", "1,2,3,4,2"],
    "families_l2_f5": ["--make", "l2", "--n", "2", *GF5, "--A", "1,2;3,4", "--D", "0,1;2,3", "--delta", "1,2,3,4"],
    "families_l3_f5": ["--make", "l3", "--n", "2", *GF5, "--C", "1,2;3,4", "--delta", "1,0,2,3,4"],
    "families_l4_f5": ["--make", "l4", "--n", "2", *GF5, "--B", "2,1;4,3", "--delta", "0,1,2,3,1"],
    "families_l1c2_f2": [
        "--make", "l1c2", "--n", "2", *GF2,
        "--A", "1,1;0,1", "--B", "0,1;1,0", "--C", "1,0;1,1", "--D", "1,1;1,0", "--delta", "1,0,1,1",
    ],
    "families_l2c2_f2": ["--make", "l2c2", "--n", "2", *GF2, "--lambda0", "1", "--delta", "1,1,0,1,1"],
    "families_l_a_f5": ["--make", "l_a", *GF5, "--a", "1,2"],
    "families_lp_b_f5": ["--make", "lp_b", *GF5, "--b", "3,1"],
    "families_lp_b_zero_f5": ["--make", "lp_b", *GF5, "--b", "0,0"],
    "families_lpp_b_f5": ["--make", "lpp_b", *GF5, "--b", "2,4"],
    "families_lpp_b_zero_f5": ["--make", "lpp_b", *GF5, "--b", "0,0"],
    "families_lbar_a_f5": ["--make", "lbar_a", *GF5, "--a", "3,4"],
    "families_lbarp_b_f5": ["--make", "lbarp_b", *GF5, "--b", "1,3"],
    "families_lbarpp_c_f5": ["--make", "lbarpp_c", "--n", "2", *GF5, "--c", "3"],
    "families_pair_L_n2": ["--make", "pair-L", "--n", "2"],
    "families_pair_m_n2": ["--make", "pair-m", "--n", "2"],
    # an input error: a modulus given for the rationals
    "families_l_q_p5": ["--make", "l", "--n", "1", "--field", "Q", "--p", "5"],
}
CASES.update({name: ["families", *args, "--json"] for name, args in FAMILY_CASES.items()})

# the same commands in text mode; the paper-verify lines carry wall-clock
# timings, so those two stay JSON-only
CASES.update({
    f"{name}_text": argv[:-1]
    for name, argv in list(CASES.items())
    if not name.startswith("paper_verify")
})


def _write_inputs(directory: Path) -> None:
    for name, record in _inputs().items():
        (directory / name).write_text(json.dumps(record, indent=2, sort_keys=True))


def _argv(case: str, directory: Path) -> list:
    return [str(directory / arg[1:-1]) if arg.startswith("{") else arg for arg in CASES[case]]


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden_inputs")
    _write_inputs(directory)
    return directory


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, input_dir, capsys):
    code = main(_argv(case, input_dir))
    out = capsys.readouterr().out
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[case]
    assert out == (GOLDEN / f"{case}.stdout").read_text()


def test_recorded_iso_witnesses_pass_verify_iso(input_dir):
    # the kept almost abelian forms answer L(4) with no search, the search
    # answers m(4); either witness must preserve every bracket
    for case, searched in (("iso", False), ("iso_searched", True)):
        record = json.loads((GOLDEN / f"{case}.stdout").read_text())
        a, b = (load_algebra(input_dir / CASES[case][k][1:-1]) for k in (2, 4))
        witness = Matrix.from_json(a.field, record["witness"])
        assert record["verdict"] == "yes" and (record["searched"] > 0) == searched
        assert verify_iso(a, b, witness)


def _options() -> dict:
    """Subcommand -> its sorted (option string, default) pairs."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: sorted(
            [opt, action.default]
            for action in parser._actions
            for opt in action.option_strings or [action.dest]
            if not isinstance(action, argparse._HelpAction)
        )
        for name, parser in sub.choices.items()
    }


def test_subcommand_options_match_golden():
    assert _options() == json.loads((GOLDEN / "options.json").read_text())


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _write_inputs(directory)
        for case in sorted(CASES):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes[case] = main(_argv(case, directory))
            (GOLDEN / f"{case}.stdout").write_text(buf.getvalue())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    (GOLDEN / "options.json").write_text(json.dumps(_options(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_cli_golden.py --record")
    _record()

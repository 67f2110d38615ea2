"""Command-line surface: algebra I/O, solver commands, scenario runner.

Every command returns its JSON payload, its text lines and its exit code;
`main` alone writes and prints them.  `--out` is written before anything is
printed and only on success, so an unwritable `--out` leaves stdout empty.

Exit codes: 0 success, 1 mathematical failure (e.g. a Jacobi violation or a
failed verification scenario) or a closed output pipe, 2 input error (parse
errors, bad arguments, unreadable or unwritable files).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    BadParameter,
    BudgetExceeded,
    FormatError,
    InvalidMatchedPair,
    LiefactError,
    UnknownScenario,
)
from .exactmath import Field, Matrix
from . import deform, derivations as dv, iso, liecore, matched, scenarios

MATH_FAIL = 1
INPUT_FAIL = 2


def _emit(data, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _parse_vector(field: Field, text: str) -> tuple:
    return tuple(field.from_string(part) for part in text.split(","))


def _parse_matrix(field: Field, text: str) -> Matrix:
    rows = [row.split(",") for row in text.split(";")]
    if len(set(map(len, rows))) > 1:
        raise BadParameter(f"ragged rows in matrix {text!r}")
    return Matrix(field, rows)


# -- commands --------------------------------------------------------------------
#
# Each command returns (data, lines, code): the JSON payload, the text-mode
# lines and the exit code.  `main` writes `--out` and prints.


def _cmd_validate(args):
    alg = liecore.load_algebra(args.algebra)
    bad = alg.check_jacobi()
    dims = list(liecore.derived_dims(alg))
    data = {
        "jacobi_ok": not bad,
        "violations": [[i, j, l] for i, j, l, _ in bad],
        "dim": alg.dim,
        "derived_dims": dims,
    }
    lines = [
        f"Jacobi: {'OK' if not bad else 'FAIL ' + str(data['violations'])}, "
        f"dim {alg.dim}, derived dims {dims}"
    ]
    return data, lines, 0 if not bad else MATH_FAIL


def _cmd_info(args):
    alg = liecore.load_algebra(args.algebra)
    bad = alg.check_jacobi()
    fp = iso.fingerprint(alg)
    data = {
        "dim": alg.dim,
        "field": alg.field.to_json(),
        "basis": list(alg.basis_names),
        "jacobi_ok": not bad,
        "derived_dims": list(fp.derived),
        "lower_central_dims": list(fp.lower_central),
        "center_dim": fp.center_dim,
        "killing_rank": fp.killing_rank,
        "perfect": liecore.is_perfect(alg),
        "solvable_length": liecore.solvable_length(alg),
    }
    return data, [f"{k}: {v}" for k, v in data.items()], 0 if not bad else MATH_FAIL


def _cmd_derivations(args):
    basis = dv.derivation_space(liecore.load_algebra(args.algebra))
    data = {"dim": len(basis), "basis": [m.matrix.to_json() for m in basis]}
    lines = [f"derivation space dimension: {len(basis)}"]
    for i, m in enumerate(basis):
        lines.append(f"D{i + 1}: {m.matrix.to_json()['entries']}")
    return data, lines, 0


def _twisted_record(lam, basis) -> dict:
    return {
        "lambda": [str(x) for x in lam],
        "dim": len(basis),
        "basis": [m.matrix.to_json() for m in basis],
    }


def _cmd_twisted(args):
    alg = liecore.load_algebra(args.algebra)
    if args.all:
        entries = dv.enumerate_twisted_derivations(alg, args.budget)
        data = {"branches": [_twisted_record(lam, basis) for lam, basis in entries]}
        lines = [f"admissible covectors: {len(entries)}"]
        for rec in data["branches"]:
            lines.append(f"lambda {rec['lambda']}: solution dim {rec['dim']}")
        return data, lines, 0
    lam = [alg.field.zero] * alg.dim
    for spec in args.lam or []:
        try:
            name, value = spec.split("=", 1)
        except ValueError:
            raise BadParameter(f"bad --lambda entry {spec!r}; expected NAME=VALUE")
        lam[alg.name_index(name)] = alg.field.from_string(value)
    data = _twisted_record(lam, dv.twisted_derivations_for_lambda(alg, tuple(lam)))
    return data, [f"solution dim {data['dim']} for lambda {data['lambda']}"], 0


def _cmd_matched_check(args):
    report = matched.check_matched_pair(matched.load_pair(args.pair))
    data = {
        "valid": not report,
        "violations": [
            {"axiom": axiom, "indices": list(idx)} for axiom, idx, _ in report
        ],
    }
    lines = ["matched pair: OK"] if not report else [
        f"violated: {axiom} at {idx}" for axiom, idx, _ in report
    ]
    return data, lines, 0 if not report else MATH_FAIL


def _cmd_bicrossed(args):
    mp = matched.load_pair(args.pair)
    try:
        product = matched.bicrossed_product(mp)
    except InvalidMatchedPair as exc:
        violations = [[axiom, list(idx)] for axiom, idx, _ in exc.report]
        data = {"error": str(exc), "violations": violations}
        return data, [f"invalid matched pair: {exc}"], MATH_FAIL
    lines = [f"bicrossed product: dim {product.dim}, basis {', '.join(product.basis_names)}"]
    return product.to_json_dict(), lines, 0


def _cmd_deform_maps(args):
    maps = deform.enumerate_deformation_maps(matched.load_pair(args.pair), args.budget)
    data = {"count": len(maps), "maps": [d.matrix.to_json() for d in maps]}
    lines = [f"deformation maps: {len(maps)}"]
    for d in maps:
        lines.append("  " + "; ".join(",".join(str(x) for x in row) for row in d.matrix.rows))
    return data, lines, 0


def _cmd_complements(args):
    report = deform.classify_complements(matched.load_pair(args.pair), args.budget)
    data = {
        "index": report.index_str(),
        "class_sizes": report.class_sizes,
        "deformation_count": report.deformation_count,
        "representatives": [alg.to_json_dict() for alg in report.representatives],
    }
    lines = [
        f"factorization index: {report.index_str()}",
        f"class sizes: {report.class_sizes}",
        f"deformation maps: {report.deformation_count}",
    ]
    return data, lines, 0


def _cmd_iso(args):
    a = liecore.load_algebra(args.a)
    b = liecore.load_algebra(args.b)
    if a.field != b.field:
        raise BadParameter(f"--a is over {a.field} and --b over {b.field}; both must be over one field")
    res = iso.are_isomorphic(a, b, args.budget)
    data = {
        "verdict": res.verdict,
        "certificate": res.certificate,
        "searched": res.searched,
        "witness": res.witness.matrix.to_json() if res.witness else None,
    }
    lines = [f"verdict: {res.verdict}"]
    if res.witness:
        lines.append(f"witness rows: {data['witness']['entries']}")
    if res.certificate:
        lines.append(res.certificate)
    return data, lines, 0


def _cmd_aut(args):
    alg = liecore.load_algebra(args.algebra)
    if args.delta:
        delta = Matrix.from_json(alg.field, liecore.read_json(args.delta))
        if (delta.nrows, delta.ncols) != (alg.dim, alg.dim):
            raise BadParameter(f"--delta must be {alg.dim} x {alg.dim}, got {delta.nrows} x {delta.ncols}")
        triples = iso.enumerate_aut_triples(alg, delta, args.budget)
        data = {
            "count": len(triples),
            "triples": [
                {
                    "alpha": str(t.alpha),
                    "h0": [str(x) for x in t.h0],
                    "v": t.v.matrix.to_json(),
                }
                for t in triples
            ],
        }
        return data, [f"automorphism triples: {len(triples)}"], 0
    auts = iso.aut_enumerate(alg, args.budget)
    data = {"count": len(auts), "automorphisms": [m.matrix.to_json() for m in auts]}
    return data, [f"automorphisms: {len(auts)}"], 0


_FAMILY_HELP = (
    "algebras: l, L, m, l1, l2, l3, l4, l1c2, l2c2, h5, sl2, Lalpha, "
    "l_a, lp_b, lpp_b, lbar_a, lbarp_b, lbarpp_c, h_a; "
    "pairs: pair-L, pair-m, pair-h5delta"
)


def _cmd_families(args):
    name, n = args.make, args.n
    if args.field == "Fp" and args.p is None:
        raise BadParameter("--field Fp needs --p")
    if args.field == "Q" and args.p is not None:
        raise BadParameter("--field Q runs over the rationals; --p does not apply")
    field = Field.gf(args.p) if args.field == "Fp" else Field.rationals()

    def need(what, parse=Field.from_string):
        text = getattr(args, what)
        if text is None:
            raise BadParameter(f"--{what} is required for {name}")
        return parse(field, text)

    vec, mat = _parse_vector, _parse_matrix
    builders = {
        "pair-L": lambda: matched.canonical_pair_L(n, field),
        "pair-m": lambda: matched.canonical_pair_m(n, field),
        "pair-h5delta": lambda: matched.pair_from_twisted(
            matched.make_h5(field),
            dv.TwistedDerivation(tuple([field.zero] * 5), matched.h5_noninner_derivation(field)),
        ),
        "l": lambda: matched.make_l(n, field),
        "L": lambda: matched.make_L(n, field),
        "m": lambda: matched.make_m(n, field),
        "l1": lambda: matched.make_l1(n, field, need("lambda0"), need("delta", vec)),
        "l2": lambda: matched.make_l2(n, field, need("A", mat), need("D", mat), need("delta", vec)),
        "l3": lambda: matched.make_l3(n, field, need("C", mat), need("delta", vec)),
        "l4": lambda: matched.make_l4(n, field, need("B", mat), need("delta", vec)),
        "l1c2": lambda: matched.make_l1_char2(
            n, field, need("A", mat), need("B", mat), need("C", mat), need("D", mat), need("delta", vec)
        ),
        "l2c2": lambda: matched.make_l2_char2(n, field, need("lambda0"), need("delta", vec)),
        "h5": lambda: matched.make_h5(field),
        "sl2": lambda: matched.make_sl2(field),
        "Lalpha": lambda: matched.make_Lalpha(field, need("alpha")),
        "l_a": lambda: deform.make_l_a(field, need("a", vec)),
        "lp_b": lambda: deform.make_lp_b(field, need("b", vec)),
        "lpp_b": lambda: deform.make_lpp_b(field, need("b", vec)),
        "lbar_a": lambda: deform.make_lbar_a(field, need("a", vec)),
        "lbarp_b": lambda: deform.make_lbarp_b(field, need("b", vec)),
        "lbarpp_c": lambda: deform.make_lbarpp_c(field, need("c"), n),
        "h_a": lambda: deform.make_h_a(field, need("a")),
    }
    if name not in builders:
        raise BadParameter(f"unknown family {name!r}; {_FAMILY_HELP}")
    data = builders[name]().to_json_dict()
    return data, [f"built {name}: dim {data['dim']}" if "dim" in data else f"built {name}"], 0


def _cmd_paper_verify(args):
    if args.all:
        results = scenarios.run_all(p=args.p, budget=args.budget)
    else:
        if not args.scenario:
            raise BadParameter("give a scenario id or --all")
        results = [scenarios.run_scenario(args.scenario, p=args.p, budget=args.budget)]
    data = []
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} {res.scenario.id} ({res.field_label}, {res.elapsed:.2f}s)")
        for check in res.checks:
            mark = "ok" if check.ok else "MISMATCH"
            lines.append(
                f"    {check.name} [{check.tag}]: expected {check.expected!r}, got {check.actual!r} ({mark})"
            )
        # timings stay out of the JSON payload so output is stable across runs
        data.append(
            {
                "id": res.scenario.id,
                "field": res.field_label,
                "passed": res.passed,
                "checks": [
                    {
                        "name": c.name,
                        "tag": c.tag,
                        "expected": _jsonable(c.expected),
                        "actual": _jsonable(c.actual),
                        "ok": c.ok,
                    }
                    for c in res.checks
                ],
            }
        )
    failed = [r for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} scenarios passed")
    return data, lines, 0 if not failed else MATH_FAIL


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


# -- argument parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liefact",
        description="Exact toolkit for structure-constant Lie algebras: twisted "
        "derivations, matched pairs, bicrossed products, deformations, complement "
        "classification and factorization indices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {}  # subparser -> (takes --out, --budget default); added after its own options

    def command(name, func, help, out=False, budget=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        shared[p] = (out, budget)
        return p

    p = command("validate", _cmd_validate, "check an algebra file (Jacobi, dims)")
    p.add_argument("algebra")

    p = command("info", _cmd_info, "structural summary of an algebra file")
    p.add_argument("algebra")

    p = command("derivations", _cmd_derivations, "basis of the derivation space", out=True)
    p.add_argument("algebra")

    p = command("twisted-derivations", _cmd_twisted, "twisted derivations for a covector", budget=10**7)
    p.add_argument("algebra")
    p.add_argument("--lambda", dest="lam", action="append", metavar="NAME=VALUE")
    p.add_argument("--all", action="store_true", help="enumerate all admissible covectors (finite field)")

    p = command(
        "matched-check", _cmd_matched_check, "verify the matched pair axioms and Jacobi in g and h"
    )
    p.add_argument("--pair", required=True)

    p = command("bicrossed", _cmd_bicrossed, "bicrossed product of a matched pair", out=True)
    p.add_argument("--pair", required=True)

    p = command("deform-maps", _cmd_deform_maps, "enumerate deformation maps of a pair", out=True, budget=10**7)
    p.add_argument("--pair", required=True)

    p = command(
        "complements", _cmd_complements, "classify complements / factorization index", out=True, budget=10**7
    )
    p.add_argument("--pair", required=True)

    p = command("iso", _cmd_iso, "isomorphism test between two algebra files", budget=500000)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = command("aut", _cmd_aut, "automorphisms, or automorphism triples with --delta", budget=500000)
    p.add_argument("--algebra", required=True)
    p.add_argument("--delta")

    p = command("families", _cmd_families, f"build a named algebra or pair ({_FAMILY_HELP})", out=True)
    p.add_argument("--make", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--field", choices=["Q", "Fp"], default="Q")
    p.add_argument("--p", type=int)
    for param in ("lambda0", "alpha", "a", "b", "c", "delta", "A", "B", "C", "D"):
        p.add_argument(f"--{param}")

    p = command("paper-verify", _cmd_paper_verify, "run bundled verification scenarios", budget=10**7)
    p.add_argument("scenario", nargs="?")
    p.add_argument("--all", action="store_true")
    p.add_argument("--p", type=int, help="prime override for scenarios that allow it")

    for p, (out, budget) in shared.items():
        p.add_argument("--json", action="store_true", help="structured JSON output")
        if out:
            p.add_argument("--out", help="also write the JSON result here, on success")
        if budget:
            p.add_argument("--budget", type=int, default=budget, help="search budget")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        data, lines, code = args.func(args)
        if code == 0 and getattr(args, "out", None):
            liecore.write_json(args.out, data)
        _emit(data, args.json, lines)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (e.g. `| head`); send the rest of the
        # output, including the flush at exit, to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (FormatError, BadParameter, UnknownScenario, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_FAIL
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return INPUT_FAIL
    except LiefactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return MATH_FAIL


if __name__ == "__main__":
    raise SystemExit(main())

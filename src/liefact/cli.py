"""Command-line surface: algebra I/O, solver commands, scenario runner.

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


def _parse_field(args) -> Field:
    kind = getattr(args, "field", None) or "Q"
    if kind == "Q":
        return Field.rationals()
    if kind == "Fp":
        if getattr(args, "p", None) is None:
            raise BadParameter("--field Fp needs --p")
        return Field.gf(args.p)
    raise BadParameter(f"unknown field {kind!r}")


def _parse_vector(field: Field, text: str) -> tuple:
    return tuple(field.from_string(part) for part in text.split(","))


def _parse_matrix(field: Field, text: str) -> Matrix:
    return Matrix(field, [row.split(",") for row in text.split(";")])


# -- commands --------------------------------------------------------------------


def _cmd_validate(args) -> int:
    alg = liecore.load_algebra(args.algebra)
    bad = alg.check_jacobi()
    dims = list(liecore.derived_dims(alg))
    data = {
        "jacobi_ok": not bad,
        "violations": [[i, j, l] for i, j, l, _ in bad],
        "dim": alg.dim,
        "derived_dims": dims,
    }
    _emit(
        data,
        args.json,
        [
            f"Jacobi: {'OK' if not bad else 'FAIL ' + str(data['violations'])}, "
            f"dim {alg.dim}, derived dims {dims}"
        ],
    )
    return 0 if not bad else MATH_FAIL


def _cmd_info(args) -> int:
    alg = liecore.load_algebra(args.algebra)
    bad = alg.check_jacobi()
    fp = iso.fingerprint(alg)
    length = liecore.solvable_length(alg)
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
        "solvable_length": length,
    }
    lines = [f"{k}: {v}" for k, v in data.items()]
    _emit(data, args.json, lines)
    return 0 if not bad else MATH_FAIL


def _cmd_derivations(args) -> int:
    alg = liecore.load_algebra(args.algebra)
    basis = dv.derivation_space(alg)
    data = {"dim": len(basis), "basis": [m.matrix.to_json() for m in basis]}
    lines = [f"derivation space dimension: {len(basis)}"]
    for i, m in enumerate(basis):
        lines.append(f"D{i + 1}: {m.matrix.to_json()['entries']}")
    _emit(data, args.json, lines)
    if args.out:
        liecore.write_json(args.out, data)
    return 0


def _cmd_twisted(args) -> int:
    alg = liecore.load_algebra(args.algebra)
    if args.all:
        entries = dv.enumerate_twisted_derivations(alg, args.budget)
        data = {
            "branches": [
                {
                    "lambda": [str(x) for x in lam],
                    "dim": len(basis),
                    "basis": [m.matrix.to_json() for m in basis],
                }
                for lam, basis in entries
            ]
        }
        lines = [f"admissible covectors: {len(entries)}"]
        for rec in data["branches"]:
            lines.append(f"lambda {rec['lambda']}: solution dim {rec['dim']}")
        _emit(data, args.json, lines)
        return 0
    lam = [alg.field.zero] * alg.dim
    for spec in args.lam or []:
        try:
            name, value = spec.split("=", 1)
        except ValueError:
            raise BadParameter(f"bad --lambda entry {spec!r}; expected NAME=VALUE")
        lam[alg.name_index(name)] = alg.field.from_string(value)
    basis = dv.twisted_derivations_for_lambda(alg, tuple(lam))
    data = {
        "lambda": [str(x) for x in lam],
        "dim": len(basis),
        "basis": [m.matrix.to_json() for m in basis],
    }
    _emit(data, args.json, [f"solution dim {len(basis)} for lambda {data['lambda']}"])
    return 0


def _cmd_matched_check(args) -> int:
    mp = matched.load_pair(args.pair)
    report = matched.check_matched_pair(mp)
    data = {
        "valid": not report,
        "violations": [
            {"axiom": axiom, "indices": list(idx)} for axiom, idx, _ in report
        ],
    }
    lines = ["matched pair: OK"] if not report else [
        f"violated: {axiom} at {idx}" for axiom, idx, _ in report
    ]
    _emit(data, args.json, lines)
    return 0 if not report else MATH_FAIL


def _cmd_bicrossed(args) -> int:
    mp = matched.load_pair(args.pair)
    try:
        product = matched.bicrossed_product(mp)
    except InvalidMatchedPair as exc:
        _emit(
            {"error": str(exc), "violations": [[a, list(i)] for a, i, _ in exc.report]},
            args.json,
            [f"invalid matched pair: {exc}"],
        )
        return MATH_FAIL
    data = product.to_json_dict()
    _emit(data, args.json, [f"bicrossed product: dim {product.dim}, basis {', '.join(product.basis_names)}"])
    if args.out:
        liecore.write_json(args.out, data)
    return 0


def _cmd_deform_maps(args) -> int:
    mp = matched.load_pair(args.pair)
    maps = deform.enumerate_deformation_maps(mp, args.budget)
    data = {"count": len(maps), "maps": [d.matrix.to_json() for d in maps]}
    lines = [f"deformation maps: {len(maps)}"]
    for d in maps:
        lines.append("  " + "; ".join(",".join(str(x) for x in row) for row in d.matrix.rows))
    _emit(data, args.json, lines)
    if args.out:
        liecore.write_json(args.out, data)
    return 0


def _cmd_complements(args) -> int:
    mp = matched.load_pair(args.pair)
    report = deform.classify_complements(mp, args.budget)
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
    _emit(data, args.json, lines)
    if args.out:
        liecore.write_json(args.out, data)
    return 0


def _cmd_iso(args) -> int:
    a = liecore.load_algebra(args.a)
    b = liecore.load_algebra(args.b)
    res = iso.are_isomorphic(a, b, args.budget)
    data = {
        "verdict": res.verdict,
        "certificate": res.certificate,
        "searched": res.searched,
        "witness": res.witness.matrix.to_json() if res.witness else None,
    }
    lines = [f"verdict: {res.verdict}"]
    if res.witness:
        lines.append(f"witness columns: {data['witness']['entries']}")
    if res.certificate:
        lines.append(res.certificate)
    _emit(data, args.json, lines)
    return 0


def _cmd_aut(args) -> int:
    alg = liecore.load_algebra(args.algebra)
    if args.delta:
        delta = Matrix.from_json(alg.field, liecore.read_json(args.delta))
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
        _emit(data, args.json, [f"automorphism triples: {len(triples)}"])
        return 0
    auts = iso.aut_enumerate(alg, args.budget)
    data = {"count": len(auts), "automorphisms": [m.matrix.to_json() for m in auts]}
    _emit(data, args.json, [f"automorphisms: {len(auts)}"])
    return 0


_FAMILY_HELP = (
    "algebras: l, L, m, l1, l2, l3, l4, l1c2, l2c2, h5, sl2, Lalpha, "
    "l_a, lp_b, lpp_b, lbar_a, lbarp_b, lbarpp_c, h_a; "
    "pairs: pair-L, pair-m, pair-h5delta"
)


def _cmd_families(args) -> int:
    field = _parse_field(args)
    name = args.make
    n = args.n

    def vec(text, what):
        if text is None:
            raise BadParameter(f"--{what} is required for {name}")
        return _parse_vector(field, text)

    def mat(text, what):
        if text is None:
            raise BadParameter(f"--{what} is required for {name}")
        return _parse_matrix(field, text)

    if name == "pair-L":
        data = matched.canonical_pair_L(n, field).to_json_dict()
    elif name == "pair-m":
        data = matched.canonical_pair_m(n, field).to_json_dict()
    elif name == "pair-h5delta":
        h5 = matched.make_h5(field)
        delta = matched.h5_noninner_derivation(field)
        tw = dv.TwistedDerivation(tuple([field.zero] * 5), delta)
        data = matched.pair_from_twisted(h5, tw).to_json_dict()
    else:
        builders = {
            "l": lambda: matched.make_l(n, field),
            "L": lambda: matched.make_L(n, field),
            "m": lambda: matched.make_m(n, field),
            "l1": lambda: matched.make_l1(n, field, _req(args.lambda0, "lambda0", field), vec(args.delta, "delta")),
            "l2": lambda: matched.make_l2(n, field, mat(args.A, "A"), mat(args.D, "D"), vec(args.delta, "delta")),
            "l3": lambda: matched.make_l3(n, field, mat(args.C, "C"), vec(args.delta, "delta")),
            "l4": lambda: matched.make_l4(n, field, mat(args.B, "B"), vec(args.delta, "delta")),
            "l1c2": lambda: matched.make_l1_char2(
                n, field, mat(args.A, "A"), mat(args.B, "B"), mat(args.C, "C"), mat(args.D, "D"), vec(args.delta, "delta")
            ),
            "l2c2": lambda: matched.make_l2_char2(n, field, _req(args.lambda0, "lambda0", field), vec(args.delta, "delta")),
            "h5": lambda: matched.make_h5(field),
            "sl2": lambda: matched.make_sl2(field),
            "Lalpha": lambda: matched.make_Lalpha(field, _req(args.alpha, "alpha", field)),
            "l_a": lambda: deform.make_l_a(field, vec(args.a, "a")),
            "lp_b": lambda: deform.make_lp_b(field, vec(args.b, "b")),
            "lpp_b": lambda: deform.make_lpp_b(field, vec(args.b, "b")),
            "lbar_a": lambda: deform.make_lbar_a(field, vec(args.a, "a")),
            "lbarp_b": lambda: deform.make_lbarp_b(field, vec(args.b, "b")),
            "lbarpp_c": lambda: deform.make_lbarpp_c(field, _req(args.c, "c", field), n),
            "h_a": lambda: deform.make_h_a(field, _req(args.a, "a", field)),
        }
        if name not in builders:
            raise BadParameter(f"unknown family {name!r}; {_FAMILY_HELP}")
        data = builders[name]().to_json_dict()
    _emit(data, args.json, [f"built {name}: dim {data['dim']}" if "dim" in data else f"built {name}"])
    if args.out:
        liecore.write_json(args.out, data)
    return 0


def _req(value, what, field: Field):
    if value is None:
        raise BadParameter(f"--{what} is required for this family")
    return field.from_string(value)


def _cmd_paper_verify(args) -> int:
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
    _emit(data, args.json, lines)
    return 0 if not failed else MATH_FAIL


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

    def add_common(p, budget_default=10**7):
        p.add_argument("--json", action="store_true", help="structured JSON output")
        p.add_argument("--budget", type=int, default=budget_default, help="search budget")

    p = sub.add_parser("validate", help="check an algebra file (Jacobi, dims)")
    p.add_argument("algebra")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", help="structural summary of an algebra file")
    p.add_argument("algebra")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("derivations", help="basis of the derivation space")
    p.add_argument("algebra")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_derivations)

    p = sub.add_parser("twisted-derivations", help="twisted derivations for a covector")
    p.add_argument("algebra")
    p.add_argument("--lambda", dest="lam", action="append", metavar="NAME=VALUE")
    p.add_argument("--all", action="store_true", help="enumerate all admissible covectors (finite field)")
    add_common(p)
    p.set_defaults(func=_cmd_twisted)

    p = sub.add_parser("matched-check", help="verify the matched pair axioms")
    p.add_argument("--pair", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_matched_check)

    p = sub.add_parser("bicrossed", help="bicrossed product of a matched pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bicrossed)

    p = sub.add_parser("deform-maps", help="enumerate deformation maps of a pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--out")
    add_common(p)
    p.set_defaults(func=_cmd_deform_maps)

    p = sub.add_parser("complements", help="classify complements / factorization index")
    p.add_argument("--pair", required=True)
    p.add_argument("--out")
    add_common(p)
    p.set_defaults(func=_cmd_complements)

    p = sub.add_parser("iso", help="isomorphism test between two algebra files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    add_common(p, budget_default=500000)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("aut", help="automorphisms, or automorphism triples with --delta")
    p.add_argument("--algebra", required=True)
    p.add_argument("--delta")
    add_common(p, budget_default=500000)
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("families", help=f"build a named algebra or pair ({_FAMILY_HELP})")
    p.add_argument("--make", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--field", choices=["Q", "Fp"], default="Q")
    p.add_argument("--p", type=int)
    p.add_argument("--lambda0")
    p.add_argument("--alpha")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--c")
    p.add_argument("--delta")
    p.add_argument("--A")
    p.add_argument("--B")
    p.add_argument("--C")
    p.add_argument("--D")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("paper-verify", help="run bundled verification scenarios")
    p.add_argument("scenario", nargs="?")
    p.add_argument("--all", action="store_true")
    p.add_argument("--p", type=int, help="prime override for scenarios that allow it")
    add_common(p)
    p.set_defaults(func=_cmd_paper_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
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

"""Scenario runner backing the `paper-verify` command.

Scenarios are data: the bundled catalog records, for each verification, the
construction to run, the field policy, and the expected outcome with a
provenance tag ("paper" for values taken from the source results, "derived"
for values fixed by an independent oracle, "trivial" for definitional
cases).  Adding a verification is an edit to the catalog plus, at most, a
new handler kind here.
"""

from __future__ import annotations

import ast
import json
import operator
import time
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .errors import BadParameter, FormatError, UnknownScenario
from .exactmath import Field, Matrix, basis_vector, span_rref, zero_vector
from . import deform, derivations as dv, iso, liecore, matched


def _catalog_data() -> dict:
    text = resources.files("liefact.data").joinpath("scenarios.json").read_text("utf-8")
    return json.loads(text)


@dataclass(frozen=True)
class Scenario:
    id: str
    description: str
    kind: str
    params: dict
    field_policy: dict
    expected: dict


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: object
    actual: object
    ok: bool
    tag: str


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    field_label: str
    checks: list
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


_FIELD_KINDS = ("Q", "Fp", "fixed")
_TAGS = ("paper", "derived", "trivial")
_EXPECTATION_KEYS = ("value", "formula", "formula_list")


def _check_record(rec: dict) -> None:
    """Raise FormatError, naming the scenario, if `rec` breaks the catalog schema."""
    where = f"scenario {rec.get('id')!r}"
    if rec.get("kind") not in _HANDLERS:
        raise FormatError(f"{where}: no handler for kind {rec.get('kind')!r}")
    field_kind = rec.get("field", {}).get("kind", "Q")
    if field_kind not in _FIELD_KINDS:
        raise FormatError(f"{where}: field kind {field_kind!r} is not one of {_FIELD_KINDS}")
    for name, record in rec["expected"].items():
        if sum(key in record for key in _EXPECTATION_KEYS) != 1:
            raise FormatError(f"{where}: expectation {name!r} needs exactly one of {_EXPECTATION_KEYS}")
        tag = record.get("tag")
        if tag not in _TAGS:
            raise FormatError(f"{where}: expectation {name!r} has tag {tag!r}, not one of {_TAGS}")
        for text in _formulas(record):
            _formula(text)


def load_catalog() -> list:
    """The bundled scenarios, each checked against the catalog schema."""
    data = _catalog_data()
    for rec in data["scenarios"]:
        _check_record(rec)
    return [
        Scenario(
            id=rec["id"],
            description=rec["description"],
            kind=rec["kind"],
            params=rec.get("params", {}),
            field_policy=rec.get("field", {"kind": "Q"}),
            expected=rec["expected"],
        )
        for rec in data["scenarios"]
    ]


def find_scenario(scenario_id: str) -> Scenario:
    for s in load_catalog():
        if s.id == scenario_id:
            return s
    raise UnknownScenario(f"no scenario named {scenario_id!r}")


def _resolve_field(policy: dict, p: Optional[int]):
    kind = policy.get("kind", "Q")
    if kind == "Q":
        if p is not None:
            raise BadParameter("this scenario runs over the rationals; --p does not apply")
        return Field.rationals(), "Q", None
    if kind == "fixed":
        if p is not None:
            raise BadParameter("this scenario runs a fixed field grid; --p does not apply")
        return None, "fixed grid", None
    default_p = policy.get("default_p", 5)
    if p is not None and not policy.get("p_override", False):
        raise BadParameter("this scenario does not accept a --p override")
    chosen = p if p is not None else default_p
    if policy.get("char_ne_2") and chosen == 2:
        raise BadParameter("this scenario requires characteristic != 2")
    return Field.gf(chosen), f"GF({chosen})", chosen


_FORMULA_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.FloorDiv: operator.floordiv,
}


def _formulas(record: dict) -> list:
    if "formula" in record:
        return [record["formula"]]
    return list(record.get("formula_list", []))


def _formula(text: str):
    """Compile an integer expression in p to a function of p.

    Allowed: int constants, the name p, binary + - * //, unary minus and
    parentheses; anything else raises FormatError.
    """
    try:
        tree = ast.parse(text, mode="eval").body
    except (SyntaxError, TypeError, ValueError) as exc:
        raise FormatError(f"bad formula {text!r}: {exc}") from exc

    def build(node):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            value = node.value
            return lambda p: value
        if isinstance(node, ast.Name) and node.id == "p":
            return lambda p: p
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = build(node.operand)
            return lambda p: -inner(p)
        if isinstance(node, ast.BinOp) and type(node.op) in _FORMULA_OPS:
            op, left, right = _FORMULA_OPS[type(node.op)], build(node.left), build(node.right)
            return lambda p: op(left(p), right(p))
        raise FormatError(f"bad formula {text!r}: {ast.unparse(node)!r} is not allowed")

    return build(tree)


def _expected_value(record: dict, p: Optional[int]):
    if "value" in record:
        return record["value"]
    if "formula" in record:
        return _formula(record["formula"])(p)
    return [_formula(f)(p) for f in record["formula_list"]]


def run_scenario(scenario, p: Optional[int] = None, budget: int = 10**7) -> ScenarioResult:
    if isinstance(scenario, str):
        scenario = find_scenario(scenario)
    handler = _HANDLERS[scenario.kind]  # load_catalog checked the kind
    field, label, chosen_p = _resolve_field(scenario.field_policy, p)
    start = time.monotonic()
    actual = handler(scenario.params, field, chosen_p, budget)
    elapsed = time.monotonic() - start
    checks = []
    for name, record in scenario.expected.items():
        expected = _expected_value(record, chosen_p)
        got = actual.get(name, "<missing>")
        checks.append(CheckResult(name, expected, got, got == expected, record["tag"]))
    return ScenarioResult(scenario, label, checks, elapsed)


def run_all(p: Optional[int] = None, budget: int = 10**7) -> list:
    # --p only applies to scenarios that accept the override
    results = []
    for scenario in load_catalog():
        use_p = p if (p is not None and scenario.field_policy.get("p_override")) else None
        results.append(run_scenario(scenario, p=use_p, budget=budget))
    return results


# -- reference algebras --------------------------------------------------------


def _third_complement(field: Field) -> liecore.LieAlgebra:
    # the non-obvious complement class of the L(4) extension
    return liecore.LieAlgebra.from_named_brackets(
        field, ("E", "F", "G"), {("F", "E"): [("F", 1)], ("E", "G"): [("G", -1)]}
    )


# -- handlers -------------------------------------------------------------------


def _match_reps_to_catalog(reps, references, iso_budget) -> bool:
    if len(reps) != len(references):
        return False
    used = set()
    for rep in reps:
        hit = None
        for idx, ref in enumerate(references):
            if idx in used:
                continue
            if iso.are_isomorphic(rep, ref, iso_budget).is_yes:
                hit = idx
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def _h_classify_L(params, field, p, budget):
    mp = matched.canonical_pair_L(params.get("n", 1), field)
    report = deform.classify_complements(mp, budget)
    refs = [
        matched.make_l(1, field),
        liecore.LieAlgebra.abelian(field, 3),
        _third_complement(field),
    ]
    return {
        "index": report.index,
        "reps_match_catalog": _match_reps_to_catalog(report.representatives, refs, 500000),
    }


def _h_classify_m(params, field, p, budget):
    mp = matched.canonical_pair_m(params.get("n", 1), field)
    report = deform.classify_complements(mp, budget)
    return {"index": report.index}


def _h_defmaps(params, field, p, budget, closed_form):
    n = params.get("n", 1)
    families = closed_form(n, field)
    mp = families[0].mp
    maps = deform.enumerate_deformation_maps(mp, budget)
    family_sets = []
    for fam in families:
        family_sets.append({d.matrix for d in fam.enumerate()})
    union = set()
    for s in family_sets:
        union |= s
    return {
        "count": len(maps),
        "partition": [len(s) for s in family_sets],
        "closed_form_equal": union == {d.matrix for d in maps},
    }


def _h_defmaps_L(params, field, p, budget):
    return _h_defmaps(params, field, p, budget, deform.closed_form_defmaps_L)


def _h_defmaps_m(params, field, p, budget):
    return _h_defmaps(params, field, p, budget, deform.closed_form_defmaps_m)


def _h_h5_derivations(params, field, p, budget):
    h5 = matched.make_h5(field)
    basis = dv.derivation_space(h5)
    delta = liecore.LinearMap(h5, h5, matched.h5_noninner_derivation(field))
    pattern = matched.h5_derivation_pattern(field)
    solver_span = dv.canonical_solution_span(basis)
    pattern_span = tuple(span_rref(field, [m.entries_flat() for m in pattern]))
    inner = None
    is_der = dv.is_derivation(h5, delta)
    if is_der:
        inner = dv.is_inner(h5, delta)
    return {
        "der_dim": len(basis),
        "pattern_spans": solver_span == pattern_span,
        "delta_is_derivation": is_der,
        "delta_inner": inner is not None,
    }


def _h_h5_complements(params, field, p, budget):
    h5 = matched.make_h5(field)
    tw = dv.TwistedDerivation(zero_vector(field, 5), matched.h5_noninner_derivation(field))
    mp = matched.pair_from_twisted(h5, tw)
    maps = deform.enumerate_deformation_maps(mp, budget)
    # nonzero maps must be exactly r(e1)=a, r(e2)=-1/a, r(e3)=2, rest 0
    family_ok = True
    all_jacobi = True
    derived_ok = True
    seen_a = set()
    for d in maps:
        alg = deform.r_deformation(mp, d)
        if alg.check_jacobi():
            all_jacobi = False
        if d.matrix.is_zero():
            continue
        row = d.matrix.rows[0]
        a = row[0]
        if not a or row[1] != -a.inverse() or row[2] != field.scalar(2) or row[3] or row[4]:
            family_ok = False
        else:
            seen_a.add(a)
        if liecore.derived_dims(alg)[1] != 3:
            derived_ok = False
    family_ok = family_ok and len(seen_a) == field.p - 1
    return {
        "count": len(maps),
        "family_matches": family_ok,
        "all_jacobi": all_jacobi,
        "deformed_derived_dim_3": derived_ok,
    }


def _h_twisted_closed_form(params, field, p, budget):
    all_agree = True
    for n, q in params["grid"]:
        f = Field.gf(q)
        alg = matched.make_l(n, f)
        for lam, basis in dv.enumerate_twisted_derivations(alg, budget):
            if dv.canonical_solution_span(basis) != dv.tn_delta_span(f, n, lam[-1]):
                all_agree = False
    f2 = Field.gf(2)
    n2 = params.get("char2_n", 1)
    alg2 = matched.make_l(n2, f2)
    char2_agree = True
    nontrivial = 0
    for lam, basis in dv.enumerate_twisted_derivations(alg2, budget):
        if dv.canonical_solution_span(basis) != dv.tn_delta_span(f2, n2, lam[-1]):
            char2_agree = False
        nontrivial += 1
    return {
        "all_agree": all_agree,
        "char2_agree": char2_agree,
        "char2_branches": nontrivial,
    }


def _h_sl2_sympathetic(params, field, p, budget):
    der_dim_3 = True
    all_inner = True
    extensions_trivial = True
    for q in params["ps"]:
        f = Field.gf(q)
        sl2 = matched.make_sl2(f)
        basis = dv.derivation_space(sl2)
        if len(basis) != 3:
            der_dim_3 = False
        if any(dv.is_inner(sl2, d) is None for d in basis):
            all_inner = False
        b = [d.matrix for d in basis]
        two, three = f.scalar(2), f.scalar(3)
        samples = [b[0], b[1], b[2], b[0] + b[1], b[0] + two * b[1] + three * b[2]]
        target = liecore.direct_product(liecore.LieAlgebra.abelian(f, 1, ("W",)), sl2)
        for m in samples[: params.get("samples", 5)]:
            ext = matched.h_lambda_delta(sl2, dv.TwistedDerivation(zero_vector(f, 3), m))
            if not iso.are_isomorphic(ext, target).is_yes:
                extensions_trivial = False
    return {
        "der_dim_3": der_dim_3,
        "all_inner": all_inner,
        "extensions_trivial": extensions_trivial,
    }


def _generators(table: list) -> list:
    """Indices taken greedily in index order, each one not yet reached from
    the earlier ones by right multiplication in the product table; every
    index is reached from the result."""
    gens, reached = [], set()
    for i in range(len(table)):
        if i in reached:
            continue
        gens.append(i)
        reached.update(gens)
        stack = list(reached)
        while stack:
            row = table[stack.pop()]
            for g in gens:
                if row[g] not in reached:
                    reached.add(row[g])
                    stack.append(row[g])
    return gens


def _associative(table: list) -> bool:
    """Light's associativity test of a product table on indices 0..n-1:
    (a*s)*c = a*(s*c) for every a and c, with s only in a generating set.
    It is exact: the s for which the identity holds for all a and c are
    closed under the product, so it holds for every s once it holds for a
    set that generates all n."""
    n = range(len(table))
    return all(table[row[s]][c] == row[table[s][c]] for s in _generators(table) for row in table for c in n)


def _h_aut_triple_group(params, field, p, budget):
    sl2 = matched.make_sl2(field)
    x0 = basis_vector(field, 3, 0)
    delta = sl2.ad(x0)
    triples = iso.enumerate_aut_triples(sl2, delta)
    auts = iso.aut_enumerate(sl2)
    count_ok = len(triples) == (field.p - 1) * len(auts)

    def key(t):
        return t.alpha, t.h0, t.v.matrix

    ident = iso.aut_identity(sl2)
    axioms = True
    for t in triples:
        if not iso.aut_triple_valid(sl2, delta, t):
            axioms = False
        if key(iso.aut_multiply(ident, t)) != key(t) or key(iso.aut_multiply(t, ident)) != key(t):
            axioms = False
        if key(iso.aut_multiply(t, iso.aut_inverse(t))) != key(ident):
            axioms = False
    products = [[iso.aut_multiply(t1, t2) for t2 in triples] for t1 in triples]
    if not all(iso.aut_triple_valid(sl2, delta, prod) for row in products for prod in row):
        axioms = False
    # table[i][j]: the index of triples[i] * triples[j], None outside the list
    index = {key(t): i for i, t in enumerate(triples)}
    table = [[index.get(key(prod)) for prod in row] for row in products]
    closed = all(i is not None for row in table for i in row)

    def parts(s):
        return s.translation, s.alpha, s.v.matrix

    embeds = [iso.semidirect_embed(t) for t in triples]
    embed_ok = len(set(map(parts, embeds))) == len(triples) and all(
        parts(iso.semidirect_embed(prod)) == parts(iso.semidirect_multiply(s1, s2))
        for s1, row in zip(embeds, products)
        for s2, prod in zip(embeds, row)
    )
    pred = iso.gcheck_inner(sl2, x0)
    pred_ok = all(pred(t) for t in triples)
    return {
        "group_axioms": axioms and closed and _associative(table),
        "count_is_units_times_aut": count_ok,
        "embedding_ok": embed_ok,
        "inner_predicate_ok": pred_ok,
    }


def _h_solvable_selfdual(params, field, p, budget):
    l_a = deform.make_l_a(field, [1])
    l3 = matched.make_l(1, field)
    ab3 = liecore.LieAlgebra.abelian(field, 3)
    sd_l3 = liecore.self_dual(l3)
    witness_ok = False
    if sd_l3.verdict == "no" and sd_l3.witness is not None:
        forms = liecore.invariant_bilinear_forms(l3)
        witness_ok = bool(forms) and all(
            all(
                not form.evaluate(sd_l3.witness, basis_vector(field, 3, k))
                for k in range(3)
            )
            for form in forms
        )
    return {
        "l_a_solvable_length": liecore.solvable_length(l_a),
        "l3_self_dual": sd_l3.verdict,
        "l3_witness_in_radical": witness_ok,
        "abelian3_self_dual": liecore.self_dual(ab3).verdict,
    }


def _h_roundtrip_suite(params, field, p, budget):
    zoo = [
        matched.make_l(1, field),
        matched.make_l(2, field),
        matched.make_L(1, field),
        matched.make_m(1, field),
        matched.make_sl2(field),
        matched.make_h5(field),
        matched.make_l1(1, field, 1, (0, 0, 1)),
        matched.make_l2(1, field, [[1]], [[1]], (1, 1)),
        matched.make_l3(1, field, [[1]], (0, 1, 2)),
        matched.make_l4(1, field, [[1]], (1, 0, 2)),
        deform.make_l_a(field, [1]),
        deform.make_lp_b(field, [1]),
        deform.make_lpp_b(field, [1]),
        deform.make_lbar_a(field, [1]),
        deform.make_lbarp_b(field, [1]),
        deform.make_lbarpp_c(field, 2),
        deform.make_h_a(field, 1),
        matched.make_Lalpha(field, 2),
    ]
    all_jacobi = all(not alg.check_jacobi() for alg in zoo)

    canonical_roundtrips = True
    product_structures = True
    for ambient in (matched.make_L(1, field), matched.make_m(1, field), matched.make_L(2, field)):
        n = ambient.dim
        gsub = liecore.Subspace(ambient, [basis_vector(field, n, n - 1)])
        hsub = liecore.Subspace(ambient, [basis_vector(field, n, i) for i in range(n - 1)])
        mp = matched.canonical_matched_pair(matched.Factorization(ambient, gsub, hsub))
        if matched.check_matched_pair(mp):
            canonical_roundtrips = False
            continue
        bi = matched.bicrossed_product(mp)
        # adapted basis: g block then h block
        perm = ambient.permuted([n - 1] + list(range(n - 1)))
        if not bi.same_brackets(perm):
            canonical_roundtrips = False
        # f(g, x) = (g, -x) in the adapted (g first) basis
        diag = [field.one] + [-field.one] * (n - 1)
        blocks = Matrix(field, [[diag[r] if r == c else field.zero for c in range(n)] for r in range(n)])
        fmap = liecore.LinearMap(bi, bi, blocks)
        if not liecore.is_product_structure(bi, fmap):
            product_structures = False
        else:
            plus, minus = liecore.split_product_structure(bi, fmap)
            if plus.dim != 1 or minus.dim != n - 1:
                product_structures = False

    mpL = matched.canonical_pair_L(1, field)
    zero_map = deform.DeformationMap(mpL, Matrix.zeros(field, 1, 3))
    zero_ok = deform.r_deformation(mpL, zero_map).same_brackets(matched.make_l(1, field))
    return {
        "all_jacobi": all_jacobi,
        "canonical_roundtrips": canonical_roundtrips,
        "zero_deformation_identity": zero_ok,
        "product_structures": product_structures,
    }


_HANDLERS = {
    "classify_L_index": _h_classify_L,
    "classify_m_index": _h_classify_m,
    "defmaps_L": _h_defmaps_L,
    "defmaps_m": _h_defmaps_m,
    "h5_derivations": _h_h5_derivations,
    "h5_complements": _h_h5_complements,
    "twisted_closed_form": _h_twisted_closed_form,
    "sl2_sympathetic": _h_sl2_sympathetic,
    "aut_triple_group": _h_aut_triple_group,
    "solvable_selfdual": _h_solvable_selfdual,
    "roundtrip_suite": _h_roundtrip_suite,
}

import functools
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import boxed_reference as boxed
from liefact.errors import BudgetExceeded, FieldMismatch, InvalidTriple, NotPerfect
from liefact import exactmath
from liefact.exactmath import (
    Field,
    Matrix,
    Scalar,
    basis_vector,
    enumerate_vectors,
    zero_vector,
)
from boxed_reference import dot, is_zero_vector, vadd, vscale, vsub
from liefact import iso, liecore, matched, deform, scenarios
from liefact.derivations import TwistedDerivation, derivation_space
from liefact.iso import (
    AutTriple,
    _search_isomorphisms,
    are_isomorphic,
    aut_enumerate,
    aut_identity,
    aut_inverse,
    aut_multiply,
    aut_triple_valid,
    enumerate_aut_triples,
    fingerprint,
    gcheck_inner,
    is_valid_triple,
    phi_from_triple,
    semidirect_embed,
    semidirect_multiply,
    verify_iso,
)
from liefact.liecore import LieAlgebra, LinearMap
from liefact.matched import make_l, make_Lalpha, make_sl2

Q = Field.rationals()
F2 = Field.gf(2)
F3 = Field.gf(3)
F5 = Field.gf(5)
F7 = Field.gf(7)


def naive_isos(a, b):
    """All bracket-preserving invertible matrices, by full matrix scan."""
    out = []
    n = a.dim
    for flat in enumerate_vectors(a.field, n * n):
        m = Matrix(a.field, [flat[r * n : (r + 1) * n] for r in range(n)])
        if verify_iso(a, b, m):
            out.append(m)
    return out


def third_complement(field):
    return LieAlgebra.from_named_brackets(
        field, ("E", "F", "G"), {("F", "E"): [("F", 1)], ("E", "G"): [("G", -1)]}
    )


# -- fingerprints -----------------------------------------------------------------


def test_fingerprints_separate_and_match():
    l3 = make_l(1, F5)
    ab = LieAlgebra.abelian(F5, 3)
    assert fingerprint(l3) != fingerprint(ab)
    assert fingerprint(l3).derived == (3, 2, 0)
    assert fingerprint(ab).derived == (3, 0)

    two = F5.scalar(2)
    assert fingerprint(make_Lalpha(F5, two)) == fingerprint(make_Lalpha(F5, two.inverse()))


def test_fingerprint_invariant_under_basis_change():
    l3 = make_l(1, F5)
    samples = [
        Matrix(F5, [[1, 2, 0], [0, 1, 0], [3, 1, 1]]),
        Matrix(F5, [[2, 0, 1], [1, 1, 0], [0, 4, 1]]),
    ]
    for m in samples:
        assert m.is_invertible()
        assert fingerprint(l3.change_basis(m)) == fingerprint(l3)


# -- are_isomorphic ------------------------------------------------------------------


def test_l3_not_isomorphic_to_third_complement():
    # ad on the derived algebra has charpoly t^2 - 1 on l(3) and t^2 + 2t + 1
    # on the third complement: c_1 = 0 against c_1 = 2 needs no search
    for field, nodes in ((F5, 1225), (F7, 4753)):
        l3, third = make_l(1, field), third_complement(field)
        res = are_isomorphic(l3, third)
        assert (res.verdict, res.searched) == ("no", 0)
        minus_one = field.p - 1
        assert res.certificate == (
            f"ad(z) on the derived algebra has charpoly coefficients (0, {minus_one}) vs (2, 1), "
            "not related by c_i -> c^i c_i for any c != 0"
        )
        assert _search_isomorphisms(l3, third, 500000, False) == ([], nodes, True)


def test_yes_verdicts_carry_verified_witnesses():
    two = F7.scalar(2)
    res = are_isomorphic(make_Lalpha(F7, two), make_Lalpha(F7, two.inverse()))
    assert res.is_yes
    assert verify_iso(make_Lalpha(F7, two), make_Lalpha(F7, two.inverse()), res.witness)

    lp1 = deform.make_lp_b(F7, [1])
    res2 = are_isomorphic(lp1, make_l(1, F7))
    assert res2.is_yes and verify_iso(lp1, make_l(1, F7), res2.witness)


def test_algebras_over_different_fields_raise():
    # a "no" would certify nothing: the question needs one field
    with pytest.raises(FieldMismatch):
        are_isomorphic(make_l(1, F5), make_l(1, F7))


def test_immediate_negatives_and_unknown():
    assert are_isomorphic(make_l(1, F5), LieAlgebra.abelian(F5, 4)).verdict == "no"
    # over the rationals the charpoly of ad on the derived algebra answers no
    res = are_isomorphic(make_l(1, Q), third_complement(Q))
    assert (res.verdict, res.searched) == ("no", 0)
    assert res.certificate.startswith(
        "ad(z) on the derived algebra has charpoly coefficients (0, -1) vs (2, 1)"
    )
    # where it does not separate, the invariant factors decide over Q too,
    # and the "yes" carries a witness
    a, b = make_Lalpha(Q, 2), make_Lalpha(Q, Fraction(1, 2))
    res = are_isomorphic(a, b)
    assert (res.verdict, res.searched) == ("yes", 0) and verify_iso(a, b, res.witness)
    # equal fingerprints of algebras that are not almost abelian stay unknown over Q
    m4 = matched.make_m(1, Q)
    res = are_isomorphic(m4, _random_conjugate(m4, 0))
    assert liecore.almost_abelian(m4) is None
    assert (res.verdict, res.searched) == ("unknown", 0)
    assert res.certificate == "fingerprints agree; no complete search over an infinite field"
    # tiny budget maps to unknown with diagnostics, on a pair that is searched
    m4 = matched.make_m(1, F7)
    res = are_isomorphic(m4, _random_conjugate(m4, 0), budget=5)
    assert res.verdict == "unknown" and "budget" in res.certificate


def test_reflexive_symmetric_on_corpus():
    corpus = [make_l(1, F3), make_sl2(F3), LieAlgebra.abelian(F3, 3), make_Lalpha(F3, 2)]
    for alg in corpus:
        assert are_isomorphic(alg, alg).is_yes
    for a in corpus:
        for b in corpus:
            assert are_isomorphic(a, b).is_yes == are_isomorphic(b, a).is_yes


def test_lalpha_classification_exhaustive():
    for field in (F5, F7):
        algs = {v: make_Lalpha(field, v) for v in range(field.p)}
        for a in range(field.p):
            sa = field.scalar(a)
            for b in range(a, field.p):
                sb = field.scalar(b)
                expected = sb == sa or (bool(sa) and sb == sa.inverse())
                assert are_isomorphic(algs[a], algs[b]).is_yes == expected


def test_verify_iso_answers_false_for_a_map_over_another_field():
    l3 = make_l(1, F5)
    assert verify_iso(l3, l3, Matrix.identity(F5, 3))
    assert not verify_iso(l3, l3, Matrix.identity(F7, 3))
    l3_f7 = make_l(1, F7)
    assert not verify_iso(l3, l3, LinearMap(l3_f7, l3_f7, Matrix.identity(F7, 3)))
    assert not verify_iso(l3, l3_f7, Matrix.identity(F5, 3))


_MORPHISM_MAKERS = (
    make_sl2,
    lambda f: make_l(1, f),
    lambda f: matched.make_L(1, f),
    lambda f: LieAlgebra.abelian(f, 2),
    lambda f: deform.make_h_a(f, 3),
)


@functools.lru_cache(maxsize=None)
def _automorphisms(index, field):
    return aut_enumerate(_MORPHISM_MAKERS[index](field))


@st.composite
def maps_between_algebras(draw):
    """(domain, codomain, matrix, moved) over Q or GF(p).  The matrix is a
    change of basis, as a map from the conjugate algebra back to the algebra
    (on Lie algebras and on random structure constants); over GF(2) and
    GF(5) also an automorphism from aut_enumerate or an isomorphism the
    search found from a conjugate; as it is, or with one entry moved."""
    field = draw(st.sampled_from((Q, F2, F5, Field.gf(2**31 - 1))))
    if field is Q:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        entry = st.integers(0, field.p - 1) | st.just(field.p - 1)
    index = draw(st.sampled_from(range(len(_MORPHISM_MAKERS) + 1)))
    if index == len(_MORPHISM_MAKERS):
        dim = draw(st.integers(1, 4))
        vector = st.lists(entry, min_size=dim, max_size=dim)
        pairs = itertools.combinations(range(dim), 2)
        alg = LieAlgebra(field, [f"e{k}" for k in range(dim)], {p: draw(vector) for p in pairs})
    else:
        alg = _MORPHISM_MAKERS[index](field)
    n = alg.dim
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    rebase = Matrix(field, rows)
    assume(rebase.is_invertible())
    dom, cod, m = alg.change_basis(rebase), alg, rebase
    small = field in (F2, F5) and index < len(_MORPHISM_MAKERS)
    kind = draw(st.sampled_from(("rebased", "automorphism", "witness")))
    if small and kind == "automorphism" and (field is F2 or index in (0, 1, 3)):
        auts = _automorphisms(index, field)
        dom, m = alg, draw(st.sampled_from(auts)).matrix
    elif small and kind == "witness":
        found = _search_isomorphisms(dom, alg, 500, False)[0]
        if found:
            m = found[0]
    moved = draw(st.booleans())
    if moved:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows = [list(row) for row in m.rows]
        rows[i][j] = rows[i][j] + field.one
        m = Matrix(field, rows)
    return dom, cod, m, moved


@settings(max_examples=150, deadline=None)
@given(maps_between_algebras())
def test_raw_morphism_law_matches_the_boxed_reference(case):
    dom, cod, m, moved = case
    expected = boxed.is_lie_morphism(LinearMap(dom, cod, m))
    assert LinearMap(dom, cod, m).is_lie_morphism() == expected
    assert verify_iso(dom, cod, m) == (m.is_invertible() and expected)
    if not moved:
        assert expected


def test_verify_iso_examples():
    l3 = make_l(1, F7)
    assert verify_iso(l3, l3, Matrix.identity(F7, 3))
    assert not verify_iso(l3, l3, Matrix.zeros(F7, 3, 3))

    # the displayed three-generator presentation of the primed family at b = 1
    lp1_display = LieAlgebra.from_named_brackets(
        F7,
        ("f1", "f2", "f3"),
        {
            ("f1", "f2"): [("f1", -1)],
            ("f1", "f3"): [("f1", 1)],
            ("f3", "f2"): [("f2", 1), ("f3", 1)],
        },
    )
    witness = Matrix.from_cols(F7, [
        basis_vector(F7, 3, 0),                       # f1 -> E
        (F7.zero, F7.one, -F7.one),                   # f2 -> F - G
        basis_vector(F7, 3, 2),                       # f3 -> G
    ])
    assert verify_iso(lp1_display, l3, witness)

    # the cross-family map between the two nonzero m-pair deformations
    la = deform.make_lbar_a(F7, [1])
    lb = deform.make_lbarp_b(F7, [1])
    half = F7.scalar(2).inverse()
    a = b = F7.one
    gamma = Matrix.from_cols(F7, [
        (half * (b - a), half * (b - a + F7.scalar(2)), half * (a - b)),
        (F7.one, F7.zero, F7.zero),
        (half * (b - a + F7.scalar(4)), half * (b - a + F7.scalar(4)), half * (a - b - F7.scalar(2))),
    ])
    assert verify_iso(la, lb, gamma)


# -- completeness against the naive scan -----------------------------------------------


def test_backtracking_matches_naive_enumeration():
    pairs = [
        (make_l(1, F2), make_l(1, F2)),
        (make_l(1, F3), third_complement(F3)),
        (LieAlgebra.abelian(F3, 2), LieAlgebra.abelian(F3, 2)),
        (make_sl2(F3), make_sl2(F3)),
        (make_Lalpha(F3, 2), make_Lalpha(F3, 2)),
    ]
    for a, b in pairs:
        brute = naive_isos(a, b)
        res = are_isomorphic(a, b)
        assert res.is_yes == bool(brute)
        if a is b:
            assert {m for m in brute} == {w.matrix for w in aut_enumerate(a)}


def test_aut_counts():
    assert len(aut_enumerate(LieAlgebra.abelian(F3, 2))) == 48
    l3 = make_l(1, F3)
    assert len(aut_enumerate(l3)) == len(naive_isos(l3, l3))
    with pytest.raises(BudgetExceeded):
        aut_enumerate(make_sl2(F3), budget=3)


def test_aut_triples_budget_counts_each_h0_fiber():
    # 4 units x 480 automorphisms x 25 points: 48,000 triples, but the
    # automorphism search alone stays inside a budget of 1000
    ab2 = LieAlgebra.abelian(F5, 2)
    delta = Matrix.zeros(F5, 2, 2)
    assert len(aut_enumerate(ab2, budget=1000)) == 480
    with pytest.raises(BudgetExceeded) as err:
        enumerate_aut_triples(ab2, delta, budget=1000)
    assert err.value.required == 1025
    message = str(err.value)
    assert "alpha=1" in message and "automorphism 40 of 480" in message
    assert "25 points" in message
    assert len(enumerate_aut_triples(ab2, delta, budget=48000)) == 48000


# -- morphism triples -----------------------------------------------------------------


def test_phi_from_triple_identity_and_sympathetic():
    sl2 = make_sl2(F5)
    d = basis_vector(F5, 3, 2)
    delta = sl2.ad(d)
    ident = LinearMap(sl2, sl2, Matrix.identity(F5, 3))

    phi = phi_from_triple(sl2, delta, delta, F5.one, zero_vector(F5, 3), ident)
    assert phi.matrix == Matrix.identity(F5, 4)
    assert phi.is_lie_morphism()

    # (1, -d, id) trivializes the inner-twisted extension
    zero = Matrix.zeros(F5, 3, 3)
    assert is_valid_triple(sl2, delta, zero, F5.one, vscale(-F5.one, d), ident)
    phi2 = phi_from_triple(sl2, delta, zero, F5.one, vscale(-F5.one, d), ident)
    assert phi2.is_lie_morphism() and phi2.is_invertible()
    assert verify_iso(phi2.domain, phi2.codomain, phi2.matrix)

    # alpha = 0 still gives a morphism, but not an isomorphism
    assert is_valid_triple(sl2, zero, zero, F5.zero, zero_vector(F5, 3), ident)
    phi3 = phi_from_triple(sl2, zero, zero, F5.zero, zero_vector(F5, 3), ident)
    assert phi3.is_lie_morphism() and not phi3.is_invertible()

    with pytest.raises(NotPerfect):
        phi_from_triple(make_l(1, F5), zero, zero, F5.one, zero_vector(F5, 3),
                        LinearMap(make_l(1, F5), make_l(1, F5), Matrix.identity(F5, 3)))


def test_triple_validity_iff_lie_morphism_gf3():
    """Over GF(3), sampled v maps: the intertwining relation holds exactly
    when the assembled extension map preserves brackets."""
    sl2 = make_sl2(F3)
    delta = sl2.ad(basis_vector(F3, 3, 0))
    dom = matched.h_lambda_delta(sl2, TwistedDerivation(zero_vector(F3, 3), delta))
    cod = matched.h_lambda_delta(sl2, TwistedDerivation(zero_vector(F3, 3), delta))
    vs = [w.matrix for w in aut_enumerate(sl2)[:6]]
    vs.append(Matrix.zeros(F3, 3, 3))
    vs.append(Matrix(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))  # not a Lie map
    for vm in vs:
        v = LinearMap(sl2, sl2, vm)
        for alpha in range(3):
            al = F3.scalar(alpha)
            for h0 in enumerate_vectors(F3, 3):
                cols = [(al,) + tuple(h0)]
                for i in range(3):
                    cols.append((F3.zero,) + tuple(vm.col(i)))
                phi = LinearMap(dom, cod, Matrix.from_cols(F3, cols))
                valid = v.is_lie_morphism() and is_valid_triple(sl2, delta, delta, al, h0, v)
                assert valid == phi.is_lie_morphism()


def test_aut_triple_group_operations():
    sl2 = make_sl2(F3)
    delta = sl2.ad(basis_vector(F3, 3, 0))
    triples = enumerate_aut_triples(sl2, delta)
    assert triples, "the identity triple at least"
    ident = aut_identity(sl2)

    def same(t1, t2):
        return t1.alpha == t2.alpha and t1.h0 == t2.h0 and t1.v.matrix == t2.v.matrix

    t = triples[3 % len(triples)]
    assert same(aut_multiply(ident, t), t)
    assert same(aut_multiply(t, ident), t)
    assert same(aut_multiply(t, aut_inverse(t)), ident)

    # (alpha, 0, id) inverts to (alpha^-1, 0, id)
    two = F3.scalar(2)
    scale = AutTriple(two, zero_vector(F3, 3), ident.v)
    inv = aut_inverse(scale)
    assert inv.alpha == two.inverse() and not any(inv.h0)

    # closure and associativity on a deterministic sample
    sample = triples[:8]
    for t1 in sample:
        for t2 in sample:
            prod = aut_multiply(t1, t2)
            assert aut_triple_valid(sl2, delta, prod)
            for t3 in sample[:4]:
                assert same(
                    aut_multiply(prod, t3), aut_multiply(t1, aut_multiply(t2, t3))
                )

    with pytest.raises(InvalidTriple):
        aut_multiply(AutTriple(F3.zero, zero_vector(F3, 3), ident.v), ident)


# -- the group law against the boxed reference ------------------------------------


def boxed_multiply(t1: AutTriple, t2: AutTriple) -> AutTriple:
    """(alpha,h,v)*(beta,g,w) = (alpha*beta, beta*h + v(g), v∘w) on Scalars."""
    h0 = vadd(vscale(t2.alpha, t1.h0), t1.v.matrix.mul_vector(t2.h0))
    return AutTriple(t1.alpha * t2.alpha, h0, t1.v.compose(t2.v))


def boxed_inverse(t: AutTriple) -> AutTriple:
    ainv = t.alpha.inverse()
    vinv = t.v.inverse()
    return AutTriple(ainv, vscale(-ainv, vinv.matrix.mul_vector(t.h0)), vinv)


def _boxed_parts(t: AutTriple) -> tuple:
    field = t.v.domain.field
    assert type(t.alpha) is Scalar and t.alpha.field is field
    assert all(type(x) is Scalar and x.field is field for x in t.h0)
    return t.alpha, t.h0, t.v.matrix


def _sl2_triples():
    sl2 = make_sl2(F3)
    return sl2, enumerate_aut_triples(sl2, sl2.ad(basis_vector(F3, 3, 0)))


def test_group_law_matches_the_boxed_reference_over_gf3():
    _, triples = _sl2_triples()
    assert len(triples) == 48
    for t1 in triples:
        for t2 in triples:
            assert _boxed_parts(aut_multiply(t1, t2)) == _boxed_parts(boxed_multiply(t1, t2))
        assert _boxed_parts(aut_inverse(t1)) == _boxed_parts(boxed_inverse(t1))


def test_group_law_matches_the_boxed_reference_over_q():
    # v = diag(c, 1/c, 1) is the automorphism e -> ce, f -> f/c, h -> h of sl2
    sl2 = make_sl2(Q)
    rng = random.Random(15)

    def triple():
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        v = Matrix(Q, [[c, 0, 0], [0, 1 / c, 0], [0, 0, 1]])
        alpha = Q.scalar(Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)))
        h0 = tuple(Q.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(3))
        return AutTriple(alpha, h0, LinearMap(sl2, sl2, v))

    triples = [triple() for _ in range(12)]
    for t1 in triples:
        for t2 in triples:
            assert _boxed_parts(aut_multiply(t1, t2)) == _boxed_parts(boxed_multiply(t1, t2))
        assert _boxed_parts(aut_inverse(t1)) == _boxed_parts(boxed_inverse(t1))


def test_malformed_operands_are_rejected_or_coerced():
    ident = aut_identity(make_sl2(F3))
    one, two = F3.one, F3.scalar(2)
    with pytest.raises(InvalidTriple):
        aut_multiply(AutTriple(one, (one,), ident.v), ident)
    with pytest.raises(InvalidTriple):
        aut_multiply(ident, AutTriple(one, (one, one), ident.v))
    with pytest.raises(InvalidTriple):
        aut_inverse(AutTriple(one, (), ident.v))
    # 3 is zero in GF(3), so it is not a unit
    for zero_alpha in (3, F3.zero):
        with pytest.raises(InvalidTriple):
            aut_multiply(AutTriple(zero_alpha, ident.h0, ident.v), ident)
        with pytest.raises(InvalidTriple):
            aut_multiply(ident, AutTriple(zero_alpha, ident.h0, ident.v))
        with pytest.raises(InvalidTriple):
            aut_inverse(AutTriple(zero_alpha, ident.h0, ident.v))
    # int entries are coerced into GF(3) exactly, never passed on unreduced
    five = AutTriple(5, (4, 0, -1), ident.v)
    h = (one, F3.zero, two)
    assert _boxed_parts(aut_multiply(five, five)) == (one, ident.h0, ident.v.matrix)
    assert _boxed_parts(aut_inverse(five)) == (two, h, ident.v.matrix)
    boxed = AutTriple(two, h, ident.v)
    assert _boxed_parts(aut_multiply(five, ident)) == _boxed_parts(boxed)
    assert _boxed_parts(aut_multiply(ident, five)) == _boxed_parts(boxed)


def _count_eliminations(monkeypatch) -> list:
    """Every residue row reduction from here on, as (rows, ncols)."""
    calls = []
    kernel = exactmath._residue_rref

    def counting(rows, ncols, p):
        calls.append((tuple(map(tuple, rows)), ncols))
        return kernel(rows, ncols, p)

    monkeypatch.setattr(exactmath, "_residue_rref", counting)
    return calls


def test_products_of_checked_triples_run_no_elimination(monkeypatch):
    sl2 = make_sl2(F3)
    delta = sl2.ad(basis_vector(F3, 3, 0))
    calls = _count_eliminations(monkeypatch)
    triples = enumerate_aut_triples(sl2, delta)
    # verify_iso row-reduces each of the 24 automorphisms once, at its leaf,
    # and the result is kept on its matrix; each serves the two units alpha
    auts = {t.v.matrix.raw for t in triples}
    assert len(auts) == len({id(t.v.matrix) for t in triples}) == 24
    assert sorted(rows for rows, _ in calls if rows in auts) == sorted(auts)
    calls.clear()
    # so membership eliminates nothing, and neither do products
    assert all(aut_triple_valid(sl2, delta, t) for t in triples)
    for i, t2 in enumerate(triples):
        for j, t3 in enumerate(triples):
            t1 = triples[(i + j) % 48]
            aut_multiply(t1, aut_multiply(t2, t3))
    assert calls == []
    # computing an inverse eliminates [v | I] once
    for t in triples:
        ident = aut_multiply(t, aut_inverse(t))
        assert _boxed_parts(ident) == _boxed_parts(aut_identity(sl2))
    assert [ncols for _, ncols in calls] == [6] * 48


def test_membership_and_embedding_coerce_alpha_as_the_group_law_does():
    sl2 = make_sl2(F3)
    e = basis_vector(F3, 3, 0)
    delta = sl2.ad(e)
    ident = aut_identity(sl2)
    minus_e = vscale(-F3.one, e)
    # 3 is zero in GF(3): no unit, as an int or as a field element
    for zero_alpha in (3, F3.zero):
        assert not aut_triple_valid(sl2, delta, AutTriple(zero_alpha, minus_e, ident.v))
        with pytest.raises(InvalidTriple):
            semidirect_embed(AutTriple(zero_alpha, ident.h0, ident.v))
    # an int unit is its residue
    for alpha in (1, 2, 4, 5):
        unit = F3.scalar(alpha)
        assert aut_triple_valid(sl2, delta, AutTriple(alpha, minus_e, ident.v)) == aut_triple_valid(
            sl2, delta, AutTriple(unit, minus_e, ident.v)
        )
        embedded = semidirect_embed(AutTriple(alpha, minus_e, ident.v))
        assert embedded == semidirect_embed(AutTriple(unit, minus_e, ident.v))
        assert embedded.alpha == unit and embedded.translation == vscale(unit.inverse(), minus_e)


def test_semidirect_embedding():
    sl2 = make_sl2(F3)
    delta = sl2.ad(basis_vector(F3, 3, 0))
    triples = enumerate_aut_triples(sl2, delta)
    images = set()
    for t in triples:
        s = semidirect_embed(t)
        images.add((s.translation, s.alpha, s.v.matrix))
    assert len(images) == len(triples)
    sample = triples[:10]
    for t1 in sample:
        for t2 in sample:
            lhs = semidirect_embed(aut_multiply(t1, t2))
            rhs = semidirect_multiply(semidirect_embed(t1), semidirect_embed(t2))
            assert (lhs.translation, lhs.alpha, lhs.v.matrix) == (
                rhs.translation,
                rhs.alpha,
                rhs.v.matrix,
            )


def test_raw_relation_and_semidirect_product_match_the_boxed_reference():
    sl2, triples = _sl2_triples()
    delta = sl2.ad(basis_vector(F3, 3, 0))
    vs = list({id(t.v.matrix): t.v.matrix for t in triples}.values())
    assert len(vs) == 24
    vs += [Matrix.zeros(F3, 3, 3), Matrix(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])]
    for vm in vs:
        for alpha in F3.elements():
            for h0 in enumerate_vectors(F3, 3):
                raw_h0 = tuple(x.value for x in h0)
                assert iso._relation_defect(sl2, delta, delta, alpha.value, raw_h0, vm) == (
                    boxed.relation_defect(sl2, delta, delta, alpha, h0, vm)
                )
    # over Q: v = diag(c, 1/c, 1) gives v∘ad(e) = c ad(e)∘v, so the relation
    # holds exactly when h0 = (alpha - c) e
    sl2q = make_sl2(Q)
    deltaq = sl2q.ad(basis_vector(Q, 3, 0))
    for c in (Fraction(2), Fraction(-1, 3)):
        v = Matrix(Q, [[c, 0, 0], [0, 1 / c, 0], [0, 0, 1]])
        for alpha in (Fraction(1), c, Fraction(5, 7)):
            for h0 in ((alpha - c, 0, 0), (alpha - c, 1, 0), (0, 0, Fraction(1, 2))):
                boxed_h0 = tuple(map(Q.scalar, h0))
                holds = boxed.relation_defect(sl2q, deltaq, deltaq, Q.scalar(alpha), boxed_h0, v)
                assert holds == (h0 == (alpha - c, 0, 0))
                raw_h0 = tuple(map(Fraction, h0))
                assert iso._relation_defect(sl2q, deltaq, deltaq, alpha, raw_h0, v) == holds
    embedded = [semidirect_embed(t) for t in triples]
    for s1 in embedded:
        for s2 in embedded:
            got, want = semidirect_multiply(s1, s2), boxed.semidirect_multiply(s1, s2)
            assert (got.translation, got.alpha, got.v.matrix) == (
                want.translation,
                want.alpha,
                want.v.matrix,
            )
            assert all(type(x) is Scalar for x in got.translation)


def test_inner_predicate_is_membership():
    sl2 = make_sl2(F3)
    e = basis_vector(F3, 3, 0)
    delta = sl2.ad(e)
    predicate = gcheck_inner(sl2, e)
    ident = aut_identity(sl2)
    minus_e = vscale(-F3.one, e)
    singular = LinearMap(sl2, sl2, Matrix.zeros(F3, 3, 3))
    # each fails the operand check, though v(e) - alpha*e + h0 is 0, in the
    # center, wherever it is defined
    for t in (
        AutTriple(0, minus_e, ident.v),
        AutTriple(F3.zero, minus_e, ident.v),
        AutTriple(F3.one, minus_e[:2], ident.v),
        AutTriple(F3.one, e, singular),
    ):
        assert not aut_triple_valid(sl2, delta, t)
        assert not predicate(t)
    _, triples = _sl2_triples()
    assert all(predicate(t) and aut_triple_valid(sl2, delta, t) for t in triples)
    # for v an automorphism the predicate is exactly the defining relation:
    # every unit alpha, automorphism v and h0 over GF(3), 48 of them members
    members = 0
    for alpha in (F3.one, F3.scalar(2)):
        for v in aut_enumerate(sl2):
            for h0 in enumerate_vectors(F3, 3):
                t = AutTriple(alpha, h0, v)
                valid = aut_triple_valid(sl2, delta, t)
                assert predicate(t) == valid
                members += valid
    assert members == 48


def test_a_triple_over_another_algebra_is_no_member():
    sl2 = make_sl2(F3)
    delta = sl2.ad(basis_vector(F3, 3, 0))

    def triple(dom, cod, c):
        f, n = dom.field, dom.dim
        return AutTriple(f.one, zero_vector(f, n), LinearMap(dom, cod, Matrix.identity(f, n) * f.scalar(c)))

    # 2I is a Lie map of abelian k^3 but no automorphism of sl2, as
    # [2x, 2y] = [x, y]; sl2 over GF(5) and L(4) over GF(3) differ from
    # sl2 over GF(3) in field and in dimension
    abelian = LieAlgebra.abelian(F3, 3)
    sl2_f5, l4 = make_sl2(F5), matched.make_L(1, F3)
    for t in (triple(abelian, abelian, 2), triple(sl2_f5, sl2_f5, 1), triple(l4, l4, 1),
              triple(sl2, abelian, 1), triple(sl2, sl2, 2)):
        assert not aut_triple_valid(sl2, delta, t)
    # an equal copy of sl2 is the same algebra
    copy = make_sl2(F3)
    assert copy is not sl2 and aut_triple_valid(sl2, delta, triple(copy, copy, 1))


# -- each triple is checked once ----------------------------------------------------


def _kept_is_boxed(t: AutTriple) -> bool:
    """The kept raw (alpha, h0) is the boxed fields' values, and what a fresh
    check of the same fields computes."""
    field = t.v.domain.field
    fresh = AutTriple(t.alpha, t.h0, t.v)
    return t._checked == (t.alpha.value, tuple(x.value for x in t.h0)) == (
        iso._check_operand(fresh, field, t.v.domain.dim)
    )


def test_a_failing_triple_raises_on_every_use():
    ident = aut_identity(make_sl2(F3))
    singular = LinearMap(ident.v.domain, ident.v.domain, Matrix.zeros(F3, 3, 3))
    for bad in (
        AutTriple(F3.zero, ident.h0, ident.v),
        AutTriple(3, ident.h0, ident.v),
        AutTriple(F3.one, ident.h0[:2], ident.v),
        AutTriple(F3.one, ident.h0, singular),
    ):
        for _ in range(2):
            with pytest.raises(InvalidTriple):
                aut_multiply(bad, ident)
            with pytest.raises(InvalidTriple):
                aut_multiply(ident, bad)
            with pytest.raises(InvalidTriple):
                aut_inverse(bad)
            with pytest.raises(InvalidTriple):
                semidirect_embed(bad)
        assert bad._checked is None


def test_products_and_inverses_are_born_checked():
    _, triples = _sl2_triples()
    for t1 in triples[:12]:
        assert _kept_is_boxed(aut_inverse(t1))
        for t2 in triples:
            prod = aut_multiply(t1, t2)
            assert _kept_is_boxed(prod)
            assert prod == AutTriple(prod.alpha, prod.h0, prod.v)
            assert hash(prod) == hash(AutTriple(prod.alpha, prod.h0, prod.v))
            assert "_checked" not in repr(prod)
            # boxed from the field's table, v as the checked constructor builds it
            assert all(x is F3._table[x.value] for x in (prod.alpha,) + prod.h0)
            assert prod.v == LinearMap(t1.v.domain, t2.v.codomain, t1.v.matrix * t2.v.matrix)


def test_int_entries_are_coerced_once(monkeypatch):
    ident = aut_identity(make_sl2(F3))
    aut_multiply(ident, ident)
    five = AutTriple(5, (4, 0, -1), ident.v)
    coerced = []
    coerce = Field._raw

    def counting(field, value):
        coerced.append(value)
        return coerce(field, value)

    monkeypatch.setattr(Field, "_raw", counting)
    first = aut_multiply(five, ident)
    assert coerced == [5, 4, 0, -1]
    assert five._checked == (2, (1, 0, 2))
    coerced.clear()
    for _ in range(3):
        assert _boxed_parts(aut_multiply(five, ident)) == _boxed_parts(first)
        aut_multiply(ident, five)
        aut_multiply(first, five)
    assert coerced == []


def test_an_h0_list_is_read_on_every_use():
    ident = aut_identity(make_sl2(F3))
    h0 = [1, 0, 0]
    t = AutTriple(1, h0, ident.v)
    assert _boxed_parts(aut_multiply(t, ident))[1] == (F3.one, F3.zero, F3.zero)
    h0[0] = 2
    assert _boxed_parts(aut_multiply(t, ident))[1] == (F3.scalar(2), F3.zero, F3.zero)
    assert t._checked is None


@st.composite
def _triples_over_one_algebra(draw):
    """Three triples (alpha, h0, v) over an abelian algebra of dimension 1 to
    3, over Q or GF(p); v = P L U with L lower triangular with a unit
    diagonal, U upper unitriangular and P a row permutation, so invertible."""
    field = draw(st.sampled_from((Q, F2, F3, F5, F7)))
    n = draw(st.integers(1, 3))
    if field is Q:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        entry = st.integers(0, field.p - 1)
    unit = entry.filter(bool)
    alg = LieAlgebra.abelian(field, n)

    def triple():
        low = Matrix(field, [[draw(unit) if r == c else draw(entry) if c < r else 0
                              for c in range(n)] for r in range(n)])
        up = Matrix(field, [[1 if r == c else draw(entry) if c > r else 0
                             for c in range(n)] for r in range(n)])
        perm = draw(st.permutations(range(n)))
        lu = (low * up).raw
        v = Matrix(field, [lu[r] for r in perm])
        h0 = tuple(field.scalar(draw(entry)) for _ in range(n))
        return AutTriple(field.scalar(draw(unit)), h0, LinearMap(alg, alg, v))

    return triple(), triple(), triple()


@settings(max_examples=80, deadline=None)
@given(_triples_over_one_algebra())
def test_products_of_products_and_inverses_match_the_boxed_reference(triples):
    t1, t2, t3 = triples
    raw = aut_multiply(aut_multiply(t1, aut_inverse(t2)), aut_multiply(t3, t1))
    ref = boxed_multiply(boxed_multiply(t1, boxed_inverse(t2)), boxed_multiply(t3, t1))
    assert _boxed_parts(raw) == _boxed_parts(ref)
    assert _kept_is_boxed(raw)
    # the inverse of a product, and a product of inverses, as operands
    back = aut_multiply(aut_inverse(raw), aut_multiply(raw, aut_inverse(t3)))
    assert _boxed_parts(back) == _boxed_parts(
        boxed_multiply(boxed_inverse(ref), boxed_multiply(ref, boxed_inverse(t3)))
    )
    assert _boxed_parts(back) == _boxed_parts(aut_inverse(t3))


def test_search_verdicts_consistent_with_ratio_invariant():
    """The classes of classify_complements agree with the charpoly of ad on
    the derived algebra, up to c_i -> c^i c_i, on the 3-dim deformations with
    a 2-dim abelian derived ideal, where it is the projective (trace^2, det)
    ratio; every "yes" behind the classes carries a verified witness."""
    from liefact.deform import classify_complements, enumerate_deformation_maps, r_deformation
    from liefact.matched import canonical_pair_m

    mp = canonical_pair_m(1, F7)
    algs = [r_deformation(mp, d) for d in enumerate_deformation_maps(mp)]
    report = classify_complements(mp)
    labels = []
    for alg in algs:
        hit = None
        for idx, rep in enumerate(report.representatives):
            if are_isomorphic(alg, rep).is_yes:
                hit = idx
                break
        assert hit is not None
        labels.append(hit)
    for i in range(len(algs)):
        for j in range(i + 1, len(algs)):
            form_i = liecore.almost_abelian(algs[i])
            form_j = liecore.almost_abelian(algs[j])
            if form_i is None or form_j is None:
                continue
            same_class = labels[i] == labels[j]
            equal_invariant = bool(iso._scalings(F7, form_i.charpoly, form_j.charpoly))
            assert same_class == equal_invariant


@pytest.mark.parametrize("field", (F3, F5, F7), ids=("GF3", "GF5", "GF7"))
@pytest.mark.parametrize("pair", ("L", "m"))
def test_charpoly_separates_exactly_the_pairs_the_search_exhausts(pair, field):
    """The complete search is the oracle of the almost abelian test.  On
    every (deformation, representative) pair of the n = 1 canonical pair,
    are_isomorphic gives the search's verdict, its every "yes" is verified,
    and on fingerprint-equal pairs the charpolys are related by no
    c_i -> c^i c_i exactly when the search finds no isomorphism (on these
    2 x 2 blocks the charpoly up to scaling is the whole invariant).

    Each deformation is searched against every class representative with
    its fingerprint: it finds a verified witness to exactly one of them, and
    every other search exhausts.  Isomorphism is an equivalence relation, so
    two deformations are isomorphic iff they reach the same representative:
    an isomorphism from one to the other would compose with the second's
    witness into one to a representative whose search exhausted.  The
    classes this gives are classify_complements', in order.  (Searching
    every pair directly gives the same verdicts, at about 40 s, 37 s of it on
    L over GF(7).)"""
    mp = (matched.canonical_pair_L if pair == "L" else matched.canonical_pair_m)(1, field)
    algs = [deform.r_deformation(mp, d) for d in deform.enumerate_deformation_maps(mp)]
    form = liecore.almost_abelian

    def separated(a, b):
        return form(a) is not None and not iso._scalings(field, form(a).charpoly, form(b).charpoly)

    reps, labels = [], []
    for alg in algs:
        found = []
        for k, rep in enumerate(reps):
            res = are_isomorphic(alg, rep)
            assert res.searched == 0 or form(alg) is None
            if fingerprint(alg) != fingerprint(rep):
                assert res.verdict == "no"
                continue
            witnesses, _, exhausted = _search_isomorphisms(alg, rep, 500000, False)
            if witnesses:
                assert verify_iso(alg, rep, witnesses[0]) and not separated(alg, rep)
                assert res.is_yes and verify_iso(alg, rep, res.witness)
                found.append(k)
            else:
                assert exhausted and separated(alg, rep)
                assert res.verdict == "no"
        assert len(found) <= 1
        if not found:
            found.append(len(reps))
            reps.append(alg)
        labels.append(found[0])
    for i, j in itertools.combinations(range(len(algs)), 2):
        if fingerprint(algs[i]) == fingerprint(algs[j]):
            assert separated(algs[i], algs[j]) == (labels[i] != labels[j])
    report = deform.classify_complements(mp)
    assert report.class_sizes == [labels.count(k) for k in range(len(reps))]
    assert [r.same_brackets(s) for r, s in zip(report.representatives, reps)] == [True] * len(reps)


def test_conjugated_algebras_found_isomorphic():
    p5 = Matrix(F5, [[1, 2, 0, 0, 1], [0, 1, 0, 3, 0], [0, 0, 1, 0, 2], [1, 0, 0, 1, 0], [0, 0, 2, 0, 1]])
    l5 = make_l(2, F5)
    res = are_isomorphic(l5, l5.change_basis(p5))
    assert res.is_yes and verify_iso(l5, l5.change_basis(p5), res.witness)

    p7 = Matrix(F7, [[1, 2, 0, 0, 1], [0, 1, 0, 3, 0], [0, 0, 1, 0, 2], [1, 0, 0, 2, 0], [0, 0, 2, 0, 1]])
    h5 = matched.make_h5(F7)
    res = are_isomorphic(h5, h5.change_basis(p7))
    assert res.is_yes


def test_sympathetic_direct_product_aut_count():
    # Aut(k0 x sl2) factors as units times Aut(sl2): counts match over GF(3)
    sl2 = make_sl2(F3)
    prod = liecore.direct_product(LieAlgebra.abelian(F3, 1, ("W",)), sl2)
    assert len(aut_enumerate(prod)) == (F3.p - 1) * len(aut_enumerate(sl2))


def test_inner_twist_triples_have_determined_translation():
    # with trivial center, h0 = alpha*x0 - v(x0) is forced for every triple
    sl2 = make_sl2(F3)
    x0 = basis_vector(F3, 3, 0)
    for t in enumerate_aut_triples(sl2, sl2.ad(x0)):
        expected = tuple(
            a - b for a, b in zip(vscale(t.alpha, x0), t.v.matrix.mul_vector(x0))
        )
        assert t.h0 == expected


def test_solver_lists_exactly_the_triples_the_membership_check_accepts():
    # the center of sl2 x k has dimension 1, so each h0-fibre has 3 points;
    # the solver and the check read one system, and a brute force over
    # every (alpha, h0, v) ties the two together
    h = liecore.direct_product(make_sl2(F3), LieAlgebra.abelian(F3, 1, ("z",)))
    delta = h.ad(basis_vector(F3, 4, 1))
    key = lambda t: (t.alpha, t.h0, t.v.matrix)
    triples = enumerate_aut_triples(h, delta)
    solved = {key(t) for t in triples}
    units = list(F3.elements())[1:]
    members = {
        key(t)
        for alpha in units
        for v in aut_enumerate(h)
        for h0 in enumerate_vectors(F3, 4)
        for t in (AutTriple(alpha, h0, v),)
        if aut_triple_valid(h, delta, t)
    }
    assert len(triples) == len(solved) == 288
    assert solved == members


def test_only_the_extension_correspondence_needs_a_perfect_base():
    # sl2 x k is not perfect ([L, L] = sl2): the relation and its group are
    # defined, but reading a triple as an automorphism of the extension is not
    h = liecore.direct_product(make_sl2(F3), LieAlgebra.abelian(F3, 1, ("z",)))
    delta = h.ad(basis_vector(F3, 4, 1))
    assert not liecore.is_perfect(h)
    t = enumerate_aut_triples(h, delta)[0]
    assert aut_triple_valid(h, delta, t)
    with pytest.raises(NotPerfect):
        is_valid_triple(h, delta, delta, t.alpha, t.h0, t.v)
    with pytest.raises(NotPerfect):
        phi_from_triple(h, delta, delta, t.alpha, t.h0, t.v)


def test_gcheck_inner_predicate():
    sl2 = make_sl2(F3)
    x0 = basis_vector(F3, 3, 0)
    delta = sl2.ad(x0)
    pred = gcheck_inner(sl2, x0)
    triples = enumerate_aut_triples(sl2, delta)
    for t in triples:
        assert pred(t)
    # perturbing h0 off the solution leaves the predicate
    t = triples[0]
    shifted = AutTriple(t.alpha, tuple(vscale(F3.one, vadd_(t.h0, x0))), t.v)
    assert pred(shifted) == aut_triple_valid(sl2, delta, shifted)
    # with trivial center the count is |units| * |Aut|
    assert len(triples) == (F3.p - 1) * len(aut_enumerate(sl2))


def vadd_(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _random_conjugate(alg, seed):
    """alg in the basis of the first invertible matrix drawn from the seed,
    with entries in [0, p) over GF(p) and in [-2, 2] over Q."""
    rnd = random.Random(seed)
    n = alg.dim
    low, high = (0, alg.field.p) if alg.field.is_finite else (-2, 3)
    while True:
        m = Matrix(alg.field, [[rnd.randrange(low, high) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return alg.change_basis(m)


def test_search_tree_is_unchanged():
    # node counts and automorphism counts recorded from the search before
    # its closed-pair recheck was removed: the linear constraints already
    # enforce every pair that an assignment closes, so the same nodes are
    # expanded in the same order.  are_isomorphic decides the almost abelian
    # pairs from their kept forms, and the abelian deformation against the
    # abelian representative by its frame, all with 0 nodes, so their counts
    # are pinned on the search itself.  On the 28 pairs the charpoly
    # decides, the search exhausts after the recorded 1,225
    mp = matched.canonical_pair_L(1, F5)
    reps = deform.classify_complements(mp).representatives
    a_row = (("yes", 0), ("no", 0), ("no", 0))
    b_row = (("no", 0), ("yes", 0), ("no", 0))
    c_row = (("no", 0), ("no", 0), ("yes", 0))
    rows, nodes, exhausted = [], [], []
    for d in deform.enumerate_deformation_maps(mp):
        alg = deform.r_deformation(mp, d)
        results = [are_isomorphic(alg, rep) for rep in reps]
        rows.append(tuple((r.verdict, r.searched) for r in results))
        for rep, r in zip(reps, results):
            if r.is_yes:
                assert verify_iso(alg, rep, r.witness)
                nodes.append(_search_isomorphisms(alg, rep, 500000, False)[1])
            elif r.certificate.startswith("ad(z) on the derived algebra"):
                exhausted.append(_search_isomorphisms(alg, rep, 500000, False))
    assert rows == [a_row, b_row] + [a_row] * 23 + [c_row] * 4
    assert nodes == [5, 34] + [5] * 23 + [9] * 4
    assert exhausted == [([], 1225, True)] * 28

    for alg, searched in ((make_sl2(F5), 9), (matched.make_h5(F5), 16)):
        res = are_isomorphic(alg, _random_conjugate(alg, 2))
        assert (res.verdict, res.searched) == ("yes", searched)
    L4 = matched.make_L(1, F5)
    conjugate = _random_conjugate(L4, 2)
    assert _search_isomorphisms(L4, conjugate, 500000, False)[1:] == (16286, True)
    res = are_isomorphic(L4, conjugate)
    assert (res.verdict, res.searched) == ("yes", 0) and verify_iso(L4, conjugate, res.witness)

    assert len(aut_enumerate(make_sl2(F3))) == 24
    # aut_enumerate is this search plus a sort; L(4) over GF(5) has 240,000
    # automorphisms, too many for a unit test, so L(4) runs over GF(3)
    for alg, count, nodes in ((make_sl2(F3), 24, 75), (matched.make_L(1, F3), 2592, 6615)):
        witnesses, searched, exhausted = _search_isomorphisms(alg, alg, 500000, find_all=True)
        assert (len(witnesses), searched, exhausted) == (count, nodes, True)


def test_aut_enumerate_budget_error_names_the_algebra():
    alg = matched.make_L(1, F3)
    with pytest.raises(BudgetExceeded) as err:
        aut_enumerate(alg, budget=10)
    message = str(err.value)
    assert "budget 10 after" in message
    assert "4-dimensional" in message and "E, F, G, H" in message
    assert str(fingerprint(alg).as_tuple()) in message


# -- the raw search against the boxed reference search ---------------------------


def _reference_image_domains(a, b):
    f = a.field
    n = a.dim
    pairs = list(zip(liecore.derived_series(a), liecore.derived_series(b)))
    pairs += list(zip(liecore.lower_central_series(a), liecore.lower_central_series(b)))
    pairs.append((liecore.center(a), liecore.center(b)))
    full = [basis_vector(f, b.dim, i) for i in range(b.dim)]
    domains = []
    for i in range(n):
        ei = basis_vector(f, n, i)
        dom = full
        for s1, s2 in pairs:
            if s1.dim < a.dim and boxed.coordinates(s1.basis, ei) is not None:
                dom = boxed.intersect_spans(f, dom, list(s2.basis), b.dim)
        domains.append(dom)
    return domains


class _ReferenceReducer:
    """Incremental independence tracking for the assigned image vectors."""

    def __init__(self):
        self.rows = []  # (pivot, reduced row)

    def reduce(self, v) -> tuple:
        r = list(v)
        for pivot, row in self.rows:
            if r[pivot]:
                c = r[pivot]
                r = [x - c * y for x, y in zip(r, row)]
        return tuple(r)

    def push(self, v) -> bool:
        r = self.reduce(v)
        if is_zero_vector(r):
            return False
        pivot = next(k for k, x in enumerate(r) if x)
        inv = r[pivot].inverse()
        self.rows.append((pivot, tuple(inv * x for x in r)))
        return True

    def pop(self):
        self.rows.pop()


def _lex_vectors(field, length):
    """enumerate_vectors' vectors in its order, lazily, written out here so
    that the reference search shares no enumeration code with the search
    it checks."""
    if not length:
        yield ()
        return
    for x in field.elements():
        for rest in _lex_vectors(field, length - 1):
            yield (x,) + rest


def _reference_affine(field, particular, basis):
    """enumerate_affine's points in its order, lazily."""
    for coeffs in _lex_vectors(field, len(basis)):
        yield boxed.lincomb(coeffs, basis, particular)


class _ReferenceBudgetHit(Exception):
    pass


def reference_search_isomorphisms(a, b, budget, find_all):
    """The iso search on boxed Scalars: the same (witnesses, nodes, exhausted)
    as iso._search_isomorphisms, from vector arithmetic on Scalars, Matrix.solve
    and verify_iso at every leaf."""
    f = a.field
    n = a.dim
    domains = _reference_image_domains(a, b)
    ad_rank = [a.ad_basis(i).rank() for i in range(n)]
    assigned = [None] * n
    ad_cache = [None] * n
    reducer = _ReferenceReducer()
    results = []
    nodes = 0

    def known_part(c, done_set, k):
        known = [m for m in done_set if m != k]
        return boxed.lincomb([c[m] for m in known], [assigned[m] for m in known], zero_vector(f, n))

    def constraints_for(k):
        rows = []
        rhs = []
        done = [m for m in range(n) if assigned[m] is not None]
        done_set = set(done)
        for i in done:
            c = a.bracket_basis(i, k)
            if any(c[m] and m != k and m not in done_set for m in range(n)):
                continue
            known = known_part(c, done_set, k)
            adv = ad_cache[i]
            ck = c[k]
            for r in range(n):
                row = list(adv.rows[r])
                if ck:
                    row[r] = row[r] - ck
                rows.append(tuple(row))
                rhs.append(known[r])
        for i, j in itertools.combinations(done, 2):
            c = a.bracket_basis(i, j)
            if not c[k]:
                continue
            if any(c[m] and m != k and m not in done_set for m in range(n)):
                continue
            target = vsub(b.bracket(assigned[i], assigned[j]), known_part(c, done_set, k))
            ck = c[k]
            for r in range(n):
                row = [f.zero] * n
                row[r] = ck
                rows.append(tuple(row))
                rhs.append(target[r])
        return rows, rhs

    def candidates_for(k):
        dom = domains[k]
        if not dom:
            return None
        rows, rhs = constraints_for(k)
        m_cols = [tuple(dot(row, d, f) for row in rows) for d in dom]
        sol = Matrix.from_cols(f, m_cols).solve(tuple(rhs))
        if sol is None:
            return None
        part, null = sol
        return part, null, dom

    def expand(remaining):
        nonlocal nodes
        if not remaining:
            matrix = Matrix.from_cols(f, [assigned[i] for i in range(n)])
            if verify_iso(a, b, matrix):
                results.append(matrix)
                return not find_all
            return False
        best = None
        for k in remaining:
            cand = candidates_for(k)
            if cand is None:
                return False
            key = (len(cand[1]), -ad_rank[k], k)
            if best is None or key < best[0]:
                best = (key, k, cand)
        _, k, (part, null, dom) = best
        rest = [m for m in remaining if m != k]
        for t in _reference_affine(f, part, null):
            x = boxed.lincomb(t, dom, zero_vector(f, n))
            nodes += 1
            if nodes > budget:
                raise _ReferenceBudgetHit()
            if not reducer.push(x):
                continue
            assigned[k] = x
            ad_cache[k] = b.ad(x)
            stop = expand(rest)
            assigned[k] = None
            ad_cache[k] = None
            reducer.pop()
            if stop:
                return True
        return False

    try:
        expand(list(range(n)))
        exhausted = True
    except _ReferenceBudgetHit:
        exhausted = False
    return results, nodes, exhausted


_CORPUS = {
    "sl2": make_sl2,
    "L4": lambda f: matched.make_L(1, f),
    "h5": matched.make_h5,
    "l3": lambda f: make_l(1, f),
}


def _assert_same_search(a, b, budget, find_all):
    got = _search_isomorphisms(a, b, budget, find_all)
    assert got == reference_search_isomorphisms(a, b, budget, find_all)
    for m in got[0]:
        assert all(x.field is a.field for row in m.rows for x in row)
        assert (m.nrows, m.ncols) == (a.dim, a.dim)
    return got


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_CORPUS)),
    st.sampled_from((F2, F3, F5, F7)),
    st.integers(0, 10**6),
    st.booleans(),
    st.integers(1, 1500),
)
def test_raw_search_matches_reference_on_conjugates(name, field, seed, find_all, budget):
    if name == "h5" and field is F2:
        return  # h5 needs characteristic != 2
    alg = _CORPUS[name](field)
    conjugate = _random_conjugate(alg, seed)
    _assert_same_search(alg, conjugate, budget, find_all)
    _assert_same_search(conjugate, alg, budget, find_all)


def test_pair_constraints_prune_from_a_conjugate_basis():
    # searching from a conjugate basis, the rows from [x_i, x_j] of two
    # assigned images that close on x_k cut candidate sets: without them the
    # sl2 search expands 364 nodes and the L(4) search finds no answer
    # within 5,000
    for alg, seed, nodes in ((make_sl2(F3), 0, 346), (matched.make_L(1, F3), 1, 4256)):
        witnesses, searched, exhausted = _assert_same_search(
            _random_conjugate(alg, seed), alg, 5000, False
        )
        assert (len(witnesses), searched, exhausted) == (1, nodes, True)


def test_raw_search_matches_reference_on_deformations():
    # the exhausted searches between classes are complete "no" answers
    mp = matched.canonical_pair_L(1, F5)
    reps = deform.classify_complements(mp).representatives
    for d in deform.enumerate_deformation_maps(mp):
        alg = deform.r_deformation(mp, d)
        for rep in reps:
            _assert_same_search(alg, rep, 500000, False)
    for rep in reps:
        _assert_same_search(rep, rep, 2000, True)


def test_raw_search_matches_reference_on_large_residues():
    big = Field.gf(2**31 - 1)
    sl2 = make_sl2(big)
    conjugate = _random_conjugate(sl2, 1)
    for find_all in (False, True):
        # the node that crosses the budget is counted
        assert _assert_same_search(sl2, conjugate, 200, find_all)[1:] == (201, False)


# -- invariants kept on the algebra ---------------------------------------------


_KEPT_CORPUS = {
    "sl2": make_sl2,
    "L4": lambda f: matched.make_L(1, f),
    "m4": lambda f: matched.make_m(1, f),
    "h5": matched.make_h5,
    "l5": lambda f: make_l(2, f),
}


def _kept_invariants(alg):
    return (
        liecore.derived_series(alg),
        liecore.lower_central_series(alg),
        liecore.center(alg),
        liecore.killing_gram(alg),
        liecore.almost_abelian(alg),
        fingerprint(alg),
    )


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(sorted(_KEPT_CORPUS)),
    st.sampled_from((F3, F5, F7)),
    st.integers(0, 10**6),
)
def test_kept_invariants_agree_with_a_recomputation(name, field, seed):
    alg = _KEPT_CORPUS[name](field)
    conjugate = _random_conjugate(alg, seed)
    for x in (alg, conjugate):
        kept = _kept_invariants(x)
        again = _kept_invariants(x)
        assert all(k is a for k, a in zip(kept, again))
        fresh = LieAlgebra(x.field, x.basis_names, dict(x.sc_pairs()))
        assert kept == _kept_invariants(fresh)
        # the raw series, center and Killing Gram against the boxed loops
        assert [list(s.basis) for s in kept[0]] == boxed.derived_series(x)
        assert [list(s.basis) for s in kept[1]] == boxed.lower_central_series(x)
        assert list(kept[2].basis) == boxed.center(x)
        assert kept[3] == boxed.killing_gram(x)
    # the replaced raw paths: the Killing Gram by products of ad matrices and
    # the series over ordered pairs, the lower central one bracketing [L, L] anew
    for other in (Q, F2, F5):
        if name == "h5" and other is F2:
            continue  # h5 needs characteristic != 2
        y = _KEPT_CORPUS[name](other)
        for x in (y, _random_conjugate(y, seed)):
            assert liecore.killing_gram(x) == boxed.killing_gram_by_products(x)
            assert liecore.derived_series(x) == boxed.derived_series_ordered(x)
            assert liecore.lower_central_series(x) == boxed.lower_central_series_ordered(x)
    assert fingerprint(alg) == fingerprint(conjugate)
    # the almost abelian form keeps its invariant factors up to scaling: the
    # conjugate's z is another vector outside D, a multiple of z plus D
    u, v = liecore.almost_abelian(alg), liecore.almost_abelian(conjugate)
    assert (u is None) == (v is None) == (name in ("h5", "m4", "sl2"))
    assert u is None or any(
        iso._scaled_factors(field, v.factors, c) == u.factors
        for c in iso._scalings(field, u.charpoly, v.charpoly)
    )
    if u is not None:
        # the frame is z, the first basis vector outside D = [L, L], then a
        # basis of D; the factors are those of ad(z) on D's rref rows
        n = alg.dim
        frame = Matrix._of_raw(field, u.frame, n)
        assert frame * Matrix._of_raw(field, u.frame_inverse, n) == Matrix.identity(field, n)
        derived = liecore.derived_series(alg)[1]
        z = next(e for e in Matrix.identity(field, n).raw if derived._coordinates(e) is None)
        assert frame.col(0) == exactmath._box(field, z)
        assert all(derived.contains(frame.col(j)) for j in range(1, n))
        ad_z = tuple(zip(*(derived._coordinates(alg._bracket(z, w)) for w in derived.rows)))
        assert u.factors == exactmath._frobenius_rows(field, ad_z)[0]
    assert len(derivation_space(alg)) == len(derivation_space(conjugate))
    res = are_isomorphic(alg, conjugate)
    assert res.is_yes and verify_iso(alg, conjugate, res.witness)


def test_image_domains_equal_the_reference():
    # every (deformation, representative) pair of the n = 1 classifications;
    # on the L pairs some deformations have longer series than some
    # representatives, so a pattern may name a term the target lacks
    beyond = 0

    def check(alg, rep):
        nonlocal beyond
        terms = dict(iso._characteristic(rep))
        patterns = iso._basis_patterns(alg)
        beyond += any(i >= len(terms[n]) for p in patterns for n, i in p)
        got = iso._image_domains(alg, rep)
        want = _reference_image_domains(alg, rep)
        assert [[exactmath._box(rep.field, r) for r in dom] for dom in got] == [
            [tuple(v) for v in dom] for dom in want
        ]

    for field in (F3, F5):
        for make_pair in (matched.canonical_pair_L, matched.canonical_pair_m):
            mp = make_pair(1, field)
            reps = deform.classify_complements(mp).representatives
            for d in deform.enumerate_deformation_maps(mp):
                alg = deform.r_deformation(mp, d)
                for rep in reps:
                    check(alg, rep)
    assert beyond
    # a filiform algebra, whose lower central series (4, 2, 1, 0) is finer
    # than its derived series (4, 2, 0), against a conjugate and against L(4)
    filiform = LieAlgebra.from_named_brackets(
        F5, ("e1", "e2", "e3", "e4"), {("e1", "e2"): [("e3", 1)], ("e1", "e3"): [("e4", 1)]}
    )
    L4 = matched.make_L(1, F5)
    for alg, rep in ((_random_conjugate(filiform, 0), filiform), (filiform, L4), (L4, filiform)):
        check(alg, rep)


def test_an_exhausted_budget_searches_the_other_way():
    # from this conjugate of sl2 over GF(7) (not almost abelian, so it is
    # searched) to sl2 the search finds nothing within 10,000 nodes; from
    # sl2 back to the conjugate it finds an isomorphism after 4, which is
    # inverted and re-verified
    alg = make_sl2(F7)
    conjugate = _random_conjugate(alg, 0)
    forward = _search_isomorphisms(conjugate, alg, 10000, False)
    assert forward[0] == [] and not forward[2]
    res = are_isomorphic(conjugate, alg, 10000)
    assert res.is_yes and verify_iso(conjugate, alg, res.witness)
    assert res.searched == forward[1] + 4 == 10005


def _split_and_torus(field):
    """r2 + r2, and the non-split torus extension [x1, y] = y, [x1, z] = z,
    [x2, y] = z, [x2, z] = -y: neither almost abelian, both with a
    2-dimensional derived algebra and one fingerprint.  They are isomorphic
    iff -1 is a square, where ad(x2) on span(y, z) diagonalizes."""
    split = LieAlgebra.from_named_brackets(
        field, ("x1", "y1", "x2", "y2"), {("x1", "y1"): [("y1", 1)], ("x2", "y2"): [("y2", 1)]}
    )
    torus = LieAlgebra.from_named_brackets(
        field,
        ("x1", "x2", "y", "z"),
        {
            ("x1", "y"): [("y", 1)],
            ("x1", "z"): [("z", 1)],
            ("x2", "y"): [("z", 1)],
            ("x2", "z"): [("y", -1)],
        },
    )
    return split, torus


def test_an_exhausted_search_is_a_definitive_no():
    for field, verdict, nodes in ((F3, "no", 153), (F7, "no", 4753), (F5, "yes", 319)):
        split, torus = _split_and_torus(field)
        assert fingerprint(split) == fingerprint(torus)
        assert fingerprint(split).as_tuple() == (4, (4, 2, 0), (4, 2, 2), 0, 2, 2)
        res = are_isomorphic(split, torus)
        assert (res.verdict, res.searched) == (verdict, nodes)
        if verdict == "no":
            assert res.witness is None
            assert res.certificate == f"complete search exhausted ({nodes} nodes)"
        else:
            assert verify_iso(split, torus, res.witness)
    # the boxed reference search expands the same tree to the same "no"
    split, torus = _split_and_torus(F3)
    assert reference_search_isomorphisms(split, torus, 500000, False) == ([], 153, True)


def _passed_verify_iso(monkeypatch) -> list:
    """Every matrix that iso.verify_iso accepts from here on."""
    passed = []
    check = iso.verify_iso

    def recording(a, b, m):
        ok = check(a, b, m)
        if ok:
            passed.append(m.matrix if isinstance(m, LinearMap) else m)
        return ok

    monkeypatch.setattr(iso, "verify_iso", recording)
    return passed


def test_every_witness_and_automorphism_passed_verify_iso(monkeypatch):
    passed = _passed_verify_iso(monkeypatch)

    def checked(a, b, budget=500000):
        res = are_isomorphic(a, b, budget)
        assert res.is_yes and any(res.witness.matrix is m for m in passed)
        return res

    # almost abelian, from the kept forms
    two = F7.scalar(2)
    assert checked(make_Lalpha(F7, two), make_Lalpha(F7, two.inverse())).searched == 0
    # a 1-dimensional derived algebra, from the frames
    r2k = LieAlgebra.from_named_brackets(F5, ("x", "y", "z"), {("x", "y"): [("y", 1)]})
    assert checked(r2k, _random_conjugate(r2k, 0)).searched == 0
    # the search from a to b
    assert checked(*_split_and_torus(F5)).searched == 319
    # the search from b to a, whose witness is inverted before it is checked
    sl2 = make_sl2(F7)
    assert checked(_random_conjugate(sl2, 0), sl2, 10000).searched == 10005
    # every automorphism
    auts = aut_enumerate(make_sl2(F3))
    assert len(auts) == 24
    assert all(any(v.matrix is m for m in passed) for v in auts)


def test_every_product_operand_is_a_residue(monkeypatch):
    # the packed product trusts the raw invariant: over GF(p) an entry that
    # is no residue in [0, p) but below 256 would carry between bytes
    # unseen.  Every product of the n = 1 index at p = 5 and 7 and of the
    # triple group of sl2 over GF(3) is recorded at its kernel.
    seen = []
    kernel = exactmath._mul_rows

    def recording(field, rows, other, ncols):
        seen.append((field, rows, other))
        return kernel(field, rows, other, ncols)

    for module in (exactmath, liecore, iso):
        monkeypatch.setattr(module, "_mul_rows", recording)
    for p in (5, 7):
        assert scenarios.run_scenario("n1-index", p=p).passed
    sl2 = make_sl2(F3)
    triples = enumerate_aut_triples(sl2, sl2.ad(basis_vector(F3, 3, 0)))
    assert len(triples) == 48
    for t in triples:
        aut_multiply(t, aut_inverse(t))
        for u in triples:
            aut_multiply(t, u)
    assert {field for field, _, _ in seen} == {F3, F5, F7}
    assert any(len(other) <= field._pack for field, _, other in seen)
    for field, rows, other in seen:
        assert all(type(x) is int and 0 <= x < field.p for m in (rows, other) for row in m for x in row)


def test_the_kept_forms_decide_L6_over_gf3_as_the_complete_search_does():
    # n = 2: each deformation's "yes" to its class representative is found
    # again by the complete search, and each pair of representatives with
    # one fingerprint is exhausted by it; isomorphism being an equivalence
    # relation, are_isomorphic's verdict on every (deformation,
    # representative) pair is then the search's.  The classes are
    # classify_complements', in order.  (Searching every pair directly gives
    # the same verdicts in about 70 s.)
    mp = matched.canonical_pair_L(2, F3)
    algs = [deform.r_deformation(mp, d) for d in deform.enumerate_deformation_maps(mp)]
    report = deform.classify_complements(mp)
    reps = report.representatives
    for a, b in itertools.combinations(reps, 2):
        if fingerprint(a) == fingerprint(b):
            assert _search_isomorphisms(a, b, 500000, False)[::2] == ([], True)
    labels = []
    for alg in algs:
        results = [are_isomorphic(alg, rep) for rep in reps]
        assert all(r.searched == 0 for r in results) or liecore.almost_abelian(alg) is None
        (k,) = [k for k, r in enumerate(results) if r.is_yes]
        assert verify_iso(alg, reps[k], results[k].witness)
        witnesses = _search_isomorphisms(alg, reps[k], 500000, False)[0]
        assert witnesses and verify_iso(alg, reps[k], witnesses[0])
        labels.append(k)
    assert [labels.count(k) for k in range(len(reps))] == report.class_sizes == [26, 1, 8]
    assert [algs[labels.index(k)].same_brackets(rep) for k, rep in enumerate(reps)] == [True] * 3


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((F2, F3, F5, F7, Field.gf(13))),
    st.integers(1, 6),
    st.data(),
)
def test_scalings_are_every_c_that_relates_the_charpolys(field, d, data):
    # against a loop over the units; v = c^i u_i for a drawn c half the time
    entry = st.integers(0, field.p - 1)
    v = data.draw(st.lists(entry, min_size=d - 1, max_size=d - 1)) + [
        data.draw(st.integers(1, field.p - 1))
    ]
    if data.draw(st.booleans()):
        c = data.draw(st.integers(1, field.p - 1))
        u = [x * pow(c, i, field.p) % field.p for i, x in enumerate(v, 1)]
    else:
        u = data.draw(st.lists(entry, min_size=d - 1, max_size=d - 1)) + [
            data.draw(st.integers(1, field.p - 1))
        ]
    want = [
        c for c in range(1, field.p)
        if all(x == pow(c, i, field.p) * y % field.p for i, (x, y) in enumerate(zip(u, v), 1))
    ]
    assert iso._scalings(field, tuple(u), tuple(v)) == tuple(want)


def test_an_almost_abelian_pair_over_a_large_prime_field_answers_at_once():
    # over GF(2^31 - 1) no c is looked for among the units: the charpoly
    # ratios give c^g, and its g-th roots come in closed form or by
    # splitting t^e - s; both verdicts, each in well under a second
    big = Field.gf(2**31 - 1)
    a = make_Lalpha(big, 2)
    for b, verdict in ((make_Lalpha(big, big.scalar(2).inverse()), "yes"), (make_Lalpha(big, 3), "no")):
        start = time.perf_counter()
        res = are_isomorphic(a, b)
        assert time.perf_counter() - start < 1.0
        assert (res.verdict, res.searched) == (verdict, 0)
        assert verdict == "no" or verify_iso(a, b, res.witness)
    # l(5) and a conjugate: trace 0, so c^2 is fixed and c has two roots
    l5 = make_l(2, big)
    conjugate = l5.change_basis(Matrix(big, [[1, 2, 0, 0, 1], [0, 1, 0, 3, 0], [0, 0, 1, 0, 2], [1, 0, 0, 1, 0], [0, 0, 2, 0, 1]]))
    start = time.perf_counter()
    res = are_isomorphic(l5, conjugate)
    assert time.perf_counter() - start < 1.0
    assert (res.verdict, res.searched) == ("yes", 0) and verify_iso(l5, conjugate, res.witness)


@pytest.mark.parametrize("field", (F5, Q), ids=("GF5", "Q"))
def test_invariant_factors_separate_what_the_charpolys_do_not(field):
    # ad(z) = 2I against a Jordan block of eigenvalue 2: one charpoly, and
    # c = 1 the only scaling that keeps it, but not similar
    scalar = LieAlgebra.from_named_brackets(
        field, ("z", "x", "y"), {("z", "x"): [("x", 2)], ("z", "y"): [("y", 2)]}
    )
    jordan = LieAlgebra.from_named_brackets(
        field, ("z", "x", "y"), {("z", "x"): [("x", 2)], ("z", "y"): [("y", 2), ("x", 1)]}
    )
    assert fingerprint(scalar) == fingerprint(jordan)
    res = are_isomorphic(scalar, jordan)
    assert (res.verdict, res.searched) == ("no", 0)
    line, square = ("t + 3", "t^2 + t + 4") if field is F5 else ("t - 2", "t^2 - 4t + 4")
    assert res.certificate == (
        f"ad(z) on the derived algebra has invariant factors [{line}, {line}]; "
        f"c ad(z') has [{square}] at c = 1"
    )
    if field.is_finite:
        assert _search_isomorphisms(scalar, jordan, 500000, False) == ([], 625, True)


# -- closed-form fingerprints and frames ------------------------------------------


def _general_fingerprint(alg):
    """The fingerprint from the series, center and Killing Gram, as it is
    computed for an algebra that is not almost abelian: the oracle of the
    almost abelian read-off."""
    derived = tuple(s.dim for s in liecore.derived_series(alg))
    return iso.Fingerprint(
        alg.dim,
        derived,
        tuple(s.dim for s in liecore.lower_central_series(alg)),
        liecore.center(alg).dim,
        alg.dim - derived[1],
        liecore.killing_gram(alg).rank(),
    )


def _almost_abelian(field, a_rows):
    """kz + k^d with [z, u_j] = A u_j, column j of A."""
    d = len(a_rows)
    names = ("z",) + tuple(f"u{j}" for j in range(d))
    brackets = {(0, j + 1): (0,) + tuple(row[j] for row in a_rows) for j in range(d)}
    return LieAlgebra(field, names, brackets)


def test_almost_abelian_fingerprints_are_the_general_ones_on_the_deformations():
    # every almost abelian r-deformation of the canonical pairs with n <= 2
    # over GF(2), GF(3) and GF(5); a fresh copy of each computes the general
    # fingerprint from scratch
    ranks = set()
    for field in (F2, F3, F5):
        for make_pair in (matched.canonical_pair_L, matched.canonical_pair_m):
            for n in (1, 2):
                mp = make_pair(n, field)
                for d in deform.enumerate_deformation_maps(mp):
                    alg = deform.r_deformation(mp, d)
                    if liecore.almost_abelian(alg) is None:
                        continue
                    fresh = LieAlgebra(field, alg.basis_names, dict(alg.sc_pairs()))
                    assert fingerprint(alg) == _general_fingerprint(fresh)
                    ranks.add(fingerprint(alg).killing_rank)
    # tr(A^2) vanishes on some and not on others
    assert ranks == {0, 1}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_almost_abelian_fingerprints_are_the_general_ones_over_q(d, data):
    # a random invertible A, or one with tr(A^2) = 0 (Killing rank 0), in a
    # random basis
    entry = st.integers(-3, 3)
    rows = data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    assume(Matrix(Q, rows).is_invertible())
    for a_rows in (rows, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]):
        alg = _random_conjugate(_almost_abelian(Q, a_rows), data.draw(st.integers(0, 10**6)))
        assert liecore.almost_abelian(alg) is not None
        fresh = LieAlgebra(Q, alg.basis_names, dict(alg.sc_pairs()))
        assert fingerprint(alg) == _general_fingerprint(fresh)
    assert fingerprint(alg).killing_rank == 0


def _small_derived_algebra(field, kind, m, r):
    """k^r, h(2m+1) + k^r or r2 + k^r in their normal forms."""
    if kind == "abelian":
        return LieAlgebra.abelian(field, r)
    if kind == "heisenberg":
        n, y = 2 * m + 1 + r, 2 * m
        brackets = {(2 * i, 2 * i + 1): basis_vector(field, n, y) for i in range(m)}
    else:
        n = 2 + r
        brackets = {(0, 1): basis_vector(field, n, 1)}
    return LieAlgebra(field, tuple(f"e{i}" for i in range(n)), brackets)


@st.composite
def _small_derived_cases(draw):
    field = draw(st.sampled_from((Q, F2, F3, F5, F7)))
    kind = draw(st.sampled_from(("abelian", "heisenberg", "r2")))
    m = draw(st.integers(1, 2)) if kind == "heisenberg" else 0
    # n = core + r <= 6, core the dimension of the summand other than k^r
    core = {"abelian": 0, "heisenberg": 2 * m + 1, "r2": 2}[kind]
    r = draw(st.integers(1 if kind == "abelian" else 0, 6 - core))
    return field, kind, m, r, draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))


@settings(max_examples=120, deadline=None)
@given(_small_derived_cases())
def test_frames_decide_small_derived_algebras_in_random_bases(case):
    # k^n, h(2m+1) + k^r and r2 + k^r (n <= 6), over GF(p) and over Q: two
    # random bases of one are isomorphic with 0 nodes and a verified witness
    field, kind, m, r, seed_a, seed_b = case
    alg = _small_derived_algebra(field, kind, m, r)
    a, b = _random_conjugate(alg, seed_a), _random_conjugate(alg, seed_b)
    assert liecore.derived_series(a)[1].dim == (kind != "abelian")
    for x, y in ((a, b), (alg, a), (b, alg)):
        res = are_isomorphic(x, y)
        assert (res.verdict, res.searched) == ("yes", 0)
        assert verify_iso(x, y, res.witness)


@pytest.mark.parametrize("field", (F3, F5), ids=("GF3", "GF5"))
def test_frames_decide_the_small_deformations_as_the_search_does(field):
    # every ordered pair of n = 1 deformations of one dimension with
    # dim [L, L] <= 1: are_isomorphic answers with 0 nodes, and the complete
    # search, its oracle, finds a witness exactly when the answer is "yes"
    algs = [
        deform.r_deformation(mp, d)
        for mp in (matched.canonical_pair_L(1, field), matched.canonical_pair_m(1, field))
        for d in deform.enumerate_deformation_maps(mp)
    ]
    small = [a for a in algs if liecore.derived_series(a)[1].dim <= 1]
    verdicts = set()
    for a, b in itertools.product(small, repeat=2):
        if a.dim != b.dim:
            continue
        res = are_isomorphic(a, b)
        witnesses, _, exhausted = _search_isomorphisms(a, b, 500000, False)
        assert res.searched == 0 and (witnesses or exhausted)
        assert res.is_yes == bool(witnesses) and res.verdict != "unknown"
        assert not res.is_yes or verify_iso(a, b, res.witness)
        verdicts.add(res.verdict)
    assert verdicts == {"yes", "no"}

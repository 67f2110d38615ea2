import itertools
import random
from fractions import Fraction

import pytest

import boxed_reference as boxed
from liefact.errors import (
    BadParameter,
    DimensionMismatch,
    FieldMismatch,
    FormatError,
    InvalidMatchedPair,
    InvalidTwistedDerivation,
    NotAFactorization,
)
from liefact.exactmath import Field, Matrix, basis_vector, zero_vector
from boxed_reference import vadd, vscale
from liefact import liecore, matched
from liefact.derivations import TwistedDerivation, tn_element, tn_to_twisted, tn_validate
from liefact.liecore import LieAlgebra, Subspace, direct_product
from liefact.matched import (
    Factorization,
    h5_noninner_derivation,
    MatchedPair,
    bicrossed_product,
    canonical_matched_pair,
    canonical_pair_L,
    canonical_pair_m,
    check_matched_pair,
    dump_pair,
    h_lambda_delta,
    load_pair,
    make_L,
    make_Lalpha,
    make_h5,
    make_l,
    make_l1,
    make_l1_char2,
    make_l2,
    make_l2_char2,
    make_l3,
    make_l4,
    make_m,
    make_sl2,
    pair_from_twisted,
)
from liefact import iso

Q = Field.rationals()
F2 = Field.gf(2)
F3 = Field.gf(3)
F5 = Field.gf(5)


def trivial_pair(g, h):
    return MatchedPair(g, h)


# -- axioms ---------------------------------------------------------------------


def test_trivial_actions_always_match():
    g = make_sl2(Q)
    h = make_l(1, Q)
    assert check_matched_pair(trivial_pair(g, h)) == []


def test_canonical_pairs_match():
    for n in (1, 2):
        assert check_matched_pair(canonical_pair_L(n, F5)) == []
        assert check_matched_pair(canonical_pair_m(n, F5)) == []


def test_flipped_action_fails():
    mp = canonical_pair_L(1, F5)
    flipped = MatchedPair(
        mp.g, mp.h, right=dict(mp.right), left={(2, 0): (-F5.one,)}
    )
    assert check_matched_pair(flipped)
    with pytest.raises(InvalidMatchedPair):
        bicrossed_product(flipped)


def test_check_matched_pair_reports_are_stable():
    # records as produced before the axioms shared one checker, in the same order
    mp = canonical_pair_L(1, F5)
    flipped = MatchedPair(mp.g, mp.h, right=dict(mp.right), left={(2, 0): (-F5.one,)})
    assert check_matched_pair(flipped) == [
        ("compat-right", (0, 2, 0), (3, 0, 0)),
        ("compat-right", (1, 2, 0), (0, 2, 0)),
    ]
    # arbitrary actions of sl2 and l(3) break all four axioms
    junk = MatchedPair(
        make_sl2(F5),
        make_l(1, F5),
        right={(0, 1): (1, 2, 0), (2, 2): (0, 0, 3)},
        left={(1, 0): (1, 1, 0), (2, 1): (0, 4, 1)},
    )
    assert check_matched_pair(junk) == [
        ("left-module", (1, 2, 0), (4, 3, 1)),
        ("right-module", (2, 0, 1), (0, 0, 3)),
        ("right-module", (0, 1, 2), (2, 4, 0)),
        ("compat-left", (0, 0, 1), (2, 2, 0)),
        ("compat-left", (1, 0, 1), (0, 0, 4)),
        ("compat-left", (1, 0, 2), (0, 1, 0)),
        ("compat-left", (2, 0, 1), (2, 0, 1)),
        ("compat-left", (2, 1, 2), (0, 2, 0)),
        ("compat-right", (0, 1, 0), (4, 3, 0)),
        ("compat-right", (0, 2, 1), (1, 1, 0)),
        ("compat-right", (0, 2, 2), (2, 0, 0)),
        ("compat-right", (1, 2, 2), (0, 3, 0)),
    ]


def _pinned_pairs():
    mp = canonical_pair_L(1, F5)
    sl2 = make_sl2(F5)
    yield trivial_pair(make_sl2(Q), make_l(1, Q))
    for n in (1, 2):
        yield canonical_pair_L(n, F5)
        yield canonical_pair_m(n, F5)
        yield canonical_pair_L(n, Q)
    yield MatchedPair(mp.g, mp.h, right=dict(mp.right), left={(2, 0): (-1,)})
    yield MatchedPair(
        sl2,
        make_l(1, F5),
        right={(0, 1): (1, 2, 0), (2, 2): (0, 0, 3)},
        left={(1, 0): (1, 1, 0), (2, 1): (0, 4, 1)},
    )
    yield pair_from_twisted(sl2, TwistedDerivation(zero_vector(F5, 3), sl2.ad(basis_vector(F5, 3, 2))))
    yield canonical_matched_pair(_line_factorization(make_L(2, F3)))


def _random_pair(rng, field):
    """Random sparse action tables between two small algebras over field."""
    algebras = [
        lambda: LieAlgebra.abelian(field, 1, ("a",)),
        lambda: LieAlgebra.abelian(field, 2, ("a", "b")),
        lambda: make_sl2(field),
        lambda: make_l(1, field),
        lambda: make_Lalpha(field, 2),
    ]
    g, h = rng.choice(algebras)(), rng.choice(algebras)()
    if field.is_finite:
        value = lambda: rng.randrange(field.p)
    else:
        value = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    density = rng.choice((0.2, 0.4, 0.7))

    def table(dim):
        return {
            (i, j): tuple(value() if rng.random() < density else 0 for _ in range(dim))
            for i in range(h.dim)
            for j in range(g.dim)
            if rng.random() < density
        }

    return MatchedPair(g, h, right=table(h.dim), left=table(g.dim))


def test_axioms_as_jacobi_match_the_boxed_axioms():
    rng = random.Random(18)
    pairs = list(_pinned_pairs()) + [_random_pair(rng, rng.choice((Q, F5))) for _ in range(240)]
    valid = 0
    for mp in pairs:
        want = boxed.matched_pair_defects(mp)
        assert check_matched_pair(mp) == want
        valid += not want
    # both answers occur, and every axiom fails somewhere
    assert 10 <= valid < len(pairs) - 100
    failing = {name for mp in pairs for name, _, _ in boxed.matched_pair_defects(mp)}
    assert failing == {"left-module", "right-module", "compat-left", "compat-right"}


def test_action_keys_outside_the_bases_are_rejected():
    mp = canonical_pair_L(1, F5)
    for i, j in ((3, 0), (-1, 0), (0, 1), (0, -1)):
        with pytest.raises(FormatError, match=rf"right action key \({i},{j}\)"):
            MatchedPair(mp.g, mp.h, right={(i, j): (1, 0, 0)})
        with pytest.raises(FormatError, match=rf"left action key \({i},{j}\)"):
            MatchedPair(mp.g, mp.h, left={(i, j): (1,)})
    with pytest.raises(DimensionMismatch):
        MatchedPair(mp.g, mp.h, right={(0, 0): (1,)})


def test_actions_are_kept_raw():
    l3 = make_l(1, Q)
    mp = MatchedPair(l3, l3, right={(0, 1): (1, "1/2", Q.zero)}, left={(2, 2): (0, 0, 0)})
    assert mp.right == {(0, 1): (Fraction(1), Fraction(1, 2), Fraction(0))}
    assert mp.left == {}
    mp5 = MatchedPair(make_l(1, F5), make_l(1, F5), right={(0, 1): (6, -1, F5.one)})
    assert mp5.right == {(0, 1): (1, 4, 1)}
    x, a = basis_vector(F5, 3, 0), (F5.zero, F5.scalar(2), F5.zero)
    assert mp5.act_right(x, a) == (F5.scalar(2), F5.scalar(3), F5.scalar(2))
    with pytest.raises(DimensionMismatch):
        mp5.act_right(x, (F5.one,))


# -- bicrossed products ------------------------------------------------------------


def test_bicrossed_trivial_is_direct_product():
    g = make_sl2(F5)
    h = make_l(1, F5)
    assert bicrossed_product(trivial_pair(g, h)).same_brackets(direct_product(g, h))


def test_bicrossed_reports_the_factors_jacobi_in_the_product_basis():
    # fails Jacobi at (0, 1, 2)
    bad = LieAlgebra.from_named_brackets(
        Q, ("e1", "e2", "e3"), {("e1", "e2"): [("e3", 1)], ("e1", "e3"): [("e1", 1)]}
    )
    for g, h in ((bad, make_l(1, Q)), (make_sl2(Q), bad), (bad, bad)):
        mp = trivial_pair(g, h)
        # what the Jacobi identity of the whole unchecked product reports
        whole = [("jacobi", (i, j, l), d) for i, j, l, d in matched._bicrossed(mp).check_jacobi()]
        assert check_matched_pair(mp) == whole != []
        with pytest.raises(InvalidMatchedPair, match="Jacobi") as err:
            bicrossed_product(mp)
        assert err.value.report == whole


def test_bicrossed_canonical_pairs():
    bi = bicrossed_product(canonical_pair_L(1, Q))
    assert bi.basis_names == ("H", "E", "F", "G")
    assert bi.permuted([1, 2, 3, 0]).same_brackets(make_L(1, Q))

    bi = bicrossed_product(canonical_pair_m(1, Q))
    perm = bi.permuted([1, 2, 3, 0])
    assert perm.same_brackets(make_m(1, Q))
    # [G, H] lands on E + F
    gh = perm.bracket_basis(2, 3)
    assert gh == vadd(basis_vector(Q, 4, 0), basis_vector(Q, 4, 1))


def test_bicrossed_embeds_factors():
    mp = canonical_pair_L(2, F5)
    bi = bicrossed_product(mp)
    dg = mp.g.dim
    gsub = Subspace(bi, [basis_vector(F5, bi.dim, j) for j in range(dg)])
    hsub = Subspace(bi, [basis_vector(F5, bi.dim, dg + i) for i in range(mp.h.dim)])
    assert gsub.is_subalgebra() and hsub.is_subalgebra()
    assert liecore.subalgebra_structure(bi, gsub).same_brackets(mp.g)
    assert liecore.subalgebra_structure(bi, hsub).same_brackets(mp.h)


# -- canonical matched pairs ----------------------------------------------------------


def _line_factorization(ambient):
    n = ambient.dim
    gsub = Subspace(ambient, [basis_vector(ambient.field, n, n - 1)])
    hsub = Subspace(ambient, [basis_vector(ambient.field, n, i) for i in range(n - 1)])
    return Factorization(ambient, gsub, hsub)


def test_canonical_pair_from_direct_product():
    amb = direct_product(make_sl2(Q), LieAlgebra.abelian(Q, 1, ("W",)))
    mp = canonical_matched_pair(_line_factorization(amb))
    assert mp.right == {} and mp.left == {}


def test_canonical_pair_recovers_pinned_actions():
    mp = canonical_matched_pair(_line_factorization(make_L(1, Q)))
    assert mp == canonical_pair_L(1, Q)
    mp2 = canonical_matched_pair(_line_factorization(make_m(1, Q)))
    assert mp2 == canonical_pair_m(1, Q)
    assert mp2.left == {}


def test_canonical_roundtrip_structure_equality():
    for ambient in (make_L(1, F5), make_m(1, F5), make_L(2, F3)):
        n = ambient.dim
        mp = canonical_matched_pair(_line_factorization(ambient))
        bi = bicrossed_product(mp)
        adapted = ambient.permuted([n - 1] + list(range(n - 1)))
        assert bi.same_brackets(adapted)
        # and the coordinate map verifies as an isomorphism
        cols = [basis_vector(ambient.field, n, n - 1)]
        cols += [basis_vector(ambient.field, n, i) for i in range(n - 1)]
        m = Matrix.from_cols(ambient.field, cols)
        assert iso.verify_iso(bi, ambient, m)


def test_not_a_factorization():
    amb = direct_product(LieAlgebra.abelian(Q, 1, ("W",)), make_sl2(Q))
    # span{e, f} is not a subalgebra ([e, f] = h)
    bad = Factorization(
        amb,
        Subspace(amb, [basis_vector(Q, 4, 0), basis_vector(Q, 4, 3)]),
        Subspace(amb, [basis_vector(Q, 4, 1), basis_vector(Q, 4, 2)]),
    )
    with pytest.raises(NotAFactorization) as err:
        canonical_matched_pair(bad)
    assert "subalgebra" in str(err.value)

    overlapping = Factorization(
        make_L(1, Q),
        Subspace(make_L(1, Q), [basis_vector(Q, 4, 2)]),
        Subspace(make_L(1, Q), [basis_vector(Q, 4, i) for i in range(3)]),
    )
    with pytest.raises(NotAFactorization):
        canonical_matched_pair(overlapping)


# -- codimension-1 extensions -----------------------------------------------------------


def test_h_lambda_delta_trivial():
    h = make_sl2(Q)
    t = TwistedDerivation(zero_vector(Q, 3), Matrix.zeros(Q, 3, 3))
    ext = h_lambda_delta(h, t)
    assert ext.same_brackets(direct_product(LieAlgebra.abelian(Q, 1, ("F",)), h))


def test_h_lambda_delta_l_family():
    t = tn_element(Q, 1, [[-1]], 0, 0, [[1]], 1, (0, 0, 1))
    ext = h_lambda_delta(make_l(1, Q), tn_to_twisted(t))
    assert ext.basis_names[0] == "H"  # "F" is taken by the base algebra
    assert ext.permuted([1, 2, 3, 0]).same_brackets(make_L(1, Q))


def test_h_lambda_delta_rejects_bad_data():
    h = make_l(1, Q)
    bad = TwistedDerivation((Q.one, Q.zero, Q.zero), Matrix.zeros(Q, 3, 3))
    with pytest.raises(InvalidTwistedDerivation):
        h_lambda_delta(h, bad)


def test_h_lambda_delta_rejects_an_h_that_fails_jacobi():
    h = LieAlgebra.from_named_brackets(
        Q, ("e1", "e2", "e3"), {("e1", "e2"): [("e3", 1)], ("e1", "e3"): [("e1", 1)]}
    )
    assert h.check_jacobi()
    zero = TwistedDerivation(zero_vector(Q, 3), Matrix.zeros(Q, 3, 3))
    assert zero.violations(h) == []
    with pytest.raises(InvalidTwistedDerivation, match="Jacobi"):
        h_lambda_delta(h, zero)


def test_h_lambda_delta_contains_base():
    h5 = make_h5(Q)
    t = TwistedDerivation(zero_vector(Q, 5), h5_noninner_derivation(Q))
    ext = h_lambda_delta(h5, t)
    assert ext.dim == 6
    sub = Subspace(ext, [basis_vector(Q, 6, i) for i in range(1, 6)])
    assert sub.is_subalgebra()
    assert liecore.subalgebra_structure(ext, sub).same_brackets(h5)


def test_exhaustive_tn_extensions_gf3():
    l3 = make_l(1, F3)
    vals = [F3.scalar(v) for v in range(3)]
    checked = 0
    for a, b, c, d, lam0, d1, d2, d3 in itertools.product(vals, repeat=8):
        t = tn_element(F3, 1, [[a]], [[b]], [[c]], [[d]], lam0, (d1, d2, d3))
        if not tn_validate(t):
            continue
        ext = h_lambda_delta(l3, tn_to_twisted(t))
        assert ext.check_jacobi() == []
        sub = Subspace(ext, [basis_vector(F3, 4, i) for i in range(1, 4)])
        assert liecore.subalgebra_structure(ext, sub).same_brackets(l3)
        checked += 1
    assert checked == 3 * 3**4


def test_pair_from_twisted_matches_dim1_actions():
    h = make_sl2(F5)
    delta = h.ad(basis_vector(F5, 3, 2))
    t = TwistedDerivation(zero_vector(F5, 3), delta)
    mp = pair_from_twisted(h, t)
    assert check_matched_pair(mp) == []
    assert mp.left == {}
    for i in range(3):
        assert mp.act_right(basis_vector(F5, 3, i), (F5.one,)) == delta.col(i)
    # bicrossed product equals the extension in the adapted order
    bi = bicrossed_product(mp)
    assert bi.same_brackets(h_lambda_delta(h, t))


# -- named families ------------------------------------------------------------------


def test_make_l_brackets():
    l5 = make_l(2, Q)
    assert l5.basis_names == ("E1", "E2", "F1", "F2", "G")
    E1, F2, G = basis_vector(Q, 5, 0), basis_vector(Q, 5, 3), basis_vector(Q, 5, 4)
    assert l5.bracket(E1, G) == E1
    assert l5.bracket(G, F2) == F2


def test_family_equalities():
    assert make_l1(1, Q, 1, (0, 0, 1)) == make_L(1, Q)
    assert make_l2(1, Q, [[1]], [[1]], (1, 1)) == make_m(1, Q)


def test_family_parameter_gates():
    for n in (0, -1):
        with pytest.raises(BadParameter):
            make_l(n, Q)
    with pytest.raises(BadParameter):
        make_l1(1, Q, 2, (0, 0, 1))
    with pytest.raises(BadParameter):
        make_l1(1, Q, 0, (0, 0, 1))
    with pytest.raises(BadParameter):
        make_l1(1, F2, 1, (0, 0, 1))
    with pytest.raises(BadParameter):
        make_l2(1, F2, [[1]], [[1]], (0, 0))
    with pytest.raises(BadParameter):
        make_l1_char2(1, Q, [[1]], [[1]], [[1]], [[1]], (0, 0))
    with pytest.raises(BadParameter):
        make_l2_char2(1, F2, 0, (0, 0, 1))
    with pytest.raises(BadParameter):
        make_h5(F2)
    with pytest.raises(BadParameter):
        make_l1(1, Q, 1, (0, 0))  # delta too short


def test_families_roundtrip_through_tn():
    # each char != 2 family is the extension of its block datum
    cases = [
        (make_l1(1, F5, 1, (1, 2, 3)), tn_element(F5, 1, [[-3]], 0, 0, [[3]], 1, (1, 2, 3))),
        (make_l2(1, F5, [[2]], [[3]], (1, 2)), tn_element(F5, 1, [[2]], 0, 0, [[3]], 0, (1, 2, 0))),
        (make_l3(1, F5, [[2]], (1, 2, 2)), tn_element(F5, 1, [[-1]], 0, [[2]], [[1]], 2, (1, 2, 2))),
        (make_l4(1, F5, [[2]], (1, 2, 2)), tn_element(F5, 1, [[1]], [[2]], 0, [[-1]], -2, (1, 2, 2))),
    ]
    for built, t in cases:
        assert tn_validate(t)
        ext = h_lambda_delta(make_l(1, F5), tn_to_twisted(t))
        assert ext.permuted([1, 2, 3, 0]).same_brackets(built)


def test_char2_families():
    alg = make_l1_char2(1, F2, [[1]], [[0]], [[1]], [[1]], (1, 0))
    assert alg.check_jacobi() == []
    t = tn_element(F2, 1, [[1]], [[0]], [[1]], [[1]], 0, (1, 0, 0))
    assert tn_validate(t)
    ext = h_lambda_delta(make_l(1, F2), tn_to_twisted(t))
    assert ext.permuted([1, 2, 3, 0]).same_brackets(alg)

    alg2 = make_l2_char2(1, F2, 1, (0, 1, 1))
    assert alg2.check_jacobi() == []
    t2 = tn_element(F2, 1, [[1]], 0, 0, [[1]], 1, (0, 1, 1))
    assert tn_validate(t2)
    ext2 = h_lambda_delta(make_l(1, F2), tn_to_twisted(t2))
    assert ext2.permuted([1, 2, 3, 0]).same_brackets(alg2)


def test_family_fingerprints_and_mirror():
    l1 = make_l1(1, F5, 1, (1, 1, 1))
    l2 = make_l2(1, F5, [[1]], [[2]], (1, 1))
    l3f = make_l3(1, F5, [[1]], (1, 2, 1))
    fps = [iso.fingerprint(a).as_tuple() for a in (l1, l2, l3f)]
    assert len(set(fps)) == 3
    # the lambda0 = 2 and lambda0 = -2 families are swapped by the mirror
    # E <-> F, G -> -G, H -> -H, so no invariant separates them
    l4f = make_l4(1, F5, [[-1]], (2, 1, -1))
    mirror = Matrix.from_cols(
        F5, [basis_vector(F5, 4, 1), basis_vector(F5, 4, 0),
             vscale(-F5.one, basis_vector(F5, 4, 2)), vscale(-F5.one, basis_vector(F5, 4, 3))]
    )
    assert iso.verify_iso(l3f, l4f, mirror)
    assert iso.are_isomorphic(l3f, l4f).is_yes


def test_lalpha_and_h5():
    La = make_Lalpha(Q, 2)
    assert La.check_jacobi() == []
    assert liecore.derived_dims(La) == (3, 2, 0)
    h5 = make_h5(F5)
    assert h5.check_jacobi() == [] and liecore.is_perfect(h5)


# -- serialization -------------------------------------------------------------------


def test_pair_roundtrip(tmp_path):
    mp = canonical_pair_m(2, F5)
    path = tmp_path / "pair.json"
    dump_pair(mp, path)
    back = load_pair(path)
    assert back == mp


def test_pair_format_errors(tmp_path):
    mp = canonical_pair_L(1, Q)
    data = mp.to_json_dict()
    data["right_action"].append(dict(data["right_action"][0]))
    path = tmp_path / "dup.json"
    import json

    path.write_text(json.dumps(data))
    with pytest.raises(FormatError):
        load_pair(path)


def test_pair_file_over_two_fields_is_a_format_error(tmp_path):
    import json

    data = canonical_pair_L(1, Q).to_json_dict()
    data["h"] = canonical_pair_L(1, F5).to_json_dict()["h"]
    path = tmp_path / "two-fields.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match=r"g is over Q and h over GF\(5\)"):
        load_pair(path)
    # a library caller still gets FieldMismatch from the constructor
    with pytest.raises(FieldMismatch):
        MatchedPair(canonical_pair_L(1, Q).g, canonical_pair_L(1, F5).h)

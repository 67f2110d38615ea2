import itertools
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import boxed_reference as boxed
from liefact.errors import BadParameter, BudgetExceeded, CharTwo, FieldMismatch, NotFinite
from liefact.exactmath import (
    Field,
    Matrix,
    Scalar,
    _box,
    basis_vector,
    enumerate_vectors,
    span_rref,
    zero_vector,
)
from boxed_reference import vadd, vscale, vsub
from liefact import deform, liecore, matched, iso
from liefact.derivations import TwistedDerivation
from liefact.deform import (
    DeformationMap,
    classify_complements,
    closed_form_defmaps_L,
    closed_form_defmaps_m,
    enumerate_deformation_maps,
    is_deformation_map,
    make_h_a,
    make_l_a,
    make_lbar_a,
    make_lbarp_b,
    make_lbarpp_c,
    make_lp_b,
    make_lpp_b,
    r_deformation,
)
from liefact.matched import canonical_pair_L, canonical_pair_m

Q = Field.rationals()
F3 = Field.gf(3)
F5 = Field.gf(5)
F7 = Field.gf(7)


def factlie_oracle(mp, r):
    """Direct transcription of the deformation compatibility, kept separate
    from the library implementation."""
    h, g = mp.h, mp.g
    f = mp.field
    for i in range(h.dim):
        x = basis_vector(f, h.dim, i)
        for j in range(h.dim):
            y = basis_vector(f, h.dim, j)
            rx, ry = r.mul_vector(x), r.mul_vector(y)
            lhs = vsub(r.mul_vector(h.bracket(x, y)), g.bracket(rx, ry))
            rhs = vadd(
                r.mul_vector(vsub(mp.act_right(y, rx), mp.act_right(x, ry))),
                vsub(mp.act_left(x, ry), mp.act_left(y, rx)),
            )
            if lhs != rhs:
                return False
    return True


def all_linear_maps(mp):
    cells = mp.g.dim * mp.h.dim
    for flat in enumerate_vectors(mp.field, cells):
        yield Matrix(
            mp.field, [flat[r * mp.h.dim : (r + 1) * mp.h.dim] for r in range(mp.g.dim)]
        )


# -- the compatibility check ------------------------------------------------------


def test_is_deformation_map_examples():
    mp = canonical_pair_L(1, Q)
    assert is_deformation_map(mp, Matrix.zeros(Q, 1, 3))
    # r(E) = aH, r(F) = 0, r(G) = H with a != 0
    assert is_deformation_map(mp, Matrix(Q, [[3, 0, 1]]))
    # r(E) = r(F) = r(G) = H violates the product constraint
    assert not is_deformation_map(mp, Matrix(Q, [[1, 1, 1]]))


def test_is_deformation_map_agrees_with_oracle_exhaustively():
    for mp in (canonical_pair_L(1, F3), canonical_pair_m(1, F3)):
        for r in all_linear_maps(mp):
            assert is_deformation_map(mp, r) == factlie_oracle(mp, r)


def test_enumeration_is_exhaustive_against_oracle():
    mp = canonical_pair_m(1, F3)
    found = {d.matrix for d in enumerate_deformation_maps(mp)}
    brute = {r for r in all_linear_maps(mp) if factlie_oracle(mp, r)}
    assert found == brute


def _trivial_action_pair(field):
    return matched.MatchedPair(liecore.LieAlgebra.abelian(field, 1, ("H",)), matched.make_l(1, field))


def _zero_g_pair(field):
    """dim g = 0: the one map is the empty 0 x dim h matrix."""
    return matched.MatchedPair(liecore.LieAlgebra.abelian(field, 0), matched.make_l(1, field))


def _h5_twisted_pair(field):
    """The line extension of the perfect 5-dim algebra by its non-inner derivation."""
    h5 = matched.make_h5(field)
    return matched.pair_from_twisted(
        h5, TwistedDerivation(zero_vector(field, 5), matched.h5_noninner_derivation(field))
    )


def _line_pair(field):
    """dim g = dim h = 1: h has no basis pair, so every map passes."""
    return matched.MatchedPair(
        liecore.LieAlgebra.abelian(field, 1, ("H",)), liecore.LieAlgebra.abelian(field, 1, ("X",))
    )


def _borel_pair(field):
    """g = span{h + h', e} (non-abelian) and h = span{f, e', f', h'} inside
    sl2 x sl2: both actions are nonzero and g has a bracket."""
    sl2 = matched.make_sl2(field)
    amb = liecore.direct_product(sl2, sl2)
    e = [basis_vector(field, amb.dim, i) for i in range(amb.dim)]
    gsub = liecore.Subspace(amb, [vadd(e[2], e[5]), e[0]])
    hsub = liecore.Subspace(amb, [e[1], e[3], e[4], e[5]])
    return matched.canonical_matched_pair(matched.Factorization(amb, gsub, hsub))


@pytest.mark.parametrize(
    "mp", [canonical_pair_L(2, F3), _borel_pair(F3)], ids=["L2-GF3", "borel-GF3"]
)
def test_enumeration_equals_oracle_sweep_in_order(mp):
    found = [d.matrix for d in enumerate_deformation_maps(mp)]
    assert found == [r for r in all_linear_maps(mp) if factlie_oracle(mp, r)]


ORACLE_PAIRS = {
    "L1": lambda f: canonical_pair_L(1, f),
    "L2": lambda f: canonical_pair_L(2, f),
    "m1": lambda f: canonical_pair_m(1, f),
    "m2": lambda f: canonical_pair_m(2, f),
    "trivial": _trivial_action_pair,
    "borel": _borel_pair,
}


def _entries(field):
    # zeros are frequent, so that a fair share of the maps pass the check
    if field.is_finite:
        return st.one_of(st.just(0), st.integers(0, field.p - 1))
    return st.one_of(
        st.just(0), st.integers(-3, 3), st.builds(Fraction, st.integers(-9, 9), st.integers(2, 9))
    )


@pytest.mark.parametrize("field", [F3, F7, Q], ids=["GF3", "GF7", "Q"])
@pytest.mark.parametrize("pair", sorted(ORACLE_PAIRS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_is_deformation_map_agrees_with_oracle_on_random_maps(pair, field, data):
    mp = ORACLE_PAIRS[pair](field)
    entries = _entries(field)
    rows = data.draw(
        st.lists(
            st.lists(entries, min_size=mp.h.dim, max_size=mp.h.dim),
            min_size=mp.g.dim,
            max_size=mp.g.dim,
        )
    )
    r = Matrix(field, rows)
    assert is_deformation_map(mp, r) == factlie_oracle(mp, r)


def test_is_deformation_map_rejects_a_map_over_another_field():
    # with dim h = 1 no equation is evaluated, so only the boundary check sees this
    with pytest.raises(FieldMismatch):
        is_deformation_map(_line_pair(F5), Matrix(F7, [[1]]))
    with pytest.raises(FieldMismatch):
        is_deformation_map(canonical_pair_L(1, F5), Matrix(F7, [[1, 0, 1]]))
    with pytest.raises(FieldMismatch):
        is_deformation_map(canonical_pair_L(1, F5), Matrix.zeros(F7, 1, 3))


def test_sweep_with_zero_dimensional_g():
    # one map, the empty 0 x dim h matrix; it satisfies the (empty) compatibility
    mp = _zero_g_pair(F5)
    maps = enumerate_deformation_maps(mp)
    assert [(d.matrix.nrows, d.matrix.ncols) for d in maps] == [(0, 3)]


def test_zero_map_from_a_zero_dimensional_g_is_a_deformation_map():
    mp = _zero_g_pair(F5)
    assert is_deformation_map(mp, Matrix.zeros(F5, 0, 3))


def test_sweep_over_a_large_prime_field():
    big = Field.gf(4099)
    maps = enumerate_deformation_maps(_line_pair(big))
    assert len(maps) == 4099
    entries = [d.matrix.rows[0][0] for d in maps]
    assert all(isinstance(x, Scalar) and x.field is big for x in entries)
    assert [x.value for x in entries] == list(range(4099))


def test_counts_and_partitions():
    maps_L = enumerate_deformation_maps(canonical_pair_L(1, F5))
    assert len(maps_L) == 29
    maps_m = enumerate_deformation_maps(canonical_pair_m(1, F5))
    assert len(maps_m) == 13
    for p, expected in ((3, 7), (5, 13), (7, 19)):
        assert len(enumerate_deformation_maps(canonical_pair_m(1, Field.gf(p)))) == expected


def test_trivial_action_pair_maps_kill_derived():
    maps = enumerate_deformation_maps(_trivial_action_pair(F5))
    assert len(maps) == 5
    for d in maps:
        assert d.matrix.col(0) == (F5.zero,) and d.matrix.col(1) == (F5.zero,)


def test_budget_and_field_gates():
    with pytest.raises(BudgetExceeded) as err:
        enumerate_deformation_maps(canonical_pair_L(1, F5), budget=10)
    assert err.value.required == 11


def test_sweep_budget_error_names_the_pair():
    with pytest.raises(BudgetExceeded) as err:
        enumerate_deformation_maps(canonical_pair_L(2, F5), budget=10)
    assert str(err.value) == (
        "deformation search of dim g = 1, dim h = 5 over GF(5): "
        "budget 10 exceeded after 11 nodes, deepest level 5 of 5"
    )
    assert err.value.required == 11
    with pytest.raises(NotFinite):
        enumerate_deformation_maps(canonical_pair_L(1, Q))


@pytest.mark.parametrize(
    "pair, nodes, maps",
    [(canonical_pair_L, 241, 149), (canonical_pair_m, 145, 53)],
    ids=["L6", "m6"],
)
def test_budget_counts_search_nodes(pair, nodes, maps):
    # the n = 2 pairs over GF(5) finish within exactly this many nodes
    mp = pair(2, F5)
    assert len(enumerate_deformation_maps(mp, budget=nodes)) == maps
    with pytest.raises(BudgetExceeded) as err:
        enumerate_deformation_maps(mp, budget=nodes - 1)
    assert err.value.required == nodes


SWEPT_CANONICAL = [(1, 3), (1, 5), (1, 7), (2, 3), (2, 5), (2, 7), (3, 3), (3, 5)]
SWEPT_PAIRS = {
    **{f"L{n}-GF{p}": partial(canonical_pair_L, n, Field.gf(p)) for n, p in SWEPT_CANONICAL},
    **{f"m{n}-GF{p}": partial(canonical_pair_m, n, Field.gf(p)) for n, p in SWEPT_CANONICAL},
    "borel-GF3": partial(_borel_pair, F3),
    "trivial-GF5": partial(_trivial_action_pair, F5),
    "line-GF4099": partial(_line_pair, Field.gf(4099)),
    "zero-g-GF5": partial(_zero_g_pair, F5),
    "h5-GF7": partial(_h5_twisted_pair, F7),
}


@pytest.mark.parametrize("pair", list(SWEPT_PAIRS))
def test_search_equals_the_exhaustive_sweep(pair):
    mp = SWEPT_PAIRS[pair]()
    found = [d.matrix for d in enumerate_deformation_maps(mp)]
    assert found == [d.matrix for d in boxed.sweep_deformation_maps(mp)]


# -- closed forms ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "p, n", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (7, 3), (3, 4), (5, 4), (7, 4)]
)
def test_closed_forms_equal_enumeration(p, n):
    # at n = 4 over GF(7) there are 7^9, about 40 M, linear maps h -> g, four times
    # the default budget of 10^7 nodes, so only a search that prunes finishes
    field = Field.gf(p)
    for families, pair, count in (
        (closed_form_defmaps_L(n, field), canonical_pair_L(n, field), p**n - 1 + p ** (n + 1)),
        (closed_form_defmaps_m(n, field), canonical_pair_m(n, field), 2 * (p**n - 1) + p),
    ):
        found = [d.matrix for d in enumerate_deformation_maps(pair)]
        enumerated = set(found)
        assert len(found) == len(enumerated) == count
        union = set()
        for fam in families:
            members = {d.matrix for d in fam.enumerate()}
            assert members <= enumerated
            assert not (members & union)
            union |= members
        assert union == enumerated


def test_closed_form_instances():
    fams = {f.label: f for f in closed_form_defmaps_m(1, F5)}
    zero = fams["c"].instance(F5.zero)
    assert zero.matrix.is_zero()
    inst = fams["a"].instance((F5.scalar(2),))
    assert inst.matrix == Matrix(F5, [[2, 0, 1]])

    fams_L = {f.label: f for f in closed_form_defmaps_L(2, F5)}
    inst2 = fams_L["a"].instance((F5.one, F5.one))
    assert inst2.matrix == Matrix(F5, [[1, 1, 0, 0, 1]])

    with pytest.raises(BadParameter):
        fams["a"].instance((F5.zero,))
    with pytest.raises(CharTwo):
        closed_form_defmaps_L(1, Field.gf(2))


# -- r-deformations ----------------------------------------------------------------------


def test_zero_deformation_is_identity():
    mp = canonical_pair_L(2, F5)
    d = DeformationMap(mp, Matrix.zeros(F5, 1, 5))
    assert r_deformation(mp, d).same_brackets(matched.make_l(2, F5))


def test_deformed_family_brackets():
    mp = canonical_pair_L(1, Q)
    d = DeformationMap(mp, Matrix(Q, [[1, 0, 1]]))
    alg = r_deformation(mp, d)
    assert alg.same_brackets(make_l_a(Q, [1]))
    E, F, G = (basis_vector(Q, 3, i) for i in range(3))
    assert alg.bracket(E, F) == vscale(-Q.one, F)
    assert alg.bracket(E, G) == vscale(-Q.one, G)
    assert alg.bracket(F, G) == zero_vector(Q, 3)

    # b = 0, c = 1 gives the abelian algebra
    d2 = DeformationMap(mp, Matrix(Q, [[0, 0, 1]]))
    assert not list(r_deformation(mp, d2).sc_pairs())


def test_family_builders_match_their_deformation_maps():
    mpL = canonical_pair_L(1, F5)
    famsL = {f.label: f for f in closed_form_defmaps_L(1, F5)}
    one = F5.one
    assert r_deformation(mpL, famsL["a"].instance((one,))).same_brackets(make_l_a(F5, [1]))
    # the primed family is the (b, c = 2) deformation on the nose
    assert r_deformation(mpL, famsL["bc"].instance((one,), F5.scalar(2))).same_brackets(
        make_lp_b(F5, [1])
    )
    assert r_deformation(mpL, famsL["bc"].instance((one,), one)).same_brackets(
        make_lpp_b(F5, [1])
    )

    mpm = canonical_pair_m(1, F5)
    famsm = {f.label: f for f in closed_form_defmaps_m(1, F5)}
    two = F5.scalar(2)
    assert r_deformation(mpm, famsm["a"].instance((two,))).same_brackets(make_lbar_a(F5, [2]))
    assert r_deformation(mpm, famsm["b"].instance((two,))).same_brackets(make_lbarp_b(F5, [2]))
    assert r_deformation(mpm, famsm["c"].instance(two)).same_brackets(make_lbarpp_c(F5, 2))


def test_h5_deformations():
    mp = _h5_twisted_pair(F7)
    maps = enumerate_deformation_maps(mp)
    assert len(maps) == 7
    for d in maps:
        alg = r_deformation(mp, d)
        assert alg.check_jacobi() == []
        if not d.matrix.is_zero():
            assert liecore.derived_dims(alg)[1] == 3
            a = d.matrix.rows[0][0]
            assert alg.same_brackets(make_h_a(F7, a))

    assert liecore.derived_dims(make_h_a(Q, 1))[1] == 3
    with pytest.raises(BadParameter):
        make_h_a(Q, 0)


def test_remark_zero_parameter_members():
    assert not list(make_lpp_b(F5, [0]).sc_pairs())
    # the printed primed family at b = 0 is l(3) after flipping G
    lp0 = make_lp_b(F5, [0])
    l3 = matched.make_l(1, F5)
    flip = Matrix.from_cols(
        F5,
        [basis_vector(F5, 3, 0), basis_vector(F5, 3, 1), vscale(-F5.one, basis_vector(F5, 3, 2))],
    )
    assert lp0.change_basis(flip, names=l3.basis_names) == l3
    assert iso.are_isomorphic(lp0, l3).is_yes


# -- classification -------------------------------------------------------------------------


def test_classification_small_field():
    report = classify_complements(canonical_pair_L(1, F3))
    assert report.index == 3
    assert sum(report.class_sizes) == report.deformation_count == 11
    for rep in report.representatives:
        assert rep.check_jacobi() == []


def test_classification_order_independence(monkeypatch):
    a = classify_complements(canonical_pair_m(1, F5))
    sweep = deform.enumerate_deformation_maps
    monkeypatch.setattr(
        deform, "enumerate_deformation_maps", lambda mp, budget: sweep(mp, budget)[::-1]
    )
    b = classify_complements(canonical_pair_m(1, F5))
    # the reversed sweep meets the classes in another order
    assert a.class_sizes != b.class_sizes
    assert a.index == b.index
    fps = lambda rep: sorted(iso.fingerprint(x).as_tuple() for x in rep.representatives)
    assert fps(a) == fps(b)
    assert sorted(a.class_sizes) == sorted(b.class_sizes)


def test_classification_infinite_registered():
    report = classify_complements(canonical_pair_m(1, Q))
    assert report.infinite and report.index is None
    assert report.index_str() == "infinite"
    assert len(report.representatives) >= 3
    assert all(liecore.almost_abelian(rep) is not None for rep in report.representatives)
    # the samples are pairwise non-isomorphic, decided over Q with no search
    for a, b in itertools.combinations(report.representatives, 2):
        res = iso.are_isomorphic(a, b)
        assert (res.verdict, res.searched) == ("no", 0)

    with pytest.raises(NotFinite):
        classify_complements(canonical_pair_L(1, Q))


def test_factorization_index_of_L6_over_gf3():
    # L(6), the n = 2 pair: every r-deformation but the abelian one is almost
    # abelian, so the fingerprint or the kept form of ad on the derived
    # algebra answers each "no" between classes and each "yes", with a
    # verified witness and no search
    report = classify_complements(canonical_pair_L(2, F3))
    assert (report.deformation_count, report.index, report.class_sizes) == (35, 3, [26, 1, 8])
    reps = report.representatives
    for a, b in itertools.combinations(reps, 2):
        res = iso.are_isomorphic(a, b)
        assert res.verdict == "no" and res.searched == 0


def test_factorization_index_of_L6_over_gf5():
    # with the complete search deciding each almost abelian pair, this raised
    # BudgetExceeded after 21 s, at map 126 of 149 against representative 2;
    # the kept forms decide every pair with no search (0.1 s on a 2-core Xeon)
    report = classify_complements(canonical_pair_L(2, F5))
    assert (report.deformation_count, report.index, report.class_sizes) == (149, 3, [124, 1, 24])
    for a, b in itertools.combinations(report.representatives, 2):
        res = iso.are_isomorphic(a, b)
        assert (res.verdict, res.searched) == ("no", 0)


def test_classification_budget_names_its_context():
    # the almost abelian pairs and those with dim [L, L] <= 1 are decided
    # without a search, so the budget is hit on the n = 2 m pair's
    # deformations with a 2-dimensional derived algebra
    with pytest.raises(BudgetExceeded) as err:
        classify_complements(canonical_pair_m(2, F3), iso_budget=1)
    msg = str(err.value)
    assert msg.startswith(
        "isomorphism search inconclusive: budget 1 exceeded after 2 nodes, and from b to a after 2"
    )
    assert "deformation map at sweep index 2 of 19" in msg
    assert "class representative index 1" in msg
    assert "shared fingerprint (5, (5, 2, 0), (5, 2, 2), 2, 3, 1)" in msg
    # on the n = 1 pairs every deformation is almost abelian or has
    # dim [L, L] <= 1: no search runs, whatever the budget
    assert classify_complements(canonical_pair_L(1, F5), iso_budget=1).class_sizes == [24, 1, 4]
    m4 = canonical_pair_m(1, F5)
    assert (
        classify_complements(m4, iso_budget=1).class_sizes
        == classify_complements(m4).class_sizes
        == [1, 10, 2]
    )


def test_classification_computes_each_series_once_per_deformation(monkeypatch):
    # the representatives are deformations too, so comparing each deformation
    # with every representative adds no series computation; ids are not
    # counted because a freed deformation's id can be reused
    mp = canonical_pair_L(1, F5)
    calls = []
    series = liecore._series

    def counted(algebra, step):
        calls.append(1)
        return series(algebra, step)

    monkeypatch.setattr(liecore, "_series", counted)
    report = classify_complements(mp)
    assert report.deformation_count == 29 and report.class_sizes == [24, 1, 4]
    # one derived series per r-deformation; the fingerprint of an almost
    # abelian one is read off its kept form, so only the abelian one has a
    # lower central series
    assert len(calls) == 29 + 1


def test_ad_ratio_invariant():
    # the charpoly of ad on the derived algebra, up to c_i -> c^i c_i, is
    # invariant under the alpha <-> 1/alpha symmetry and separates other ratios
    two, three = Q.scalar(2), Q.scalar(3)
    l2 = matched.make_Lalpha(Q, two)
    linv = matched.make_Lalpha(Q, two.inverse())
    l3a = matched.make_Lalpha(Q, three)
    # ad(z) = diag(-1, -2) on span(x, y): t^2 + 3t + 2, so (c_1^2, c_2) = (tr^2, det)
    assert _box(Q, liecore.almost_abelian(l2).charpoly) == (3, 2)
    res = iso.are_isomorphic(l2, linv)
    assert (res.verdict, res.searched) == ("yes", 0) and iso.verify_iso(l2, linv, res.witness)
    res = iso.are_isomorphic(l2, l3a)
    assert (res.verdict, res.searched) == ("no", 0)
    assert res.certificate.startswith("ad(z) on the derived algebra has charpoly coefficients (3, 2)")


def test_every_deformation_embeds_as_complement():
    """Constructive instance check of the complement correspondence: the
    graph {(r(x), x)} of a deformation map is a subalgebra of the bicrossed
    product, carries exactly the deformed bracket, and complements g."""
    for mp in (canonical_pair_L(1, F3), canonical_pair_m(1, F3)):
        bi = matched.bicrossed_product(mp)
        dg, dh = mp.g.dim, mp.h.dim
        gsub = liecore.Subspace(bi, [basis_vector(F3, bi.dim, j) for j in range(dg)])
        for d in enumerate_deformation_maps(mp):
            deformed = r_deformation(mp, d)
            cols = [tuple(d.matrix.col(i)) + tuple(basis_vector(F3, dh, i)) for i in range(dh)]
            graph = liecore.LinearMap(deformed, bi, Matrix.from_cols(F3, cols))
            assert graph.is_lie_morphism()
            assert graph.matrix.rank() == dh
            image = liecore.Subspace(bi, [graph.matrix.col(i) for i in range(dh)])
            assert image.is_subalgebra()
            assert image.sum_with(gsub).dim == bi.dim


def test_n1_isomorphism_classes_explicit():
    # over GF(7): every nonzero a-member is one class, every nonzero
    # (double-)primed member collapses onto the recorded representative
    l3 = matched.make_l(1, F7)
    for a in range(1, 7):
        assert iso.are_isomorphic(make_l_a(F7, [a]), make_l_a(F7, [1])).is_yes
    assert iso.are_isomorphic(make_l_a(F7, [1]), l3).verdict == "no"
    for b in range(1, 7):
        assert iso.are_isomorphic(make_lp_b(F7, [b]), make_lp_b(F7, [1])).is_yes
        assert iso.are_isomorphic(make_lpp_b(F7, [b]), l3).is_yes
    assert iso.are_isomorphic(make_lp_b(F7, [1]), l3).is_yes


def test_r_deformation_rejects_invalid_map():
    from liefact.errors import InvalidDeformationMap

    mp = canonical_pair_L(1, Q)
    with pytest.raises(InvalidDeformationMap, match="compatibility"):
        r_deformation(mp, DeformationMap(mp, Matrix(Q, [[1, 1, 1]])))
    from liefact.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        is_deformation_map(mp, Matrix.zeros(Q, 2, 3))
    # the zero map is compatible with any actions; here h fails Jacobi, and
    # so does its deformation by 0
    g = liecore.LieAlgebra.abelian(F7, 1)
    h = liecore.LieAlgebra(F7, ("e1", "e2", "e3"), {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    assert h.check_jacobi()
    bad = matched.MatchedPair(g, h)
    zero = Matrix.zeros(F7, 1, 3)
    assert is_deformation_map(bad, zero)
    with pytest.raises(InvalidDeformationMap, match="Jacobi"):
        r_deformation(bad, DeformationMap(bad, zero))


def _deformed_by_the_public_constructor(mp, r: Matrix) -> liecore.LieAlgebra:
    """[x, y] + x <| r(y) - y <| r(x) on boxed vectors, through the public
    LieAlgebra constructor, which coerces and checks every entry."""
    h, dim = mp.h, mp.h.dim
    e = [basis_vector(mp.field, dim, i) for i in range(dim)]
    brackets = {
        (i, j): vsub(
            vadd(h.bracket(e[i], e[j]), mp.act_right(e[i], r.col(j))), mp.act_right(e[j], r.col(i))
        )
        for i, j in itertools.combinations(range(dim), 2)
    }
    return liecore.LieAlgebra(mp.field, h.basis_names, brackets)


def _typed(table) -> list:
    """Raw vectors with the type of each entry, so that 2 and Fraction(2) differ."""
    return [[(x, type(x)) for x in v] for v in table]


def test_r_deformation_builds_what_the_public_constructor_builds():
    cases = [(r_deformation(mp, d), mp, d.matrix) for mp in (canonical_pair_L(1, F5), canonical_pair_m(1, F7))
             for d in enumerate_deformation_maps(mp)]
    # make_lbarpp_c deforms the m-pair over Q by r(G) = cH
    mq = canonical_pair_m(1, Q)
    cases += [(make_lbarpp_c(Q, c), mq, deform._m_c(Q, 1, Q.scalar(c))) for c in (0, 1, -2, Fraction(3, 4))]
    assert len(cases) == 29 + 19 + 4
    for got, mp, r in cases:
        want = _deformed_by_the_public_constructor(mp, r)
        assert got.basis_names == want.basis_names and got.dim == want.dim
        assert list(got._sc) == list(want._sc)
        assert _typed(got._sc.values()) == _typed(want._sc.values())
        assert [_typed(row) for row in got._table] == [_typed(row) for row in want._table]


def test_representatives_pairwise_non_isomorphic():
    report = classify_complements(canonical_pair_m(1, F5))
    reps = report.representatives
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert are_isomorphic_no(reps[i], reps[j])


def are_isomorphic_no(a, b):
    return iso.are_isomorphic(a, b).verdict == "no"


def test_solvability_effects_of_deformation():
    # deformation can change the solvability class: the perfect 5-dim algebra
    # deforms onto 3-step solvable algebras
    assert liecore.solvable_length(make_h_a(Q, 2)) == 3
    assert liecore.is_perfect(matched.make_h5(Q))
    # the a-family at n = 1 is 3-dimensional, so its derived length is at most 2
    assert liecore.solvable_length(make_l_a(Q, [1])) == 2
    assert liecore.is_metabelian(make_l_a(Q, [1]))


def _table_bracket(alg, x, y):
    """[x, y] expanded bilinearly from bracket_basis alone."""
    out = zero_vector(alg.field, alg.dim)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                out = vadd(out, vscale(xi * yj, alg.bracket_basis(i, j)))
    return out


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
@pytest.mark.parametrize(
    "a",
    [[1], ["-1/2"], [1, 0], [2, 3], [0, 1, 0], [1, 2, 4], ["1/3", -1, 2]],
)
def test_l_a_is_metabelian_from_the_table(field, a):
    # Oracle for the catalog's derived value l_a_solvable_length = 2, read from
    # the bracket table only: W = span{a_i E_j - a_j E_i, F_j, G} holds every
    # basis bracket (so L' is inside W) and is abelian (so L'' = 0).
    alg = make_l_a(field, a)
    n = len(a)
    av = [field.scalar(x) for x in a]
    e = [basis_vector(field, alg.dim, k) for k in range(alg.dim)]
    w = [vsub(vscale(av[i], e[j]), vscale(av[j], e[i])) for i in range(n) for j in range(i + 1, n)]
    w += e[n:]
    rank_w = len(span_rref(field, w))
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert len(span_rref(field, w + [alg.bracket_basis(i, j)])) == rank_w
    zero = zero_vector(field, alg.dim)
    for x in w:
        for y in w:
            assert _table_bracket(alg, x, y) == zero

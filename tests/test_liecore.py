import copy
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import boxed_reference as boxed
from liefact.errors import CharTwo, DimensionMismatch, FieldMismatch, FormatError
from liefact.exactmath import (
    Field,
    Matrix,
    Scalar,
    _box,
    _intersect_rows,
    basis_vector,
    span_rref,
    zero_vector,
)
from boxed_reference import is_zero_vector, vadd
from liefact import liecore, matched, deform
from liefact.liecore import (
    BilinearForm,
    LieAlgebra,
    LinearMap,
    Subspace,
    center,
    derived_dims,
    derived_series,
    direct_product,
    invariant_bilinear_forms,
    is_metabelian,
    is_perfect,
    is_product_structure,
    lower_central_series,
    self_dual,
    solvable_length,
    split_product_structure,
    subalgebra_structure,
)

Q = Field.rationals()
F2 = Field.gf(2)
F3 = Field.gf(3)
F5 = Field.gf(5)


def jacobi_defect_oracle(alg, i, j, l):
    """Direct expansion of one Jacobi triple, independent of check_jacobi."""
    ei = basis_vector(alg.field, alg.dim, i)
    ej = basis_vector(alg.field, alg.dim, j)
    el = basis_vector(alg.field, alg.dim, l)
    term1 = alg.bracket(alg.bracket(ei, ej), el)
    term2 = alg.bracket(alg.bracket(ej, el), ei)
    term3 = alg.bracket(alg.bracket(el, ei), ej)
    return vadd(vadd(term1, term2), term3)


# -- bracket ------------------------------------------------------------------


def test_bracket_on_l3():
    l3 = matched.make_l(1, Q)
    E, F, G = (basis_vector(Q, 3, i) for i in range(3))
    assert l3.bracket(E, G) == E
    assert l3.bracket(G, F) == F
    assert l3.bracket(G, E) == tuple(-x for x in E)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=3, max_size=3))
def test_bracket_alternating(coords):
    l3 = matched.make_l(1, F5)
    x = tuple(F5.scalar(c) for c in coords)
    assert is_zero_vector(l3.bracket(x, x))


def test_bracket_antisymmetric_on_full_basis():
    for alg in (matched.make_l(2, Q), matched.make_h5(Q), matched.make_sl2(F5)):
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = alg.bracket_basis(i, j)
                rhs = tuple(-x for x in alg.bracket_basis(j, i))
                assert lhs == rhs


@st.composite
def gf5_structure_constants(draw):
    """Random antisymmetric structure constants (Jacobi not imposed)."""
    dim = draw(st.integers(1, 5))
    vectors = st.lists(st.integers(0, 4), min_size=dim, max_size=dim)
    return dim, {pair: draw(vectors) for pair in itertools.combinations(range(dim), 2)}


@settings(max_examples=40, deadline=None)
@given(gf5_structure_constants())
def test_bracket_table_matches_sparse_bracket(data):
    dim, brackets = data
    alg = LieAlgebra(F5, [f"e{k}" for k in range(dim)], brackets)
    e = [basis_vector(F5, dim, k) for k in range(dim)]
    for i in range(dim):
        assert alg.ad_basis(i) == alg.ad(e[i])
        for j in range(dim):
            assert alg.bracket_basis(i, j) == alg.bracket(e[i], e[j])


@st.composite
def raw_and_boxed_inputs(draw):
    """An algebra with random structure constants (Jacobi not imposed) over Q
    or GF(p), two vectors, two lists of vectors spanning subspaces, and a
    random square matrix."""
    field = draw(st.sampled_from((Q, F2, F5, Field.gf(2**31 - 1))))
    dim = draw(st.integers(1, 4))
    if field is Q:
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        entry = st.integers(0, field.p - 1) | st.just(field.p - 1)
    vector = st.lists(entry, min_size=dim, max_size=dim).map(
        lambda v: tuple(field.scalar(x) for x in v)
    )
    pairs = itertools.combinations(range(dim), 2)
    alg = LieAlgebra(field, [f"e{k}" for k in range(dim)], {pair: draw(vector) for pair in pairs})
    vectors = st.lists(vector, max_size=dim + 1)
    square = Matrix(field, draw(st.lists(vector, min_size=dim, max_size=dim)))
    return alg, draw(vector), draw(vector), draw(vectors), draw(vectors), square


def _boxed_in(field, vectors):
    return all(isinstance(x, Scalar) and x.field is field for v in vectors for x in v)


@settings(max_examples=60, deadline=None)
@given(raw_and_boxed_inputs())
def test_raw_paths_match_the_boxed_reference(inputs):
    alg, x, y, us, vs, square = inputs
    f, n = alg.field, alg.dim
    e = [basis_vector(f, n, j) for j in range(n)]
    assert alg.bracket(x, y) == boxed.bracket(alg, x, y)
    assert alg.ad(x) == Matrix.from_cols(f, [boxed.bracket(alg, x, ej) for ej in e])
    assert _boxed_in(f, [alg.bracket(x, y)] + list(alg.ad(x).rows))
    a, b = Subspace(alg, us), Subspace(alg, vs)
    for space, vectors in ((a, us), (b, vs)):
        assert list(space.basis) == boxed.span_rref(f, vectors) == span_rref(f, vectors)
        assert _boxed_in(f, space.basis)
    inside = boxed.lincomb(x, a.basis, zero_vector(f, n))
    for v in (x, y, inside):
        coords = a.coordinates(v)
        assert coords == boxed.coordinates(a.basis, v)
        assert a.contains(v) == (coords is not None)
        assert coords is None or _boxed_in(f, [coords])
    assert a.contains(inside)
    both = boxed.intersect_spans(f, list(a.basis), list(b.basis), n)
    assert [_box(f, row) for row in _intersect_rows(f, a.rows, b.rows, n)] == both
    for left, right in ((a, b), (a, a)):
        # with itself, bracket_with takes unordered pairs; the span is the same
        assert list(left.bracket_with(right).basis) == boxed.span_rref(
            f, [boxed.bracket(alg, u, v) for u in left.basis for v in right.basis]
        )
    assert a.sum_with(b) == Subspace(alg, us + vs)
    form, endo = BilinearForm(alg, square), LinearMap(alg, alg, square)
    value = form.evaluate(x, y)
    assert value == boxed.evaluate(form, x, y) and _boxed_in(f, [(value,)])
    assert endo.is_lie_morphism() == boxed.is_lie_morphism(endo)
    assert is_product_structure(alg, endo) == boxed.is_product_structure(alg, endo)


# -- Jacobi -------------------------------------------------------------------


def test_jacobi_valid_cases():
    assert LieAlgebra.abelian(Q, 3).check_jacobi() == []
    assert matched.make_l(2, Q).check_jacobi() == []


def test_jacobi_broken_table():
    bad = LieAlgebra.from_named_brackets(
        Q,
        ("e1", "e2", "e3"),
        {("e1", "e2"): [("e3", 1)], ("e1", "e3"): [("e1", 1)]},
    )
    report = bad.check_jacobi()
    assert report, "deliberately broken table must be flagged"
    i, j, l, defect = report[0]
    assert (i, j, l) == (0, 1, 2)
    assert defect == jacobi_defect_oracle(bad, 0, 1, 2)
    assert not is_zero_vector(defect)


def test_check_jacobi_report_is_stable():
    # L(4) over GF(5) with [G, H] = G + 2H instead of G + H; records as
    # produced before the bracket table existed, in the same order
    L4 = matched.make_L(1, F5)
    brackets = dict(L4.sc_pairs())
    brackets[(2, 3)] = (0, 0, 1, 2)
    corrupted = LieAlgebra(F5, L4.basis_names, brackets)
    assert corrupted.check_jacobi() == [
        (0, 2, 3, (1, 0, 0, 0)),
        (1, 2, 3, (0, 4, 0, 0)),
    ]


def test_check_jacobi_matches_oracle_on_zoo():
    for alg in (matched.make_L(1, F5), matched.make_m(2, F3), deform.make_h_a(Q, 2)):
        assert alg.check_jacobi() == []
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                for l in range(j + 1, alg.dim):
                    assert is_zero_vector(jacobi_defect_oracle(alg, i, j, l))


def test_the_jacobi_identity_is_swept_once_per_algebra(monkeypatch):
    sweeps = []
    jacobiator = LieAlgebra._jacobiator
    monkeypatch.setattr(
        LieAlgebra, "_jacobiator", lambda alg, *t: sweeps.append(t) or jacobiator(alg, *t)
    )
    for made in (matched.make_L(1, Q), matched.make_sl2(F5)):
        # a new algebra of the same brackets, with nothing kept on it yet
        alg = LieAlgebra(made.field, made.basis_names, dict(made.sc_pairs()))
        sweeps.clear()
        first = alg.check_jacobi()
        invariant_bilinear_forms(alg)
        self_dual(alg)
        assert alg.check_jacobi() == first == [] and alg.check_jacobi() is not first
        assert sorted(sweeps) == list(itertools.combinations(range(alg.dim), 3))
    # a failing bracket: the kept report cannot be changed through a returned list
    bad = LieAlgebra(F2, ("e0", "e1", "e2"), {(0, 1): (0, 1, 1), (0, 2): (1, 0, 0), (1, 2): (0, 0, 1)})
    sweeps.clear()
    report = bad.check_jacobi()
    assert report and len(sweeps) == 1
    report.clear()
    assert invariant_bilinear_forms(bad) == [] and bad.check_jacobi() and len(sweeps) == 1


# -- series, center, predicates --------------------------------------------------


def test_derived_series_l3():
    l3 = matched.make_l(1, Q)
    assert derived_dims(l3) == (3, 2, 0)
    assert solvable_length(l3) == 2
    assert is_metabelian(l3)
    # the derived subalgebra is the span of E and F, which is abelian
    d1 = derived_series(l3)[1]
    assert d1.basis == (basis_vector(Q, 3, 0), basis_vector(Q, 3, 1))


def test_solvable_length_counts_steps_to_the_first_zero_term():
    # the zero algebra's series is (0, 0): no step is needed to reach 0
    zero = LieAlgebra(Q, (), {})
    assert derived_dims(zero) == (0, 0)
    assert solvable_length(zero) == 0
    abelian = LieAlgebra(Q, ("x", "y"), {})
    assert derived_dims(abelian) == (2, 0)
    assert solvable_length(abelian) == 1
    assert is_metabelian(zero) and is_metabelian(abelian)
    # a perfect algebra's series stalls at itself: no length, not metabelian
    sl2 = matched.make_sl2(Q)
    assert derived_dims(sl2) == (3, 3)
    assert solvable_length(sl2) is None
    assert not is_metabelian(sl2)


def test_derived_series_deformed_family():
    # computed truth for the a-family deformation; see the acceptance notes
    # for the diverging recorded expectation
    la = deform.make_l_a(Q, [1])
    assert derived_dims(la) == (3, 2, 0)
    assert solvable_length(la) == 2
    # the 3-step drop does occur for the deformations of the perfect algebra
    ha = deform.make_h_a(Q, 1)
    assert derived_dims(ha) == (5, 3, 1, 0)
    assert solvable_length(ha) == 3
    assert not is_metabelian(ha)


def test_h5_perfect():
    h5 = matched.make_h5(Q)
    assert derived_dims(h5) == (5, 5)
    assert is_perfect(h5)
    for n in (1, 2, 3):
        assert not is_perfect(matched.make_l(n, Q))


def test_lower_central_series():
    l3 = matched.make_l(1, Q)
    assert tuple(s.dim for s in lower_central_series(l3)) == (3, 2, 2)
    ab = LieAlgebra.abelian(Q, 2)
    assert tuple(s.dim for s in lower_central_series(ab)) == (2, 0)


@st.composite
def bracket_tables(draw):
    """An algebra of dimension 0 to 5 over Q or GF(p) with random structure
    constants, Jacobi not imposed, some pairs bracketing to zero."""
    field = draw(st.sampled_from((Q, F2, F3, F5, Field.gf(2**31 - 1))))
    dim = draw(st.integers(0, 5))
    if field is Q:
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        entry = st.integers(0, field.p - 1)
    vector = st.lists(entry, min_size=dim, max_size=dim)
    pairs = itertools.combinations(range(dim), 2)
    brackets = {pair: draw(vector) for pair in pairs if draw(st.booleans())}
    return LieAlgebra(field, [f"e{k}" for k in range(dim)], brackets)


# each fails Jacobi on its one triple
_NOT_LIE = LieAlgebra(F2, ("e0", "e1", "e2"), {(0, 1): (0, 1, 1), (0, 2): (1, 0, 0), (1, 2): (0, 0, 1)})
_NOT_LIE_Q = LieAlgebra(
    Q, ("x", "y", "z"), {(0, 1): (1, 0, 0), (0, 2): (0, 0, Fraction(1, 2)), (1, 2): (3, 0, 0)}
)


def _rows_and_pivots(series) -> list:
    """Each term's raw rows, the types of their entries, and pivots."""
    return [(s.rows, [tuple(map(type, r)) for r in s.rows], s.pivots) for s in series]


@settings(max_examples=150, deadline=None)
@given(bracket_tables())
@example(LieAlgebra(Q, (), {}))
@example(LieAlgebra(F5, ("x",), {}))
@example(_NOT_LIE)
@example(_NOT_LIE_Q)
def test_series_match_the_ordered_pair_oracle(alg):
    # [L, L] from the stored brackets and [S, S] over unordered pairs give the
    # rows and pivots that brackets over every ordered pair give, Jacobi or not
    assert _rows_and_pivots(derived_series(alg)) == _rows_and_pivots(boxed.derived_series_ordered(alg))
    assert _rows_and_pivots(lower_central_series(alg)) == _rows_and_pivots(
        boxed.lower_central_series_ordered(alg)
    )


def test_the_ordered_pair_oracle_covers_small_and_non_lie_algebras():
    assert _NOT_LIE.check_jacobi() and _NOT_LIE_Q.check_jacobi()
    assert derived_dims(_NOT_LIE) == (3, 3)
    assert [s.dim for s in boxed.derived_series_ordered(LieAlgebra(Q, (), {}))] == [0, 0]
    assert [s.dim for s in boxed.lower_central_series_ordered(LieAlgebra(F5, ("x",), {}))] == [1, 0]


def test_center():
    assert center(LieAlgebra.abelian(Q, 4)).dim == 4
    assert center(matched.make_sl2(F5)).dim == 0
    assert center(matched.make_l(1, Q)).dim == 0


def test_subspace_equality_is_canonical():
    l3 = matched.make_l(1, Q)
    one, two = Q.one, Q.scalar(2)
    a = Subspace(l3, [(one, one, Q.zero), (one, -one, Q.zero)])
    b = Subspace(l3, [(one, Q.zero, Q.zero), (two, two, Q.zero)])
    assert a == b and a.dim == 2


def test_subspaces_of_two_ambient_dimensions_differ():
    # both zero subspaces have no rows; only the ambient dimension tells them apart
    zero3 = Subspace(matched.make_sl2(F5), [])
    zero2 = Subspace(LieAlgebra.abelian(F5, 2), [])
    assert zero3 != zero2 and len({zero3, zero2}) == 2
    assert zero3 == Subspace(LieAlgebra.abelian(F5, 3), [])


def test_subalgebra_structure_names_and_closure():
    L4 = matched.make_L(1, Q)
    hsub = Subspace(L4, [basis_vector(Q, 4, i) for i in range(3)])
    sub = subalgebra_structure(L4, hsub)
    assert sub.basis_names == ("E", "F", "G")
    assert sub.same_brackets(matched.make_l(1, Q))
    bad = Subspace(matched.make_sl2(Q), [basis_vector(Q, 3, 0), basis_vector(Q, 3, 1)])
    with pytest.raises(FormatError):
        subalgebra_structure(matched.make_sl2(Q), bad)


# -- invariant forms and self-duality ----------------------------------------------


def test_invariant_forms_abelian_and_l3():
    assert len(invariant_bilinear_forms(LieAlgebra.abelian(Q, 2))) == 4
    forms = invariant_bilinear_forms(matched.make_l(1, Q))
    assert forms
    E = basis_vector(Q, 3, 0)
    for form in forms:
        assert form.is_invariant()
        for k in range(3):
            assert not form.evaluate(E, basis_vector(Q, 3, k))


@st.composite
def forms_on_algebras(draw):
    """A form on a Lie algebra or on random structure constants, over Q or
    GF(p): a random Gram, a combination of the invariant forms, or such a
    combination with one entry moved."""
    field = draw(st.sampled_from((Q, F2, F5, Field.gf(2**31 - 1))))
    makers = [matched.make_sl2, lambda f: matched.make_l(1, f), lambda f: matched.make_L(1, f),
              lambda f: LieAlgebra.abelian(f, 2), lambda f: deform.make_h_a(f, 3)]
    if field is Q:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        entry = st.integers(0, field.p - 1) | st.just(field.p - 1)
    make = draw(st.sampled_from(makers + [None]))
    if make is None:
        dim = draw(st.integers(1, 4))
        vector = st.lists(entry, min_size=dim, max_size=dim)
        pairs = itertools.combinations(range(dim), 2)
        alg = LieAlgebra(field, [f"e{k}" for k in range(dim)], {p: draw(vector) for p in pairs})
    else:
        alg = make(field)
    n = alg.dim
    kind = draw(st.sampled_from(("random", "invariant", "moved")))
    if kind == "random":
        row = st.lists(entry, min_size=n, max_size=n)
        gram = Matrix(field, draw(st.lists(row, min_size=n, max_size=n)))
    else:
        gram = Matrix.zeros(field, n, n)
        for form in invariant_bilinear_forms(alg):
            gram = gram + field.scalar(draw(entry)) * form.gram
        if kind == "moved":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows = [list(row) for row in gram.rows]
            rows[i][j] = rows[i][j] + field.one
            gram = Matrix(field, rows)
    return BilinearForm(alg, gram)


@settings(max_examples=150, deadline=None)
@given(forms_on_algebras())
def test_raw_invariance_matches_the_boxed_reference(form):
    assert form.is_invariant() == boxed.is_invariant(form)


@st.composite
def algebras_for_forms(draw):
    """Over Q or GF(p): a family algebra in a random basis (the canonical
    one when the drawn matrix is singular), or small random structure
    constants, most of which fail the Jacobi identity.  On some of those
    the triples of a generating set alone admit more forms than all
    triples do."""
    field = draw(st.sampled_from((Q, F2, F3, F5, Field.gf(2**31 - 1))))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 4))
        small = (0, 1, -1, Fraction(1, 2)) if field is Q else (0, 1, -1)
        vector = st.lists(st.sampled_from(small), min_size=dim, max_size=dim)
        pairs = itertools.combinations(range(dim), 2)
        return LieAlgebra(field, [f"e{k}" for k in range(dim)], {p: draw(vector) for p in pairs})
    if field is Q:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        entry = st.integers(0, field.p - 1) | st.just(field.p - 1)
    makers = [matched.make_sl2, lambda f: matched.make_l(1, f), lambda f: matched.make_L(1, f),
              lambda f: matched.make_m(1, f), lambda f: matched.make_l(2, f),
              lambda f: matched.make_L(2, f), lambda f: LieAlgebra.abelian(f, 3),
              lambda f: deform.make_h_a(f, -1)]
    if field is not F2:
        makers.append(matched.make_h5)
    alg = draw(st.sampled_from(makers))(field)
    n = alg.dim
    rebase = Matrix(field, draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    return alg.change_basis(rebase) if rebase.is_invertible() else alg


@settings(max_examples=150, deadline=None)
@given(algebras_for_forms())
def test_invariant_forms_match_the_all_triples_oracle(alg):
    got = [form.gram for form in invariant_bilinear_forms(alg)]
    assert got == [form.gram for form in boxed.invariant_bilinear_forms(alg)]


def _generated_subalgebra(alg, indices) -> Subspace:
    """The span of the e_i, i in indices, grown by [V, V] until it is closed."""
    space = Subspace(alg, [basis_vector(alg.field, alg.dim, i) for i in indices])
    while True:
        grown = space.sum_with(space.bracket_with(space))
        if grown == space:
            return space
        space = grown


@settings(max_examples=100, deadline=None)
@given(algebras_for_forms())
def test_generating_indices_generate_the_algebra(alg):
    indices = liecore._generating_indices(alg)
    assert indices == sorted(set(indices))
    assert _generated_subalgebra(alg, indices).dim == alg.dim


def test_generating_indices_of_small_algebras():
    for field in (Q, F5):
        assert liecore._generating_indices(LieAlgebra.abelian(field, 4)) == [0, 1, 2, 3]
        assert liecore._generating_indices(LieAlgebra.abelian(field, 0)) == []
        # [e, f] = h, so e and f generate sl2
        assert liecore._generating_indices(matched.make_sl2(field)) == [0, 1]


def test_invariant_forms_of_a_bracket_failing_jacobi_use_every_triple():
    # e0 and e1 generate, and their triples alone admit one nonzero form;
    # the triples with middle index 2 rule it out
    brackets = {(0, 1): (0, 1, 1), (0, 2): (1, 0, 0), (1, 2): (0, 0, 1)}
    alg = LieAlgebra(F2, ("e0", "e1", "e2"), brackets)
    assert alg.check_jacobi()
    assert liecore._generating_indices(alg) == [0, 1]
    assert invariant_bilinear_forms(alg) == []


@st.composite
def involutions_of_algebras(draw):
    """An algebra and an endomorphism over Q or GF(p): the involution that is
    +1 on the first factor and -1 on the second of a direct product or of a
    bicrossed product, in a conjugate basis; a random diagonal of signs on
    a Lie algebra or on random structure constants; or either with one
    entry moved."""
    field = draw(st.sampled_from((Q, F2, F5, Field.gf(2**31 - 1))))
    if field is Q:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        entry = st.integers(0, field.p - 1) | st.just(field.p - 1)
    makers = [matched.make_sl2, lambda f: matched.make_l(1, f), lambda f: matched.make_L(1, f),
              lambda f: LieAlgebra.abelian(f, 2), lambda f: deform.make_h_a(f, 3), None]

    def algebra():
        make = draw(st.sampled_from(makers))
        if make is not None:
            return make(field)
        dim = draw(st.integers(1, 3))
        vector = st.lists(entry, min_size=dim, max_size=dim)
        pairs = itertools.combinations(range(dim), 2)
        return LieAlgebra(field, [f"e{k}" for k in range(dim)], {p: draw(vector) for p in pairs})

    kind = draw(st.sampled_from(("direct", "bicrossed", "signs")))
    if kind == "signs":
        alg = algebra()
        signs = [draw(st.sampled_from((field.one, -field.one))) for _ in range(alg.dim)]
        m = Matrix(field, [[s if k == i else field.zero for k in range(alg.dim)]
                           for i, s in enumerate(signs)])
    else:
        if kind == "direct":
            first, second = algebra(), algebra()
            alg = direct_product(first, second)
            split = first.dim
        else:
            mp = draw(st.sampled_from((matched.canonical_pair_L, matched.canonical_pair_m)))(1, field)
            alg = matched.bicrossed_product(mp)
            split = mp.g.dim
        n = alg.dim
        m = Matrix(field, [[(field.one if i < split else -field.one) if k == i else field.zero
                            for k in range(n)] for i in range(n)])
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        rebase = Matrix(field, rows)
        if rebase.is_invertible():
            alg, m = alg.change_basis(rebase), rebase.inverse() * m * rebase
    if draw(st.booleans()):
        i, j = draw(st.integers(0, alg.dim - 1)), draw(st.integers(0, alg.dim - 1))
        rows = [list(row) for row in m.rows]
        rows[i][j] = rows[i][j] + field.one
        m = Matrix(field, rows)
    return alg, LinearMap(alg, alg, m)


@settings(max_examples=150, deadline=None)
@given(involutions_of_algebras())
def test_raw_product_structure_matches_the_boxed_reference(case):
    alg, f = case
    assert is_product_structure(alg, f) == boxed.is_product_structure(alg, f)


def test_a_form_rejects_a_gram_of_another_shape_or_field():
    sl2 = matched.make_sl2(Q)
    with pytest.raises(DimensionMismatch):
        BilinearForm(sl2, Matrix.identity(Q, 2))
    with pytest.raises(FieldMismatch):
        BilinearForm(sl2, Matrix.identity(F5, 3))


def test_bracket_dimension_mismatch():
    l3 = matched.make_l(1, Q)
    with pytest.raises(DimensionMismatch):
        l3.bracket((Q.one,), (Q.one, Q.zero, Q.zero))


def test_subspace_rejects_a_vector_of_the_wrong_length():
    L4 = matched.make_L(1, F5)
    line = Subspace(L4, [basis_vector(F5, 4, 0)])
    assert line.contains(basis_vector(F5, 4, 0))
    for v in ((F5.one,), basis_vector(F5, 6, 0)):
        with pytest.raises(DimensionMismatch):
            line.contains(v)
        with pytest.raises(DimensionMismatch):
            line.coordinates(v)
        with pytest.raises(DimensionMismatch):
            Subspace(L4, [v])


def test_killing_form_invariant_for_sl2():
    sl2 = matched.make_sl2(Q)
    gram = liecore.killing_gram(sl2)
    form = BilinearForm(sl2, gram)
    assert form.is_invariant() and form.is_nondegenerate()
    # and it lies in the span of the invariant-form basis
    basis = invariant_bilinear_forms(sl2)
    cols = [f.gram.entries_flat() for f in basis]
    assert Matrix.from_cols(Q, cols).solve(gram.entries_flat()) is not None


def test_self_dual_verdicts():
    yes = self_dual(LieAlgebra.abelian(Q, 3))
    assert yes.verdict == "yes"
    assert yes.form.is_invariant() and yes.form.is_nondegenerate()

    sl2 = matched.make_sl2(Q)
    yes2 = self_dual(sl2)
    assert yes2.verdict == "yes"
    assert yes2.form.is_invariant() and yes2.form.is_nondegenerate()

    for n in (1, 2):
        no = self_dual(matched.make_l(n, Q))
        assert no.verdict == "no"
        assert no.witness == basis_vector(Q, 2 * n + 1, 0)
        # witness really kills every invariant form from the left
        for form in invariant_bilinear_forms(matched.make_l(n, Q)):
            for k in range(2 * n + 1):
                assert not form.evaluate(no.witness, basis_vector(Q, 2 * n + 1, k))


@pytest.mark.parametrize("field", [Q, F2, F5], ids=["Q", "GF2", "GF5"])
def test_self_dual_of_the_zero_algebra_is_a_yes(field):
    # the 0 x 0 Gram is invariant and nondegenerate; "no" would need a witness
    res = self_dual(LieAlgebra.abelian(field, 0))
    assert res.verdict == "yes" and res.witness is None
    assert res.form.gram == Matrix.identity(field, 0)
    assert res.form.is_invariant() and res.form.is_nondegenerate()


def test_self_dual_over_finite_field():
    res = self_dual(LieAlgebra.abelian(F5, 2))
    assert res.verdict == "yes"
    res = self_dual(matched.make_l(1, F5))
    assert res.verdict == "no" and res.witness is not None


def test_self_dual_contract_reverified_on_zoo():
    # every yes must come with an invariant nonsingular form, every no with
    # a vector in the left radical of each invariant form
    zoo = [
        matched.make_l(1, F5),
        matched.make_L(1, F5),
        matched.make_m(1, F5),
        matched.make_sl2(F5),
        deform.make_l_a(F5, [1]),
        deform.make_lbarpp_c(F5, 2),
        LieAlgebra.abelian(F5, 4),
    ]
    for alg in zoo:
        res = self_dual(alg)
        if res.verdict == "yes":
            assert res.form.is_invariant() and res.form.is_nondegenerate()
        elif res.verdict == "no":
            assert not is_zero_vector(res.witness)
            for form in invariant_bilinear_forms(alg):
                for k in range(alg.dim):
                    assert not form.evaluate(res.witness, basis_vector(F5, alg.dim, k))


def test_self_dual_reaches_a_form_early_in_the_grid():
    # a lex sweep of the coefficients over GF(5)^5 (first slowest) meets
    # no non-degenerate combination in its first 500 tries; the first shells
    # of the grid hold one
    brackets = {(1, 2): (1, 0, 0, 4, 0), (1, 4): (0, 0, 4, 0, 0), (2, 4): (0, 2, 0, 0, 0)}
    alg = LieAlgebra(
        F5, ("a", "b", "c", "d", "e"), {k: tuple(map(F5.scalar, v)) for k, v in brackets.items()}
    )
    res = self_dual(alg, budget=200)
    assert res.verdict == "yes"
    assert res.form.is_invariant() and res.form.is_nondegenerate()


def _heisenberg3_with_skew_forms(monkeypatch, field):
    """The Heisenberg algebra [x, y] = z with its invariant forms replaced by
    the three skew forms: no vector kills all three from the left, yet every
    combination is a skew 3 x 3 matrix and so singular.  Its Killing form is
    zero and the identity form is not invariant (B([x, y], z) = 1 while
    B(x, [y, z]) = 0), so only the grid is left to try."""
    alg = LieAlgebra(field, ("x", "y", "z"), {(0, 1): (0, 0, 1)})

    def skew(i, j):
        rows = [[0] * 3 for _ in range(3)]
        rows[i][j], rows[j][i] = 1, -1
        return BilinearForm(alg, Matrix(field, rows))

    forms = [skew(0, 1), skew(0, 2), skew(1, 2)]
    monkeypatch.setattr(liecore, "invariant_bilinear_forms", lambda a: forms)
    return alg


@pytest.mark.parametrize(
    "field, grid", [(Q, "{0..3}^3"), (F2, "{0..1}^3"), (F5, "{0..3}^3")], ids=["Q", "GF2", "GF5"]
)
def test_self_dual_exhausted_grid_is_a_no(monkeypatch, field, grid):
    # over GF(2) the grid {0, 1}^3 is the whole coefficient space; otherwise
    # det of the combination has degree <= 3 in each coefficient and vanishes
    # on 4 values of each, so it is the zero polynomial
    res = self_dual(_heisenberg3_with_skew_forms(monkeypatch, field))
    assert (res.verdict, res.witness) == ("no", None)
    assert grid in res.detail


def test_self_dual_unknown_names_the_budget_and_the_grid(monkeypatch):
    res = self_dual(_heisenberg3_with_skew_forms(monkeypatch, Q), budget=10)
    assert res.verdict == "unknown"
    assert "budget 10" in res.detail and "{0..3}^3" in res.detail


# -- product structures --------------------------------------------------------------


def test_product_structure_on_bicrossed():
    mp = matched.canonical_pair_L(1, F5)
    bi = matched.bicrossed_product(mp)
    diag = [F5.one] + [-F5.one] * 3
    f = LinearMap(bi, bi, Matrix(F5, [[diag[r] if r == c else F5.zero for c in range(4)] for r in range(4)]))
    assert is_product_structure(bi, f)
    plus, minus = split_product_structure(bi, f)
    assert plus.dim == 1 and minus.dim == 3
    assert plus.is_subalgebra() and minus.is_subalgebra()
    assert plus.sum_with(minus).dim == 4
    # brackets stay inside each factor
    for s in (plus, minus):
        for u in s.basis:
            for v in s.basis:
                assert s.contains(bi.bracket(u, v))


# -- linear maps ------------------------------------------------------------------


def test_compose_and_inverse_build_what_the_checked_constructor_builds():
    for field in (Q, F3, F5):
        sl2, l3 = matched.make_sl2(field), matched.make_l(1, field)
        v = Matrix(field, [[2, 0, 0], [0, 1, 0], [1, 0, 2]])
        w = Matrix(field, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        f, g = LinearMap(l3, sl2, v), LinearMap(sl2, l3, w)
        for got, (dom, cod, m) in (
            (f.compose(g), (sl2, sl2, v * w)),
            (g.compose(f), (l3, l3, w * v)),
            (f.inverse(), (sl2, l3, v.inverse())),
        ):
            assert type(got) is LinearMap and got == LinearMap(dom, cod, m)
            assert got.domain is dom and got.codomain is cod
            assert hash(got) == hash(LinearMap(dom, cod, m))
        with pytest.raises(DimensionMismatch):
            LinearMap(l3, l3, Matrix.zeros(field, 3, 3)).inverse()


def test_compose_rejects_maps_over_two_fields_or_of_two_dimensions():
    f5 = LinearMap(matched.make_sl2(F5), matched.make_sl2(F5), Matrix.identity(F5, 3))
    f3 = LinearMap(matched.make_sl2(F3), matched.make_sl2(F3), Matrix.identity(F3, 3))
    with pytest.raises(FieldMismatch):
        f5.compose(f3)
    with pytest.raises(FieldMismatch):
        f3.compose(f5)
    plane = LieAlgebra.abelian(F5, 2)
    p5 = LinearMap(plane, plane, Matrix.identity(F5, 2))
    with pytest.raises(DimensionMismatch):
        f5.compose(p5)
    with pytest.raises(DimensionMismatch):
        p5.compose(f5)
    # a 3 x 2 map composes with the plane but not with sl2
    into = LinearMap(plane, f5.domain, Matrix(F5, [[1, 0], [0, 1], [0, 0]]))
    assert f5.compose(into).matrix == into.matrix
    with pytest.raises(DimensionMismatch):
        into.compose(f5)


def test_compose_rejects_a_codomain_that_is_another_algebra():
    # sl2 and l(3) have one dimension: both factors are automorphisms, but
    # l(3) -> l(3) followed by sl2 -> sl2 is no map
    sl2, l3 = matched.make_sl2(F5), matched.make_l(1, F5)
    f = LinearMap(sl2, sl2, Matrix.identity(F5, 3))
    g = LinearMap(l3, l3, Matrix.identity(F5, 3))
    with pytest.raises(DimensionMismatch):
        f.compose(g)
    with pytest.raises(DimensionMismatch):
        g.compose(f)
    # an equal algebra built anew composes as the same one does
    again = LieAlgebra(F5, sl2.basis_names, dict(sl2.sc_pairs()))
    assert again is not sl2 and again == sl2
    h = LinearMap(again, again, Matrix.identity(F5, 3))
    assert f.compose(h) == LinearMap(again, sl2, Matrix.identity(F5, 3))
    assert f.compose(f).domain is sl2


def test_product_structure_excludes_identities():
    l3 = matched.make_l(1, Q)
    ident = LinearMap(l3, l3, Matrix.identity(Q, 3))
    assert not is_product_structure(l3, ident)
    neg = LinearMap(l3, l3, -Matrix.identity(Q, 3))
    assert not is_product_structure(l3, neg)


def test_split_char_two_raises():
    ab = LieAlgebra.abelian(F2, 2)
    swap = LinearMap(ab, ab, Matrix(F2, [[0, 1], [1, 0]]))
    assert is_product_structure(ab, swap)
    with pytest.raises(CharTwo):
        split_product_structure(ab, swap)


# -- direct products ------------------------------------------------------------------


def test_direct_products():
    k0 = LieAlgebra.abelian(Q, 1, ("W",))
    assert direct_product(k0, k0).same_brackets(LieAlgebra.abelian(Q, 2))
    four = direct_product(k0, matched.make_sl2(Q))
    assert four.dim == 4 and center(four).dim == 1
    mixed = direct_product(k0, matched.make_l(1, Q))
    assert derived_dims(mixed) == (4, 2, 0)
    with pytest.raises(FieldMismatch):
        direct_product(k0, matched.make_sl2(F5))


def test_direct_product_primes_colliding_names_until_fresh():
    a = LieAlgebra.abelian(Q, 1, ("x",))
    b = LieAlgebra.abelian(Q, 2, ("x", "x'"))
    assert direct_product(a, b).basis_names == ("x", "x''", "x'")
    c = LieAlgebra.abelian(Q, 3, ("x", "x''", "y"))
    assert direct_product(b, c).basis_names == ("x", "x'", "x'''", "x''", "y")
    # a name that collides once keeps a single prime
    sl2 = matched.make_sl2(Q)
    assert direct_product(sl2, sl2).basis_names == ("e", "f", "h", "e'", "f'", "h'")


# -- serialization ----------------------------------------------------------------------


def test_algebra_roundtrip(tmp_path):
    for alg in (matched.make_l(2, Q), matched.make_m(1, F5), matched.make_h5(Q)):
        path = tmp_path / "alg.json"
        liecore.dump_algebra(alg, path)
        back = liecore.load_algebra(path)
        assert back == alg


def test_format_errors():
    base = {
        "field": {"kind": "Q"},
        "dim": 2,
        "basis": ["a", "b"],
        "brackets": [],
    }
    both_orders = dict(base)
    both_orders["brackets"] = [
        {"lhs": "a", "rhs": "b", "out": [["a", "1"]]},
        {"lhs": "b", "rhs": "a", "out": [["a", "1"]]},
    ]
    with pytest.raises(FormatError):
        LieAlgebra.from_json_dict(both_orders)

    self_pair = dict(base)
    self_pair["brackets"] = [{"lhs": "a", "rhs": "a", "out": []}]
    with pytest.raises(FormatError):
        LieAlgebra.from_json_dict(self_pair)

    unknown = dict(base)
    unknown["brackets"] = [{"lhs": "a", "rhs": "c", "out": []}]
    with pytest.raises(FormatError):
        LieAlgebra.from_json_dict(unknown)

    mismatch = dict(base)
    mismatch["dim"] = 3
    with pytest.raises(FormatError):
        LieAlgebra.from_json_dict(mismatch)


def test_load_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"field": {"kind": "Q"},\n  "dim": }')
    with pytest.raises(FormatError) as err:
        liecore.load_algebra(path)
    assert "line 2" in str(err.value)


# -- change of basis ---------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=9, max_size=9))
def test_change_basis_preserves_jacobi_and_series(flat):
    m = Matrix(F5, [flat[0:3], flat[3:6], flat[6:9]])
    if not m.is_invertible():
        return
    l3 = matched.make_l(1, F5)
    moved = l3.change_basis(m)
    assert moved.check_jacobi() == []
    assert derived_dims(moved) == derived_dims(l3)


def test_deepcopied_algebra_keeps_its_field():
    f5 = Field.gf(5)
    alg = matched.make_L(1, f5)
    dup = copy.deepcopy(alg)
    assert dup.field is f5
    assert dup.same_brackets(alg) and dup == alg
    x, y = basis_vector(f5, 4, 0), basis_vector(f5, 4, 2)
    # vectors of the copy and of the original mix without FieldMismatch
    assert dup.bracket(x, y) == alg.bracket(x, y)
    assert alg.bracket(dup.bracket_basis(0, 2), y) == dup.bracket(alg.bracket_basis(0, 2), y)

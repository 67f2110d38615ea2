import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import boxed_reference as boxed
from boxed_reference import vadd, vscale, vsub
from liefact.errors import (
    DimensionMismatch,
    FieldMismatch,
    InvalidTn,
    LambdaNotAdmissible,
    NotADerivation,
    NotFinite,
)
from liefact.exactmath import Field, Matrix, basis_vector, zero_vector
from liefact import deform, liecore, matched
from liefact.derivations import (
    TnElement,
    TwistedDerivation,
    admissible_lambdas,
    canonical_solution_span,
    derivation_space,
    enumerate_twisted_derivations,
    inner_derivation,
    is_derivation,
    is_inner,
    lambda_is_admissible,
    tn_delta_matrix,
    tn_delta_span,
    tn_element,
    tn_space_for_lambda0,
    tn_to_twisted,
    tn_validate,
    twisted_derivations_for_lambda,
)

Q = Field.rationals()
F3 = Field.gf(3)
F5 = Field.gf(5)


def twisted_law_oracle(alg, lam, delta):
    """Direct expansion of the twisted derivation law on all basis pairs."""
    n = alg.dim
    for i in range(n):
        for j in range(i + 1, n):
            bij = alg.bracket_basis(i, j)
            if any(a * b for a, b in zip(lam, bij)):
                return False
            lhs = delta.mul_vector(bij)
            rhs = vadd(
                alg.bracket(delta.col(i), basis_vector(alg.field, n, j)),
                alg.bracket(basis_vector(alg.field, n, i), delta.col(j)),
            )
            rhs = vadd(rhs, vsub(vscale(lam[j], delta.col(i)), vscale(lam[i], delta.col(j))))
            if lhs != rhs:
                return False
    return True


def h5_delta() -> Matrix:
    return Matrix(
        Q,
        [
            [1, 0, 0, 0, 0],
            [0, -1, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [-1, 0, 0, -1, 0],
            [0, 0, 1, 0, -2],
        ],
    )


# -- derivation spaces -----------------------------------------------------------


def test_h5_derivation_space_dimension_and_pattern():
    h5 = matched.make_h5(Q)
    basis = derivation_space(h5)
    assert len(basis) == 6
    for d in basis:
        assert is_derivation(h5, d)
    # the recorded six-parameter matrix pattern spans the same space
    pattern = matched.h5_derivation_pattern(Q)
    from liefact.exactmath import span_rref

    assert canonical_solution_span(basis) == tuple(
        span_rref(Q, [m.entries_flat() for m in pattern])
    )


def test_abelian_derivations_are_all_maps():
    assert len(derivation_space(liecore.LieAlgebra.abelian(Q, 2))) == 4


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "GF5"])
@pytest.mark.parametrize("dim, counts", [(1, (1, 1, 1)), (2, (4, 2, 4))])
def test_systems_without_equations_give_the_whole_space(field, dim, counts):
    # abelian algebras make the derivation, covector and form systems empty
    ab = liecore.LieAlgebra.abelian(field, dim)
    got = (len(derivation_space(ab)), len(admissible_lambdas(ab)),
           len(liecore.invariant_bilinear_forms(ab)))
    assert got == counts


def test_sl2_derivations_all_inner():
    sl2 = matched.make_sl2(Q)
    basis = derivation_space(sl2)
    assert len(basis) == 3
    ads = [sl2.ad_basis(i).entries_flat() for i in range(3)]
    from liefact.exactmath import span_rref

    assert canonical_solution_span(basis) == tuple(span_rref(Q, ads))
    for d in basis:
        assert is_inner(sl2, d) is not None


# -- inner derivations -------------------------------------------------------------


def test_inner_derivation_examples():
    sl2 = matched.make_sl2(Q)
    zero = inner_derivation(sl2, zero_vector(Q, 3))
    assert zero.matrix.is_zero()

    h = basis_vector(Q, 3, 2)
    ad_h = inner_derivation(sl2, h)
    assert ad_h.matrix.col(0) == vscale(Q.scalar(2), basis_vector(Q, 3, 0))
    assert ad_h.matrix.col(1) == vscale(Q.scalar(-2), basis_vector(Q, 3, 1))
    assert ad_h.matrix.col(2) == zero_vector(Q, 3)

    l3 = matched.make_l(1, Q)
    ad_g = inner_derivation(l3, basis_vector(Q, 3, 2))
    assert ad_g.matrix.col(0) == vscale(Q.scalar(-1), basis_vector(Q, 3, 0))
    assert ad_g.matrix.col(1) == basis_vector(Q, 3, 1)


def test_is_inner():
    sl2 = matched.make_sl2(Q)
    x = (Q.scalar(1), Q.scalar(2), Q.scalar(3))
    witness = is_inner(sl2, inner_derivation(sl2, x))
    assert witness is not None
    assert sl2.ad(witness) == sl2.ad(x)

    h5 = matched.make_h5(Q)
    dmap = liecore.LinearMap(h5, h5, h5_delta())
    assert is_derivation(h5, dmap)
    assert is_inner(h5, dmap) is None

    zero = liecore.LinearMap(sl2, sl2, Matrix.zeros(Q, 3, 3))
    assert is_inner(sl2, zero) is not None

    not_der = liecore.LinearMap(sl2, sl2, Matrix(Q, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(NotADerivation):
        is_inner(sl2, not_der)


# -- twisted derivations --------------------------------------------------------------


def test_twisted_zero_lambda_equals_derivations():
    l3 = matched.make_l(1, Q)
    lam = zero_vector(Q, 3)
    assert canonical_solution_span(twisted_derivations_for_lambda(l3, lam)) == (
        canonical_solution_span(derivation_space(l3))
    )


def test_twisted_solution_dims_over_q():
    l3 = matched.make_l(1, Q)
    lam = (Q.zero, Q.zero, Q.one)  # lambda(G) = 1, outside {0, 2, -2}
    assert len(twisted_derivations_for_lambda(l3, lam)) == 3
    assert len(twisted_derivations_for_lambda(l3, zero_vector(Q, 3))) == 4


def test_lambda_admissibility():
    l3 = matched.make_l(1, Q)
    with pytest.raises(LambdaNotAdmissible):
        twisted_derivations_for_lambda(l3, (Q.one, Q.zero, Q.zero))


def test_violations_report_is_stable():
    # a valid closed-form twisted derivation of l(3) over GF(5), then one
    # entry of Delta perturbed; records as produced before the bracket
    # table existed, in the same order
    l3 = matched.make_l(1, F5)
    t = tn_to_twisted(tn_element(F5, 1, [[1]], 0, 0, [[4]], 4, [1, 2, 1]))
    assert t.violations(l3) == []
    rows = [list(r) for r in t.delta.rows]
    rows[1][0] = rows[1][0] + 1
    perturbed = Matrix(F5, rows)
    assert TwistedDerivation(t.lam, perturbed).violations(l3) == [("delta", 0, 2, (0, 3, 0))]
    # an inadmissible lambda interleaves "lambda" and "delta" records per pair
    lam = (F5.one, F5.zero, t.lam[2])
    assert TwistedDerivation(lam, perturbed).violations(l3) == [
        ("delta", 0, 1, (0, 4, 0)),
        ("lambda", 0, 2, 1),
        ("delta", 0, 2, (1, 0, 1)),
    ]
    assert not TwistedDerivation(lam, perturbed).is_valid_for(l3)


def test_a_twisted_derivation_of_the_wrong_shape_or_field_is_rejected():
    l3 = matched.make_l(1, F5)
    lam = zero_vector(F5, 3)
    for t, error in (
        (TwistedDerivation(lam, Matrix.identity(F5, 2)), DimensionMismatch),
        (TwistedDerivation(lam, Matrix.zeros(F5, 3, 2)), DimensionMismatch),
        (TwistedDerivation(lam, Matrix.identity(Field.gf(7), 3)), FieldMismatch),
        (TwistedDerivation(lam[:2], Matrix.identity(F5, 3)), DimensionMismatch),
        (TwistedDerivation(zero_vector(Q, 3), Matrix.identity(F5, 3)), FieldMismatch),
    ):
        with pytest.raises(error):
            t.violations(l3)
        with pytest.raises(error):
            t.is_valid_for(l3)
    for check in (lambda_is_admissible, twisted_derivations_for_lambda):
        with pytest.raises(DimensionMismatch):
            check(l3, lam[:2])
    # a line has no basis pair to check, and is still not fooled by the shape
    line = liecore.LieAlgebra.abelian(F5, 1)
    with pytest.raises(DimensionMismatch):
        TwistedDerivation((F5.one, F5.one), Matrix.identity(F5, 2)).is_valid_for(line)
    with pytest.raises(DimensionMismatch):
        lambda_is_admissible(line, (1, 2))


@st.composite
def twisted_pairs(draw):
    """An algebra and a twisted derivation over Q or GF(p): the generic
    solver's output for an admissible lambda (on a Lie algebra or on random
    structure constants), or a closed form on l(2n+1); as it is, or with one
    entry of Delta or of lambda moved."""
    field = draw(st.sampled_from((Q, Field.gf(2), F5, Field.gf(2**31 - 1))))
    if field is Q:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        entry = st.integers(0, field.p - 1) | st.just(field.p - 1)

    def combination(vectors, length):
        out = [field.zero] * length
        for v in vectors:
            c = field.scalar(draw(entry))
            out = [a + c * b for a, b in zip(out, v)]
        return tuple(out)

    if draw(st.booleans()):
        n = draw(st.integers(1, 2))
        alg = matched.make_l(n, field)
        elements = tn_space_for_lambda0(field, n, draw(entry))
        t = tn_to_twisted(draw(st.sampled_from(elements)))
        lam, delta = t.lam, t.delta
    else:
        makers = [matched.make_sl2, lambda f: matched.make_l(1, f), lambda f: matched.make_L(1, f),
                  lambda f: liecore.LieAlgebra.abelian(f, 2), lambda f: deform.make_h_a(f, 3)]
        make = draw(st.sampled_from(makers + [None]))
        if make is None:
            dim = draw(st.integers(1, 4))
            vector = st.lists(entry, min_size=dim, max_size=dim)
            pairs = itertools.combinations(range(dim), 2)
            alg = liecore.LieAlgebra(field, [f"e{k}" for k in range(dim)], {p: draw(vector) for p in pairs})
        else:
            alg = make(field)
        n = alg.dim
        lam = combination(admissible_lambdas(alg), n)
        maps = twisted_derivations_for_lambda(alg, lam)
        flat = combination([m.matrix.entries_flat() for m in maps], n * n)
        delta = Matrix(field, [flat[r * n : (r + 1) * n] for r in range(n)])
    moved = draw(st.sampled_from((None, "delta", "lambda")))
    n = alg.dim
    if moved == "delta":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows = [list(row) for row in delta.rows]
        rows[i][j] = rows[i][j] + field.one
        delta = Matrix(field, rows)
    elif moved == "lambda":
        k = draw(st.integers(0, n - 1))
        lam = lam[:k] + (lam[k] + field.one,) + lam[k + 1 :]
    return alg, TwistedDerivation(lam, delta), moved


@settings(max_examples=150, deadline=None)
@given(twisted_pairs())
def test_raw_violations_match_the_boxed_reference(case):
    alg, t, moved = case
    report = boxed.violations(t, alg)
    assert t.violations(alg) == report
    assert t.is_valid_for(alg) == (not report)
    if moved is None:
        assert report == []


def test_solver_outputs_satisfy_law():
    l3 = matched.make_l(1, F3)
    for lam, basis in enumerate_twisted_derivations(l3):
        for d in basis:
            assert twisted_law_oracle(l3, lam, d.matrix)


def test_enumerate_branches():
    l3 = matched.make_l(1, F5)
    entries = enumerate_twisted_derivations(l3)
    assert len(entries) == 5
    dims = [len(basis) for _, basis in entries]
    assert dims == [4, 3, 4, 4, 3]

    sl2 = matched.make_sl2(F5)
    entries = enumerate_twisted_derivations(sl2)
    assert len(entries) == 1
    assert not any(entries[0][0])

    k0 = liecore.LieAlgebra.abelian(F3, 1)
    entries = enumerate_twisted_derivations(k0)
    assert len(entries) == 3
    assert all(len(basis) == 1 for _, basis in entries)

    with pytest.raises(NotFinite):
        enumerate_twisted_derivations(matched.make_l(1, Q))


# -- block closed form --------------------------------------------------------------


def test_tn_examples():
    t = tn_element(Q, 1, [[-1]], 0, 0, [[1]], 1, (0, 0, 1))
    assert tn_validate(t)
    tw = tn_to_twisted(t)
    assert tw.is_valid_for(matched.make_l(1, Q))

    bad = tn_element(Q, 1, [[1]], 0, 0, [[1]], 0, (1, 0, 1))
    assert not tn_validate(bad)
    with pytest.raises(InvalidTn):
        tn_to_twisted(bad)

    # the m(4) datum: lambda0 = 0, A = D = I, full delta (1, 1, 0)
    tm = tn_element(Q, 1, [[1]], 0, 0, [[1]], 0, (1, 1, 0))
    assert tn_validate(tm)
    ext = matched.h_lambda_delta(matched.make_l(1, Q), tn_to_twisted(tm))
    assert ext.permuted([1, 2, 3, 0]).same_brackets(matched.make_m(1, Q))


def test_tn_validate_iff_twisted_law_exhaustive_gf3():
    """Exhaustive equivalence at n = 1 over GF(3): the block constraints hold
    exactly when the assembled (lambda, Delta) satisfies the twisted law."""
    l3 = matched.make_l(1, F3)
    vals = [F3.scalar(v) for v in range(3)]
    count_valid = 0
    for a, b, c, d, lam0, d1, d2, d3 in itertools.product(vals, repeat=8):
        t = TnElement(
            n=1,
            A=Matrix(F3, [[a]]),
            B=Matrix(F3, [[b]]),
            C=Matrix(F3, [[c]]),
            D=Matrix(F3, [[d]]),
            lambda0=lam0,
            delta=(d1, d2, d3),
        )
        lam = (F3.zero, F3.zero, lam0)
        law = twisted_law_oracle(l3, lam, tn_delta_matrix(t))
        assert tn_validate(t) == law
        if law:
            count_valid += 1
    # over GF(3) both units coincide with +-2, so every branch frees one of
    # B or C (or A, D at lambda0 = 0): three branches of dimension 4
    assert count_valid == 3 * 3**4


def test_generic_solver_equals_tn_image_elementwise_gf3():
    l3 = matched.make_l(1, F3)
    generic = set()
    from liefact.exactmath import enumerate_affine

    for lam, basis in enumerate_twisted_derivations(l3):
        flats = [m.matrix.entries_flat() for m in basis]
        origin = zero_vector(F3, 9)
        for flat in enumerate_affine(F3, origin, flats):
            generic.add((lam[-1], flat))
    closed = set()
    vals = [F3.scalar(v) for v in range(3)]
    for a, b, c, d, lam0, d1, d2, d3 in itertools.product(vals, repeat=8):
        t = TnElement(1, Matrix(F3, [[a]]), Matrix(F3, [[b]]), Matrix(F3, [[c]]),
                      Matrix(F3, [[d]]), lam0, (d1, d2, d3))
        if tn_validate(t):
            closed.add((lam0, tn_delta_matrix(t).entries_flat()))
    assert generic == closed


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_solver_equals_closed_form_spans(n, p):
    field = Field.gf(p)
    alg = matched.make_l(n, field)
    for lam, basis in enumerate_twisted_derivations(alg):
        assert canonical_solution_span(basis) == tn_delta_span(field, n, lam[-1])


def test_tn_space_basis_elements_are_valid():
    for lam0 in range(5):
        for t in tn_space_for_lambda0(F5, 2, lam0):
            assert tn_validate(t)
            assert tn_to_twisted(t).is_valid_for(matched.make_l(2, F5))


@st.composite
def _tn_datum(draw):
    """A combination of the block law's basis at a drawn lambda0, over one of
    five fields with n in {1, 2}, sometimes with one entry moved."""
    field = draw(st.sampled_from((Q, Field.gf(2), F3, F5, Field.gf(2**31 - 1))))
    if field is Q:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        entry = st.integers(0, field.p - 1) | st.just(field.p - 1)
    n = draw(st.integers(1, 2))
    nn = n * n
    lam0 = field.scalar(draw(entry))
    flat = [field.zero] * (4 * nn + 2 * n + 1)
    for t in tn_space_for_lambda0(field, n, lam0):
        c = field.scalar(draw(entry))
        parts = [x for m in (t.A, t.B, t.C, t.D) for x in m.entries_flat()] + list(t.delta)
        flat = [a + c * b for a, b in zip(flat, parts)]
    if draw(st.booleans()):
        flat[draw(st.integers(0, len(flat) - 1))] += field.scalar(draw(entry))
    blocks = (Matrix(field, [flat[b * nn + r * n : b * nn + (r + 1) * n] for r in range(n)]) for b in range(4))
    return TnElement(n, *blocks, lam0, tuple(flat[4 * nn :]))


@settings(max_examples=200, deadline=None)
@given(_tn_datum())
def test_tn_validate_is_the_twisted_law_of_the_assembled_pair(t):
    lam = tuple(zero_vector(t.field, 2 * t.n)) + (t.lambda0,)
    law = TwistedDerivation(lam, tn_delta_matrix(t)).is_valid_for(matched.make_l(t.n, t.field))
    assert tn_validate(t) == law


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("lam0", [0, 1, 2, -2, Fraction(1, 3)])
def test_solver_equals_closed_form_spans_over_q(n, lam0):
    lam = (0,) * (2 * n) + (lam0,)
    basis = twisted_derivations_for_lambda(matched.make_l(n, Q), lam)
    assert canonical_solution_span(basis) == tn_delta_span(Q, n, lam0)


def test_tn_blocks_over_two_fields_raise():
    blocks = [Matrix(F3, [[1]]), Matrix.zeros(F3, 1, 1), Matrix.zeros(F3, 1, 1), Matrix(F3, [[1]])]
    for k in range(4):
        mixed = blocks[:k] + [Matrix.zeros(F5, 1, 1)] + blocks[k + 1 :]
        with pytest.raises(FieldMismatch):
            TnElement(1, *mixed, F3.zero, (F3.zero,) * 3)


def test_enumerate_budget_gate():
    from liefact.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        enumerate_twisted_derivations(matched.make_l(1, F5), budget=2)

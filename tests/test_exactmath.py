import ast
import copy
import fractions
import itertools
import math
import pickle
import random
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import boxed_reference as boxed
from liefact.errors import BadParameter, DimensionMismatch, FieldMismatch, FormatError, NotFinite
from liefact import exactmath
from liefact.exactmath import (
    TABLE_BOUND,
    Field,
    _Echelon,
    _box,
    _clear_denominators,
    _integer_rref,
    _is_prime,
    _mul_rows,
    _null_space_rows,
    Matrix,
    Scalar,
    basis_vector,
    enumerate_affine,
    enumerate_vectors,
    zero_vector,
)
from boxed_reference import dot, is_zero_vector, vadd, vscale

Q = Field.rationals()
F2 = Field.gf(2)
F3 = Field.gf(3)
F5 = Field.gf(5)
F7 = Field.gf(7)
F_BIG = Field.gf(2**31 - 1)
# the largest prime below TABLE_BOUND, so the largest field with a table
F_TOP = Field.gf(1021)


def qm(rows):
    return Matrix(Q, rows)


# -- fields and scalars -------------------------------------------------------


def test_field_descriptor_basics():
    assert Q.characteristic() == 0
    assert F5.characteristic() == 5
    assert not Q.is_finite and F5.is_finite
    with pytest.raises(ValueError):
        Field.gf(4)
    with pytest.raises(ValueError):
        Field.gf(1)


def test_modulus_bound_rejects_huge_primes_quickly():
    start = time.perf_counter()
    with pytest.raises(BadParameter):
        Field.gf(2**61 - 1)
    assert time.perf_counter() - start < 1.0
    assert Field.gf(4294967291).p == 4294967291  # largest prime below 2**32


def test_is_prime_matches_sieve():
    limit = 10**4
    sieve = [False, False] + [True] * (limit - 2)
    for d in range(2, limit):
        if sieve[d]:
            for multiple in range(d * d, limit, d):
                sieve[multiple] = False
    assert [p for p in range(limit) if _is_prime(p)] == [p for p in range(limit) if sieve[p]]


def test_field_serialization_roundtrip():
    for f in (Q, F2, F5):
        assert Field.from_json(f.to_json()) == f
    with pytest.raises(FormatError):
        Field.from_json({"kind": "R"})


def test_each_field_has_one_instance():
    for field, rebuilt in ((F5, Field("Fp", 5)), (Q, Field("Q"))):
        assert rebuilt is field
        assert Field.from_json(field.to_json()) is field
        assert copy.copy(field) is field
        assert copy.deepcopy(field) is field
        assert pickle.loads(pickle.dumps(field)) is field
    assert Field.gf(5) is F5 and Field.rationals() is Q
    # the constants are built once, with the field
    assert F5.zero is Field.gf(5).zero and Q.one is Field.rationals().one
    with pytest.raises(FieldMismatch):
        F5.one + Field.gf(7).one


def test_rejected_modulus_is_not_cached():
    for _ in range(3):
        with pytest.raises(BadParameter):
            Field.gf(4)
    assert ("Fp", 4) not in Field._instances


def test_concurrent_construction_gives_one_instance():
    p = 4294967279  # a prime below 2**32 that no other test builds
    assert ("Fp", p) not in Field._instances
    barrier = threading.Barrier(8, timeout=30)
    built = []

    def build():
        barrier.wait()
        built.append(Field.gf(p))

    threads = [threading.Thread(target=build) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the trial division
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(built) == 8
    assert all(f is Field.gf(p) for f in built)


def test_scalar_normalization_and_strings():
    s = Q.scalar(fractions.Fraction(2, 4))
    assert str(s) == "1/2"
    assert Q.from_string("-6/4") == Q.scalar(fractions.Fraction(-3, 2))
    assert Q.from_string("7") == Q.scalar(7)
    assert F5.from_string("7") == F5.scalar(2)
    # residues serialize as ints, rationals as strings
    assert F5.scalar(3).to_json() == 3
    assert Q.scalar(fractions.Fraction(3, 4)).to_json() == "3/4"
    with pytest.raises(FormatError):
        Q.from_string("x")


def test_a_fraction_outside_gf_p_compares_unequal():
    # 1/3 has no value mod 3, so it equals no element of GF(3), and saying so
    # raises nothing
    assert not F3.one == fractions.Fraction(1, 3)
    assert F3.one != fractions.Fraction(1, 3)
    assert F3.scalar(2) == fractions.Fraction(1, 2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_scalar_hashes_as_the_number_it_equals(data):
    field = data.draw(st.sampled_from((Q, F2, F5, F_BIG)))
    if field is Q:
        number = data.draw(st.integers(-10, 10) | st.fractions(max_denominator=6))
    else:
        number = data.draw(st.integers(0, field.p - 1) | st.just(field.p - 1))
    x = field.scalar(number)
    assert x == number and hash(x) == hash(number)
    assert number in {x} and x in {number} and {number: 1}[x] == 1


def test_scalars_and_numbers_meet_in_sets():
    assert 1 in {Q.one} and Q.one in {1}
    half = fractions.Fraction(1, 2)
    assert half in {Q.scalar(half)} and Q.scalar("2/4") in {half}
    assert 3 in {F5.scalar(3)} and F5.scalar(8) in {3}
    # the documented limit: 6 is no residue in [0, 5), so it equals GF(5)'s
    # one without hashing alike
    assert F5.one == 6 and 6 not in {F5.one}


def test_rational_division_stays_exact():
    # 1 / an int is a float; inverse and division must give Fractions
    half = Q.scalar(2).inverse().value
    assert type(half) is fractions.Fraction and half == fractions.Fraction(1, 2)
    third = (Q.scalar(3) / 6).value
    assert type(third) is fractions.Fraction and third == fractions.Fraction(1, 2)
    assert type((Q.scalar(6) / 3).value) is int
    assert type(Q.scalar(-1).inverse().value) is int


def test_scalar_field_mismatch():
    with pytest.raises(FieldMismatch):
        Q.one + F5.one


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_field_axioms(a, b, c):
    x, y, z = Q.scalar(a), Q.scalar(b), Q.scalar(c)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x - x == Q.zero


@given(st.integers(0, 4), st.integers(1, 4))
def test_gf5_inverses(a, b):
    x, y = F5.scalar(a), F5.scalar(b)
    assert y * y.inverse() == F5.one
    assert (x * y) / y == x


# -- rref / nullspace / solve ---------------------------------------------------


def test_rref_examples():
    ident = Matrix.identity(Q, 2)
    red, piv = ident.rref()
    assert red == ident and piv == (0, 1)

    red, piv = qm([[2, 4], [1, 2]]).rref()
    assert red == qm([[1, 2], [0, 0]]) and piv == (0,)

    red, piv = Matrix(F2, [[1, 1], [1, 1]]).rref()
    assert red == Matrix(F2, [[1, 1], [0, 0]])


def test_nullspace_examples():
    assert Matrix.identity(Q, 3).nullspace() == []
    basis = Matrix.zeros(Q, 3, 3).nullspace()
    assert len(basis) == 3


def test_solve_examples():
    b = (Q.scalar(3), Q.scalar(-1))
    sol = Matrix.identity(Q, 2).solve(b)
    assert sol is not None and sol[0] == b and sol[1] == []

    zero = Matrix.zeros(Q, 2, 2)
    assert zero.solve(b) is None
    sol = zero.solve(zero_vector(Q, 2))
    assert sol is not None and len(sol[1]) == 2


def _matrices(field, nrows, ncols):
    cells = nrows * ncols
    for flat in enumerate_vectors(field, cells):
        yield Matrix(field, [flat[r * ncols : (r + 1) * ncols] for r in range(nrows)])


def _check_solve_against_scan(field, m, b):
    brute = {v for v in enumerate_vectors(field, m.ncols) if m.mul_vector(v) == tuple(b)}
    sol = m.solve(tuple(b))
    if sol is None:
        assert brute == set()
        return
    part, null = sol
    assert {w for w in enumerate_affine(field, part, null)} == brute


def test_solve_agrees_with_exhaustive_search_gf2_gf3():
    # brute-force oracle: solution set from scanning all candidate vectors
    cases = [(F2, 2, 2), (F2, 2, 3), (F2, 3, 3), (F3, 2, 2)]
    for field, r, c in cases:
        for m in _matrices(field, r, c):
            for b in enumerate_vectors(field, r):
                _check_solve_against_scan(field, m, b)


def test_solve_agrees_on_sampled_3x3_gf3():
    sample = [
        [[1, 2, 0], [0, 1, 1], [2, 2, 2]],
        [[0, 0, 0], [1, 1, 1], [2, 1, 0]],
        [[1, 0, 1], [0, 1, 0], [1, 1, 1]],
    ]
    for rows in sample:
        m = Matrix(F3, rows)
        for b in enumerate_vectors(F3, 3):
            _check_solve_against_scan(F3, m, b)


@st.composite
def gf5_matrix(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    entries = draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return Matrix(F5, entries)


@settings(max_examples=60, deadline=None)
@given(gf5_matrix())
def test_rref_idempotent_and_rank_nullity(m):
    red, pivots = m.rref()
    again, pivots2 = red.rref()
    assert again == red and pivots == pivots2
    assert m.rank() + len(m.nullspace()) == m.ncols
    for v in m.nullspace():
        assert is_zero_vector(m.mul_vector(v))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(st.fractions(), min_size=3, max_size=3), min_size=2, max_size=4)
)
def test_rational_nullspace_exact(rows):
    m = qm(rows)
    for v in m.nullspace():
        assert is_zero_vector(m.mul_vector(v))
    assert m.rank() + len(m.nullspace()) == 3


def test_det_and_inverse():
    m = qm([[1, 2], [3, 4]])
    assert m.det() == Q.scalar(-2)
    inv = m.inverse()
    assert inv is not None and m * inv == Matrix.identity(Q, 2)
    assert qm([[1, 2], [2, 4]]).inverse() is None
    assert qm([[1, 2], [2, 4]]).det() == Q.zero


@pytest.mark.parametrize("field", [Q, F5, F_BIG], ids=["Q", "GF5", "GFbig"])
def test_matrix_operations_match_the_coercing_constructor(field):
    # sums, products, stacks and augments skip coercion; each result holds
    # Scalars of the field and has the shape the constructor reads off its
    # rows, the empty 0 x 0 and 2 x 0 cases included
    a = Matrix(field, [[1, 2, "1/2"], [4, 0, -1]])
    b = Matrix(field, [[0, 1, 1], [2, 2, 2]])
    c = Matrix(field, [[1, 0], [0, 1], [3, 4]])
    empty, thin = Matrix(field, []), Matrix(field, [[], []])
    results = [
        a + b, a - b, -a, a * c, c * a, 2 * a, a * field.scalar(3), a.stack(b), a.augment(b),
        empty + empty, -empty, empty * empty, empty.stack(empty), empty.augment(empty),
        thin + thin, -thin, thin * empty, thin.stack(thin), thin.augment(thin),
    ]
    for res in results:
        ref = Matrix(field, res.rows)
        assert res == ref and (res.nrows, res.ncols) == (ref.nrows, ref.ncols)
        assert all(type(x) is Scalar and x.field is field for row in res.rows for x in row)
    assert (thin * empty).nrows == 2 and (a + b).rows[0][2] == field.scalar("3/2")


# -- exact shapes: matrices with no rows or no columns keep their width ----------


def test_zero_row_matrix_keeps_its_width():
    m = Matrix.zeros(F5, 0, 3)
    assert (m.nrows, m.ncols) == (0, 3) and m != Matrix.zeros(F5, 0, 2)
    assert m.nullspace() == [basis_vector(F5, 3, i) for i in range(3)]


def test_product_through_an_empty_inner_dimension_is_zero():
    assert Matrix.zeros(F5, 2, 0) * Matrix.zeros(F5, 0, 3) == Matrix.zeros(F5, 2, 3)


def test_transpose_swaps_empty_shapes():
    t = Matrix.zeros(Q, 0, 3).transpose()
    assert (t.nrows, t.ncols) == (3, 0)
    back = t.transpose()
    assert (back.nrows, back.ncols) == (0, 3)


def test_from_cols_of_empty_columns():
    m = Matrix.from_cols(Q, [(), ()])
    assert (m.nrows, m.ncols) == (0, 2)
    for ragged in ([(1,), (3, 4)], [(1, 2), (3,)]):
        with pytest.raises(DimensionMismatch):
            Matrix.from_cols(Q, ragged)


@st.composite
def _product_operands(draw):
    field = draw(st.sampled_from((Q, F2, F7)))
    k, m, n = (draw(st.integers(0, 4)) for _ in range(3))
    entry = _entry(field)
    a = draw(_grid(entry, k, m))
    b = draw(_grid(entry, m, n))
    return field, (k, m, n), a, b


def _from_grid(field, grid, ncols):
    # the public constructor reads a row-less grid as 0 x 0, so widen it
    return Matrix.zeros(field, 0, ncols) if not grid else Matrix(field, grid)


@settings(max_examples=200, deadline=None)
@given(_product_operands())
def test_shapes_are_exact_in_products_and_solves(operands):
    field, (k, m, n), a_grid, b_grid = operands
    a, b = _from_grid(field, a_grid, m), _from_grid(field, b_grid, n)
    prod = a * b
    assert (prod.nrows, prod.ncols) == (k, n)
    oracle = [[field.scalar(sum((a_grid[i][t] * b_grid[t][j] for t in range(m)), 0))
               for j in range(n)] for i in range(k)]
    assert [list(row) for row in prod.rows] == oracle
    for mat in (a, b, prod):
        null = mat.nullspace()
        assert mat.rank() + len(null) == mat.ncols
        assert all(len(v) == mat.ncols and is_zero_vector(mat.mul_vector(v)) for v in null)
        x, basis = mat.solve(zero_vector(field, mat.nrows))
        assert x == zero_vector(field, mat.ncols) and basis == null


# -- elimination kernel against the boxed reference loops ------------------------


def reference_rref(m: Matrix) -> tuple:
    """Gauss-Jordan on boxed Scalars: first nonzero pivot, row scaled to 1."""
    rows = [list(r) for r in m.rows]
    pivots = []
    pr = 0
    for pc in range(m.ncols):
        pivot_row = None
        for r in range(pr, m.nrows):
            if rows[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = rows[pr][pc].inverse()
        rows[pr] = [inv * x for x in rows[pr]]
        for r in range(m.nrows):
            if r != pr and rows[r][pc]:
                f = rows[r][pc]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.nrows:
            break
    return Matrix(m.field, rows), tuple(pivots)


def _null_rows(field: Field, red, pivots: tuple, ncols: int) -> list:
    """The null basis, raw, read off the raw rows of an RREF with the given
    pivots (the rows may carry more columns to the right): one vector per
    free column, 1 there and 0 at the other free columns."""
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(red, pivots):
            v[p] = field._reduce(-row[f])
        basis.append(tuple(v))
    return basis


def reference_det(m: Matrix) -> Scalar:
    """Gaussian elimination on boxed Scalars, the product of the pivots."""
    n = m.nrows
    rows = [list(r) for r in m.rows]
    det = m.field.one
    for c in range(n):
        pivot_row = None
        for r in range(c, n):
            if rows[r][c]:
                pivot_row = r
                break
        if pivot_row is None:
            return m.field.zero
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = rows[c][c].inverse()
        for r in range(c + 1, n):
            if rows[r][c]:
                f = rows[r][c] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


def _entry(field):
    # zeros are drawn often, so zero rows and columns and rank drops are common
    if field is Q:
        nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    elif field is F_BIG:
        nonzero = st.one_of(st.integers(1, 3), st.integers(1, field.p - 1))
    else:
        nonzero = st.integers(1, field.p - 1)
    return st.one_of(st.just(0), nonzero)


def _grid(entry, nrows, ncols):
    return st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@st.composite
def oracle_matrix(draw, square=False, fields=(Q, F2, F3, F7, F_BIG), nrows=None):
    """Matrices up to 8x10 over Q and GF(p), wide, tall and square, of full or
    (as a product through a thinner inner dimension) deficient rank."""
    field = draw(st.sampled_from(fields))
    nrows = draw(st.integers(0, 8)) if nrows is None else nrows
    ncols = nrows if square else draw(st.integers(0, 10))
    entry = _entry(field)
    if draw(st.booleans()):
        k = draw(st.integers(0, min(nrows, ncols)))
        left, right = draw(_grid(entry, nrows, k)), draw(_grid(entry, k, ncols))
        rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(ncols)]
                for i in range(nrows)]
    else:
        rows = draw(_grid(entry, nrows, ncols))
    return Matrix(field, rows)


def _assert_boxed_in(m: Matrix, field: Field):
    assert m.field is field
    for row in m.rows:
        assert len(row) == m.ncols
        for x in row:
            assert type(x) is Scalar and x.field is field


def _values(m: Matrix) -> list:
    return [[x.value for x in row] for row in m.rows]


@st.composite
def tall_rational_matrix(draw):
    """Tall matrices over Q, up to 24 x 6, of rank below the column count
    or equal to it: combinations of a few integer rows, some with integer
    coefficients (rows of ints, whose small pivots often divide the
    entries below them) and some with fractional ones (rows that hold
    Fractions)."""
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(ncols + 1, 24))
    k = draw(st.integers(0, ncols))
    small = st.integers(-3, 3)
    base = draw(_grid(small, k, ncols))
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    rows = []
    for _ in range(nrows):
        coeffs = draw(st.lists(draw(st.sampled_from((small, rational))), min_size=k, max_size=k))
        rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), 0) for j in range(ncols)])
    return Matrix(Q, rows)


@settings(max_examples=450, deadline=None)
@given(oracle_matrix() | tall_rational_matrix())
def test_rref_matches_reference(m):
    red, pivots = m.rref()
    want, want_pivots = reference_rref(m)
    assert pivots == want_pivots
    assert (red.nrows, red.ncols) == (want.nrows, want.ncols)
    assert _values(red) == _values(want)
    _assert_boxed_in(red, m.field)


@settings(max_examples=300, deadline=None)
@given(oracle_matrix(fields=(Q,)) | tall_rational_matrix())
def test_integer_kernel_keeps_rows_primitive(m):
    rows, pivots = _integer_rref(_clear_denominators(m.raw)[0], m.ncols)
    for row in rows:
        assert math.gcd(*row) in (0, 1)
    want = _values(reference_rref(Matrix(Q, rows))[0])
    got = [[fractions.Fraction(x, row[pc]) for x in row] for row, pc in zip(rows, pivots)]
    assert got == want[: len(pivots)]
    assert all(not any(row) for row in rows[len(pivots):])


@settings(max_examples=200, deadline=None)
@given(oracle_matrix(fields=(Q, F2, F5, F_BIG)))
def test_echelon_push_answers_whether_the_rank_grows(m):
    field, rows = m.field, m.raw

    def rank(vectors):
        return Matrix._of_raw(field, tuple(vectors), m.ncols).rank()

    echelon = _Echelon(field)
    kept = []
    for v in rows:
        grows = rank(kept + [v]) > len(kept)
        assert echelon.push(v) is grows
        if grows:
            kept.append(v)
    assert len(echelon.rows) == len(kept) == m.rank()
    assert rank(kept + echelon.rows) == len(kept)
    # popping back to each shorter prefix of the kept rows restores its answers
    while kept:
        kept.pop()
        echelon.pop()
        for v in rows:
            grows = rank(kept + [v]) > len(kept)
            assert echelon.push(v) is grows
            if grows:
                echelon.pop()
        assert rank(kept + echelon.rows) == len(kept) == len(echelon.rows)


@settings(max_examples=450, deadline=None)
@given(oracle_matrix() | tall_rational_matrix())
def test_null_space_kernel_matches_the_reference_read_off(m):
    red, pivots = reference_rref(m)
    basis, free = _null_space_rows(m.field, m.raw, m.ncols)
    assert free == tuple(c for c in range(m.ncols) if c not in pivots)
    assert basis == _null_rows(m.field, red.raw, pivots, m.ncols)
    # all-zero equations, which the kernel skips, change neither
    zero = (0,) * m.ncols
    padded = [zero] + [row for equation in m.raw for row in (equation, zero)]
    assert _null_space_rows(m.field, padded, m.ncols) == (basis, free)


KERNELS = {"_residue_rref", "_integer_rref", "_clear_denominators", "_residue_det", "_bareiss_det",
           "_null_space_rows", "_det_rows"}


def test_only_exactmath_names_the_elimination_kernels():
    modules = [p for p in Path(exactmath.__file__).parent.glob("*.py") if p.name != "exactmath.py"]
    assert modules
    offenders = []
    for path in sorted(modules):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # a Name, an attribute, an imported alias or a definition
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in KERNELS:
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


@settings(max_examples=300, deadline=None)
@given(oracle_matrix(square=True))
def test_det_matches_reference(m):
    d = m.det()
    want = reference_det(m)
    assert type(d) is Scalar and d.field is m.field
    assert d.value == want.value


@settings(max_examples=200, deadline=None)
@given(oracle_matrix(square=True))
def test_inverse_is_two_sided(m):
    inv = m.inverse()
    if not reference_det(m):
        assert inv is None
        return
    assert inv is not None
    _assert_boxed_in(inv, m.field)
    ident = Matrix.identity(m.field, m.nrows)
    if m.nrows:
        assert m * inv == ident and inv * m == ident


def reference_solve(m: Matrix, b):
    """Two eliminations: the augmented reference RREF for the particular
    solution, the RREF of m alone for the null basis."""
    n = m.ncols
    red, pivots = reference_rref(Matrix(m.field, [row + (x,) for row, x in zip(m.rows, b)]))
    if pivots and pivots[-1] == n:
        return None
    x = [m.field.zero] * n
    for r, pc in enumerate(pivots):
        x[pc] = red.rows[r][n]
    red, pivots = reference_rref(m)
    return tuple(x), [_box(m.field, v) for v in _null_rows(m.field, red.raw, pivots, n)]


@st.composite
def _system(draw):
    """A matrix over Q, GF(2), GF(7) or GF(2^31 - 1) and a right-hand side,
    either drawn freely (often inconsistent) or as the image of a vector."""
    m = draw(oracle_matrix(fields=(Q, F2, F7, F_BIG)))
    entry = _entry(m.field)
    if draw(st.booleans()):
        b = m.mul_vector(tuple(m.field.scalar(x) for x in draw(_grid(entry, 1, m.ncols))[0]))
    else:
        b = tuple(m.field.scalar(x) for x in draw(_grid(entry, 1, m.nrows))[0])
    return m, b


@settings(max_examples=300, deadline=None)
@given(_system())
def test_solve_eliminates_once_with_the_same_answer(system):
    m, b = system
    got = m.solve(b)
    want = reference_solve(m, b)
    if want is None:
        assert got is None
        return
    assert got is not None
    x, null = got
    assert [v.value for v in x] == [v.value for v in want[0]]
    assert [[v.value for v in vec] for vec in null] == [[v.value for v in vec] for vec in want[1]]
    assert null == m.nullspace()
    assert m.mul_vector(x) == tuple(b)


def test_elimination_examples_against_reference():
    cases = [
        qm([[0, 0, 3], [0, -2, 1], [0, 4, -2]]),
        qm([[fractions.Fraction(1, 2), fractions.Fraction(-1, 3)], [3, -2]]),
        qm([[6, 10, 15], [4, 6, 9], [2, 0, 1]]),
        Matrix(F_BIG, [[2**31 - 2, 5], [3, 0]]),
        Matrix(F7, [[0, 0], [0, 0], [0, 1]]),
    ]
    for m in cases:
        assert _values(m.rref()[0]) == _values(reference_rref(m)[0])
        if m.nrows == m.ncols:
            assert m.det() == reference_det(m)


# -- matrix arithmetic against the boxed reference loop ----------------------------


def reference_dot(u, v, field):
    """The boxed dot product: Scalar products summed, zeros skipped."""
    total = field.zero
    for a, b in zip(u, v):
        if a and b:
            total = total + a * b
    return total


def reference_inverse(m: Matrix):
    """The right block of the reference RREF of [m | 1], or None."""
    n = m.nrows
    ident = Matrix.identity(m.field, n).rows
    red, pivots = reference_rref(Matrix(m.field, [r + e for r, e in zip(m.rows, ident)]))
    if pivots[:n] != tuple(range(n)):
        return None
    return [list(row[n:]) for row in red.rows]


def _canonical_rational(x) -> bool:
    """An int, or a Fraction that is not integral: the one raw form over Q."""
    return type(x) is int or (type(x) is fractions.Fraction and x.denominator > 1)


def _assert_raw_in(m: Matrix, field: Field):
    assert m.field is field and len(m.raw) == m.nrows
    for row in m.raw:
        assert len(row) == m.ncols
        for x in row:
            if field is Q:
                assert _canonical_rational(x)
            else:
                assert type(x) is int and 0 <= x < field.p


@st.composite
def _arithmetic_operands(draw):
    """Two k x m matrices, an m x n matrix, an m x m matrix, a scalar and an
    m-vector over one field; every dimension may be 0."""
    field = draw(st.sampled_from((Q, F2, F7, F_BIG)))
    k, m, n = (draw(st.integers(0, 4)) for _ in range(3))
    entry = _entry(field)
    a, b = (_from_grid(field, draw(_grid(entry, k, m)), m) for _ in range(2))
    c = _from_grid(field, draw(_grid(entry, m, n)), n)
    sq = _from_grid(field, draw(_grid(entry, m, m)), m)
    s = field.scalar(draw(entry))
    v = tuple(field.scalar(x) for x in draw(_grid(entry, 1, m))[0])
    return field, a, b, c, sq, s, v


@settings(max_examples=300, deadline=None)
@given(_arithmetic_operands())
def test_matrix_arithmetic_matches_the_boxed_reference(operands):
    field, a, b, c, sq, s, v = operands
    ra, rb = a.rows, b.rows
    entrywise = {
        "+": (a + b, [[x + y for x, y in zip(r, t)] for r, t in zip(ra, rb)]),
        "-": (a - b, [[x - y for x, y in zip(r, t)] for r, t in zip(ra, rb)]),
        "neg": (-a, [[-x for x in r] for r in ra]),
        "s*": (s * a, [[s * x for x in r] for r in ra]),
        "*s": (a * s, [[s * x for x in r] for r in ra]),
        "int*": (3 * a, [[field.scalar(3) * x for x in r] for r in ra]),
    }
    cols = c.cols()
    products = {
        "matmul": (a * c, [[reference_dot(r, col, field) for col in cols] for r in ra]),
        "transpose": (a.transpose(), [list(col) for col in a.cols()]),
    }
    for name, (got, want) in {**entrywise, **products}.items():
        assert [list(row) for row in got.rows] == want, name
        _assert_raw_in(got, field)
    assert (a * c).ncols == c.ncols and a.transpose().ncols == a.nrows
    assert a.mul_vector(v) == tuple(reference_dot(r, v, field) for r in ra)
    assert sq.det() == reference_det(sq)
    inv = sq.inverse()
    want = reference_inverse(sq)
    if want is None:
        assert inv is None
    else:
        assert inv is not None and [list(row) for row in inv.rows] == want
        _assert_raw_in(inv, field)
    for m in (a, b, c, sq, sq.rref()[0]):
        _assert_raw_in(m, field)


# -- the one product kernel and table boxing ---------------------------------------

KERNEL_FIELDS = (F2, F3, F5, F_TOP, F_BIG, Q)


def test_a_table_is_built_below_the_bound_only():
    assert not any(map(_is_prime, range(1022, TABLE_BOUND)))
    for field in (F2, F3, F5, F7, F_TOP):
        assert len(field._table) == field.p
        assert field.zero is field._table[0] and field.one is field._table[1]
        assert all(type(x) is Scalar and x.field is field and x.value == v
                   for v, x in enumerate(field._table))
    for field in (Q, F_BIG, Field.gf(1031)):
        assert field._table is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_boxing_gives_the_scalars_a_new_one_would_equal(data):
    field = data.draw(st.sampled_from(KERNEL_FIELDS))
    values = data.draw(st.lists(_entry(field), max_size=6))
    raw = [field._raw(x) for x in values]
    fresh = tuple(Scalar(field, x) for x in raw)
    m = Matrix._of_raw(field, (tuple(raw),), len(raw))
    ways = {
        "_box": _box(field, raw),
        "scalar": tuple(field.scalar(x) for x in values),
        "scalar of a string": tuple(field.scalar(str(x)) for x in values),
        "entries_flat": m.entries_flat(),
        "rows": m.rows[0],
    }
    for name, got in ways.items():
        assert got == fresh, name
        assert all(type(x) is Scalar and x.field is field and type(x.value) is type(y.value)
                   for x, y in zip(got, fresh)), name
        if field._table is not None:
            assert all(x is field._table[v] for x, v in zip(got, raw)), name
    if field is Q:
        with pytest.raises(NotFinite):
            next(field.elements())
        return
    first = list(itertools.islice(field.elements(), 3))
    assert first == [Scalar(field, v) for v in range(min(3, field.p))]
    if field._table is not None:
        assert all(x is y for x, y in zip(field.elements(), field._table))
        assert field.zero is next(field.elements())


@st.composite
def _kernel_operands(draw):
    """A k x m and an m x n matrix over one field, every dimension 0 to 4 but
    GF(7)'s inner one, 0 to 9: products of inner dimension m over GF(7) run
    packed up to m = 7, where m (p - 1)^2 < 256, and flat above it."""
    field = draw(st.sampled_from(KERNEL_FIELDS + (F7,)))
    k, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    m = draw(st.integers(0, 9 if field is F7 else 4))
    entry = _entry(field)
    a = _from_grid(field, draw(_grid(entry, k, m)), m)
    b = _from_grid(field, draw(_grid(entry, m, n)), n)
    return a, b


@settings(max_examples=400, deadline=None)
@given(_kernel_operands())
def test_the_product_kernel_matches_the_boxed_loop(operands):
    a, b = operands
    field = a.field
    raw = _mul_rows(field, a.raw, b.raw, b.ncols)
    assert len(raw) == a.nrows and all(len(row) == b.ncols for row in raw)
    assert [list(_box(field, row)) for row in raw] == boxed.matmul(a, b)
    product = a * b
    assert product.raw == raw and (product.nrows, product.ncols) == (a.nrows, b.ncols)
    _assert_raw_in(product, field)


@pytest.mark.parametrize("p, bound", [(2, 255), (3, 63), (5, 15), (7, 7), (11, 2), (13, 1)])
def test_the_packed_product_on_both_sides_of_its_bound(p, bound):
    # an inner dimension k runs packed iff k (p - 1)^2 < 256; every entry p - 1
    # makes each byte's sum the largest, k (p - 1)^2
    field = Field.gf(p)
    rng = random.Random(p)
    for k in (bound, bound + 1):
        assert (k <= field._pack) == (k == bound) == (k * (p - 1) ** 2 < 256)
        for entry in (lambda: p - 1, lambda: rng.randrange(p)):
            a = Matrix(field, [[entry() for _ in range(k)] for _ in range(2)])
            b = Matrix(field, [[entry() for _ in range(3)] for _ in range(k)])
            raw = _mul_rows(field, a.raw, b.raw, b.ncols)
            assert [list(_box(field, row)) for row in raw] == boxed.matmul(a, b)
            assert all(type(x) is int and 0 <= x < p for row in raw for x in row)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_kept_packed_right_factor_serves_left_factors_of_every_height(p):
    # the right factor is packed on its first product, even one with no
    # rows, and kept; left factors of 1 to 5 rows then reuse its packed rows
    field = Field.gf(p)
    rng = random.Random(p)
    b = Matrix(field, [[rng.randrange(p) for _ in range(3)] for _ in range(4)])
    assert b._packed is None
    assert (Matrix._of_raw(field, (), 4) * b).raw == ()
    kept = b._packed
    assert tuple(kept) == b.raw and kept.ints == [int.from_bytes(bytes(row), "little") for row in b.raw]
    for height in range(1, 6):
        a = Matrix(field, [[rng.randrange(p) for _ in range(4)] for _ in range(height)])
        product = a * b
        assert (product.nrows, product.ncols) == (height, 3)
        assert [list(row) for row in product.rows] == boxed.matmul(a, b)
        assert b._packed is kept


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_the_product_kernel_on_empty_shapes(field):
    three = ((field.one.value,) * 3,) * 3
    for (k, m, n), a, b in (
        ((0, 3, 3), (), three),
        ((3, 3, 0), three, ((),) * 3),
        ((3, 0, 3), ((),) * 3, ()),
        ((0, 0, 0), (), ()),
    ):
        raw = _mul_rows(field, a, b, n)
        assert raw == ((field.zero.value,) * n,) * k
        product = Matrix._of_raw(field, a, m) * Matrix._of_raw(field, b, n)
        assert product.raw == raw and (product.nrows, product.ncols) == (k, n)
        assert [list(row) for row in product.rows] == boxed.matmul(
            Matrix._of_raw(field, a, m), Matrix._of_raw(field, b, n))


# -- the Frobenius form and roots ---------------------------------------------------

FROBENIUS_FIELDS = (Q, F2, F5, F_BIG)


def _raw_poly_mul(field, f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return [field._reduce(x) for x in out]


def _companion(field, factors):
    """The block companion matrix of monic factors (lowest degree first):
    ones below each block's diagonal, minus the lower coefficients in its
    last column."""
    d = sum(len(f) - 1 for f in factors)
    rows = [[0] * d for _ in range(d)]
    at = 0
    for f in factors:
        m = len(f) - 1
        for j in range(m):
            if j + 1 < m:
                rows[at + j + 1][at + j] = 1
            rows[at + j][at + m - 1] = field._reduce(-f[j])
        at += m
    return Matrix._of_raw(field, tuple(map(tuple, rows)), d)


@st.composite
def _conjugator(draw, field, d):
    """An invertible d x d matrix: unit lower times unit upper triangular."""
    entry = _entry(field)
    low = [[1 if i == j else draw(entry) if j < i else 0 for j in range(d)] for i in range(d)]
    up = [[1 if i == j else draw(entry) if j > i else 0 for j in range(d)] for i in range(d)]
    return _from_grid(field, low, d) * _from_grid(field, up, d)


@st.composite
def _frobenius_operands(draw):
    """(A, its invariant factors or None, an invertible conjugator).  Half
    the draws are the block companion matrix of a divisibility chain f_1 |
    f_2 | ... (each f_i f_(i-1) times a monic factor of degree 0 to 2, total
    degree at most 8), conjugated, so that repeated and split factors are
    common; the other half are drawn entry by entry, with unknown factors."""
    field = draw(st.sampled_from(FROBENIUS_FIELDS))
    entry = _entry(field)
    if draw(st.booleans()):
        chain, f = [], [1]
        for _ in range(draw(st.integers(1, 4))):
            g = draw(st.lists(entry, max_size=2)) + [1]
            step = _raw_poly_mul(field, f, [field._raw(x) for x in g])
            if sum(len(h) - 1 for h in chain) + len(step) - 1 > 8:
                break
            f = step
            if len(f) > 1:
                chain.append(tuple(f))
        d = sum(len(h) - 1 for h in chain)
        p = draw(_conjugator(field, d))
        a = p.inverse() * _companion(field, chain) * p if d else Matrix.zeros(field, 0, 0)
        expected = tuple(chain)
    else:
        d = draw(st.integers(0, 8))
        a = _from_grid(field, draw(_grid(entry, d, d)), d)
        expected = None
    return a, expected, draw(_conjugator(field, a.nrows))


@settings(max_examples=200, deadline=None)
@given(_frobenius_operands())
def test_the_frobenius_form_is_the_block_companion_of_dividing_factors(operands):
    a, expected, q = operands
    field, d = a.field, a.nrows
    factors, transform = exactmath._frobenius_rows(field, a.raw)
    if expected is not None:
        assert factors == expected
    p = Matrix._of_raw(field, transform, d)
    assert len(transform) == d and p.is_invertible()
    if d:
        assert p.inverse() * a * p == _companion(field, factors)
    # monic, nonconstant, each dividing the next
    assert all(len(f) > 1 and f[-1] == 1 for f in factors)
    for f, g in zip(factors, factors[1:]):
        assert exactmath._poly_divmod(field, list(g), list(f))[1] == []
    # their product is the charpoly, by the division-free oracle
    product = [1]
    for f in factors:
        product = _raw_poly_mul(field, product, f)
    assert product[-2::-1] == boxed.charpoly([list(row) for row in a.raw], field._reduce)
    # a conjugate has the same factors
    if d:
        assert exactmath._frobenius_rows(field, (q.inverse() * a * q).raw)[0] == factors


@pytest.mark.parametrize("field", (F2, F3, F5, F7, Field.gf(13)), ids=lambda f: f"GF{f.p}")
def test_roots_are_every_solution_over_a_small_field(field):
    p = field.p
    for g in range(1, 9):
        for r in range(1, p):
            assert exactmath._roots(field, g, r) == tuple(c for c in range(1, p) if pow(c, g, p) == r)


def test_roots_are_every_solution_over_each_prime_below_200():
    # g = 2, 4 and 6 reach the square roots (p = 3 mod 4 in closed form,
    # p = 1 mod 4 by Tonelli-Shanks), g = 3 and 6 the split of t^3 - s
    for p in filter(_is_prime, range(200)):
        field = Field.gf(p)
        for g in (1, 2, 3, 4, 6):
            brute = {}
            for c in range(1, p):
                brute.setdefault(pow(c, g, p), []).append(c)
            for r in range(1, p):
                assert exactmath._roots(field, g, r) == tuple(brute.get(r, ()))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2**31 - 1, 998244353, 2**61 - 1, 2**89 - 1)), st.integers(1, 2**89))
def test_square_roots_over_large_primes(p, x):
    # 998244353 = 119 * 2^23 + 1 takes up to 23 Tonelli-Shanks steps; the
    # two largest primes are beyond Field's bound, so only _sqrt sees them
    s = pow(x % (p - 1) + 1, 2, p)
    c = exactmath._sqrt(p, s)
    assert pow(c, 2, p) == s
    if p < 2**32:
        assert exactmath._roots(Field.gf(p), 2, s) == tuple(sorted((c, p - c)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, F_BIG.p - 1), st.booleans())
def test_roots_over_a_large_prime_field(g, x, power):
    p = F_BIG.p
    r = pow(x, g, p) if power else x
    e = math.gcd(g, p - 1)
    roots = exactmath._roots(F_BIG, g, r)
    assert roots == tuple(sorted(set(roots))) and all(pow(c, g, p) == r for c in roots)
    assert len(roots) == (e if pow(r, (p - 1) // e, p) == 1 else 0)
    if power:
        assert x in roots


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8),
    st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool),
    st.booleans(),
)
def test_roots_over_the_rationals(g, x, power):
    r = exactmath._rational(x**g if power else x)
    roots = exactmath._roots(Q, g, r)
    assert all(type(c) in (int, fractions.Fraction) and _canonical_rational(c) for c in roots)
    assert roots == tuple(sorted(set(roots))) and all(c**g == r for c in roots)
    # a rational g-th root is x or -x for one x > 0, and -x only for an even g
    assert len(roots) <= (2 if g % 2 == 0 else 1)
    if power:
        assert x in roots and len(roots) == (2 if g % 2 == 0 else 1)


# -- enumeration -----------------------------------------------------------------


def test_enumerate_vectors_order_and_counts():
    got = list(enumerate_vectors(F2, 2))
    want = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [[x.value for x in v] for v in got] == [list(w) for w in want]

    assert [v[0].value for v in enumerate_vectors(F3, 1)] == [0, 1, 2]
    assert sum(1 for _ in enumerate_vectors(F5, 3)) == 125
    assert len(set(enumerate_vectors(F5, 3))) == 125


def _peak_bytes_of_first(points, count):
    """The first `count` points of a lazy enumeration and the peak memory,
    in bytes, that drawing them allocated."""
    tracemalloc.start()
    try:
        first = list(itertools.islice(points, count))
        return first, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumeration_is_lazy_over_a_large_field():
    # listing GF(2^31 - 1) would take 2^31 Scalars; the first points cost a
    # few tuples
    first, peak = _peak_bytes_of_first(enumerate_vectors(F_BIG, 3), 3)
    assert [[x.value for x in v] for v in first] == [[0, 0, 0], [0, 0, 1], [0, 0, 2]]
    assert peak < 2**20
    start = (F_BIG.scalar(5), F_BIG.scalar(-1))
    first, peak = _peak_bytes_of_first(enumerate_affine(F_BIG, start, [(F_BIG.one,) * 2]), 3)
    assert [[x.value for x in v] for v in first] == [[5, 2**31 - 2], [6, 0], [7, 1]]
    assert peak < 2**20


def test_enumerate_affine_order_is_lex_in_the_coefficients():
    part = (F3.scalar(1), F3.zero, F3.scalar(2))
    basis = [(F3.one, F3.scalar(2), F3.zero), (F3.zero, F3.one, F3.one)]
    want = [boxed.lincomb(c, basis, part) for c in enumerate_vectors(F3, 2)]
    assert list(enumerate_affine(F3, part, basis)) == want
    assert len(set(want)) == 9
    assert list(enumerate_affine(F3, part, [])) == [part]
    with pytest.raises(NotFinite):
        next(enumerate_affine(Q, (Q.one,), []))


def test_enumerate_vectors_rejects_rationals():
    with pytest.raises(NotFinite):
        list(enumerate_vectors(Q, 2))


def test_vector_helpers():
    v = basis_vector(F3, 3, 1)
    w = vadd(v, vscale(F3.scalar(2), v))
    assert is_zero_vector(w)
    assert dot(v, v, F3) == F3.one


def test_scalar_rejects_floats():
    from liefact import matched

    f5 = Field.gf(5)
    # each float used to be truncated over GF(p) or kept as its binary
    # expansion over Q, giving a silently wrong value
    calls = {
        "2.7": lambda: f5.scalar(2.7),
        "0.1": lambda: Field.rationals().scalar(0.1),
        "1.9": lambda: matched.make_l1(1, f5, 1.9, [0, 0, 2.5]),
        "0.5": lambda: Matrix(f5, [[0.5]]),
    }
    for value, call in calls.items():
        with pytest.raises(BadParameter, match=value):
            call()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_raw_rationals_are_canonical(data):
    """Every raw rational made over Q is an int or a non-integral Fraction,
    whatever the inputs: Fractions with denominator 1 are drawn often."""
    from liefact.liecore import LieAlgebra, Subspace
    from liefact.matched import MatchedPair

    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    dim = data.draw(st.integers(1, 4), label="dim")

    def vec(n=dim):
        return [data.draw(entry) for _ in range(n)]

    def grid(nrows, ncols):
        return [vec(ncols) for _ in range(nrows)]

    x, y = Q.scalar(data.draw(entry)), Q.scalar(data.draw(entry))
    values = [Q._raw(data.draw(entry)), Q.from_string("4/2").value, Q.from_string("-6/3").value]
    values += [(x + y).value, (x - y).value, (x * y).value, (-x).value, (3 * x).value]
    if y:
        values += [(x / y).value, y.inverse().value]

    names = [f"e{k}" for k in range(dim)]
    alg = LieAlgebra(Q, names, {pair: vec() for pair in itertools.combinations(range(dim), 2)})
    algebras = [alg]
    p = Matrix(Q, grid(dim, dim))
    if p.is_invertible():
        algebras.append(alg.change_basis(p))
    for a in algebras:
        values += [c for v in a._sc.values() for c in v]
        values += [c for row in a._table for v in row for c in v]
    values += [c for row in Subspace(alg, grid(2, dim)).rows for c in row]
    h = LieAlgebra.abelian(Q, 2)
    pairs = [(i, j) for i in range(2) for j in range(dim)]
    mp = MatchedPair(alg, h, {k: vec(2) for k in pairs}, {k: vec() for k in pairs})
    values += [c for table in (mp.right, mp.left) for v in table.values() for c in v]

    m = Matrix(Q, grid(dim, dim + 1))
    sq = Matrix(Q, grid(dim, dim))
    values += [c for row in m.rref()[0].raw for c in row]
    values += [c.value for v in m.nullspace() for c in v]
    values.append(sq.det().value)
    inv = sq.inverse()
    if inv is not None:
        values += [c for row in inv.raw for c in row]
    sol = sq.solve(tuple(Q.scalar(c) for c in vec()))
    if sol is not None:
        values += [c.value for c in sol[0]] + [c.value for v in sol[1] for c in v]
    assert all(map(_canonical_rational, values)), values

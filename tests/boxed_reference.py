"""Boxed reference implementations of the vector layer.

Lie algebras, subspaces and matched pairs keep raw entries and box only at
their accessors.  These are the loops they replaced, on tuples of Scalars:
linear combinations, the bilinear bracket over the stored structure
constants, coordinates over an rref basis, span and intersection, and from
them the derived and lower central series, the center and the Killing Gram;
and the four matched-pair axioms written out one by one, where the library
reads them off the Jacobiator of the bicrossed bracket.  The tests hold the
raw paths to them.  The exhaustive sweep of deformation maps is here too:
the p^(dim g * dim h) loop that the depth-first search replaced; so are two
raw paths the library replaced, the Killing Gram as traces of n^2 products
of ad matrices, and the derived and lower central series as Subspaces with
every bracket taken over ordered pairs of rows, [L, L] included, where the
library spans [L, L] by the stored brackets, brackets a subspace with itself
over unordered pairs and reads the lower central series' [L, L] off the
derived series.  The Delta-intertwining
relation of an automorphism triple and the product of the semidirect group
are here on Scalars too, as the library had them before they ran on raw
entries, and so is the invariance check of a bilinear form, by evaluate on
boxed basis vectors, and the system of invariant forms with the condition
of every basis triple, where the library keeps only the triples whose
middle index lies in a generating set.  So are the vector helpers the
library dropped (vadd, vsub, vscale, dot, is_zero_vector) and the laws it
now states once on raw entries: the Lie-morphism law, the twisted-derivation
law as bracket identities (violations), the integrability of a product
structure, and evaluate.  The matrix product is here as the boxed loop of
Scalar products that exactmath's one raw kernel, _mul_rows, replaced.  The
division-free (Berkowitz) characteristic polynomial that liecore kept for an
almost abelian algebra, before the product of the invariant factors from
exactmath's Frobenius kernel replaced it, is the oracle of that product.
"""

import itertools
from operator import mul

from liefact.deform import DeformationMap, is_deformation_map
from liefact.errors import DimensionMismatch
from liefact.exactmath import Matrix, Scalar, _box, basis_vector, zero_vector
from liefact.iso import SemidirectElement
from liefact.liecore import BilinearForm, Subspace, basis_pairs, defects


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


def is_zero_vector(u) -> bool:
    return not any(u)


def dot(u, v, field) -> Scalar:
    if len(u) != len(v):
        raise DimensionMismatch("dot of unequal lengths")
    raw = field._raw
    return Scalar(field, field._reduce(sum(map(mul, map(raw, u), map(raw, v)))))


def matmul(a, b) -> list:
    """The rows of a * b on Scalars: each entry the sum, from zero, of the
    boxed products of a row of a and a column of b."""
    zero, cols = a.field.zero, b.cols()
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in cols] for row in a.rows]


def lincomb(coeffs, vectors, start) -> tuple:
    """start + sum of c * v over paired coefficients and vectors."""
    out = list(start)
    for c, v in zip(coeffs, vectors):
        if c:
            for k, x in enumerate(v):
                if x:
                    out[k] = out[k] + c * x
    return tuple(out)


def bracket(alg, x, y) -> tuple:
    """[x, y] on Scalars, summed over the stored pairs i < j."""
    out = list(zero_vector(alg.field, alg.dim))
    for (i, j), vec in alg.sc_pairs():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for k, s in enumerate(vec):
                if s:
                    out[k] = out[k] + c * s
    return tuple(out)


def coordinates(basis, v):
    """Coefficients of v over an rref basis, or None if v is outside."""
    r = list(v)
    coeffs = []
    for row in basis:
        pivot = next(k for k, x in enumerate(row) if x)
        c = r[pivot]
        coeffs.append(c)
        if c:
            r = [a - c * b for a, b in zip(r, row)]
    if any(r):
        return None
    return tuple(coeffs)


def span_rref(field, vectors) -> list:
    """Canonical (rref) basis of the span; zero rows dropped."""
    vecs = list(vectors)
    if not vecs:
        return []
    red, pivots = Matrix(field, vecs).rref()
    return list(red.rows[: len(pivots)])


def intersect_spans(field, basis_a, basis_b, ambient_dim: int) -> list:
    """rref basis of span(basis_a) ∩ span(basis_b)."""
    if not basis_a or not basis_b:
        return []
    cols = [list(v) for v in basis_a] + [[-x for x in v] for v in basis_b]
    m = Matrix.from_cols(field, cols)
    origin = zero_vector(field, ambient_dim)
    return span_rref(field, [lincomb(sol, basis_a, origin) for sol in m.nullspace()])


def _units(alg) -> list:
    return [basis_vector(alg.field, alg.dim, i) for i in range(alg.dim)]


def _series(alg, step) -> list:
    terms = [span_rref(alg.field, _units(alg))]
    while True:
        nxt = span_rref(alg.field, step(terms[-1]))
        stop = nxt == terms[-1] or not nxt
        terms.append(nxt)
        if stop:
            return terms


def derived_series(alg) -> list:
    """rref bases of L, [L, L], ... until the series repeats or reaches 0."""
    return _series(alg, lambda s: [bracket(alg, u, v) for u in s for v in s])


def lower_central_series(alg) -> list:
    """rref bases of L, [L, L], [L, [L, L]], ... until they repeat or reach 0."""
    full = span_rref(alg.field, _units(alg))
    return _series(alg, lambda s: [bracket(alg, u, v) for u in full for v in s])


def center(alg) -> list:
    """rref basis of the x with [x, e_j] = 0 for every j."""
    e = _units(alg)
    rows = [
        tuple(bracket(alg, e[i], e[j])[k] for i in range(alg.dim))
        for j in range(alg.dim)
        for k in range(alg.dim)
    ]
    return span_rref(alg.field, Matrix(alg.field, rows).nullspace())


def killing_gram(alg) -> Matrix:
    """trace(ad(e_i) ad(e_j)), with ad built column by column from bracket."""
    e = _units(alg)
    ads = [Matrix.from_cols(alg.field, [bracket(alg, x, y) for y in e]) for x in e]
    span = range(alg.dim)
    return Matrix(
        alg.field,
        [[sum(((a * b).rows[k][k] for k in span), alg.field.zero) for b in ads] for a in ads],
    )


def killing_gram_by_products(alg) -> Matrix:
    """trace(ad(e_i) ad(e_j)) from the n^2 products of the raw ad matrices."""
    span = range(alg.dim)
    red = alg.field._reduce
    ads = [alg.ad_basis(i) for i in span]
    products = ([(a * b).raw for b in ads] for a in ads)
    gram = tuple(tuple(red(sum(p[k][k] for k in span)) for p in row) for row in products)
    return Matrix._of_raw(alg.field, gram, alg.dim)


def _ordered_bracket(a, b):
    """[A, B] of two Subspaces, spanned by the raw brackets of every ordered
    pair of their rows."""
    bracket = a.algebra._bracket
    return Subspace._of_rows(a.algebra, [bracket(u, v) for u in a.rows for v in b.rows])


def _ordered_series(alg, left) -> tuple:
    """From the full space alone, [left(S), S] of the last term S until the
    series repeats or reaches 0, as Subspaces."""
    series = [Subspace.full(alg)]
    while True:
        nxt = _ordered_bracket(left(series[-1]), series[-1])
        stop = nxt == series[-1] or nxt.dim == 0
        series.append(nxt)
        if stop:
            return tuple(series)


def derived_series_ordered(alg) -> tuple:
    """The derived series as Subspaces, each term bracketed over ordered
    pairs: [L, L] from the n^2 brackets of the identity rows, [S, S] from
    every ordered pair of S's rows."""
    return _ordered_series(alg, lambda s: s)


def lower_central_series_ordered(alg) -> tuple:
    """The lower central series as Subspaces, over ordered pairs, from the
    full space alone: [L, L] is bracketed again rather than read off the
    derived series."""
    full = Subspace.full(alg)
    return _ordered_series(alg, lambda s: full)


def sweep_deformation_maps(mp) -> list:
    """Every linear map h -> g over GF(p) that passes is_deformation_map, in
    lexicographic order of the row-major entries (first entry slowest)."""
    field = mp.field
    m, n = mp.g.dim, mp.h.dim
    starts = [a * n for a in range(m)]
    found = []
    for flat in itertools.product(range(field.p), repeat=m * n):
        r = Matrix._of_raw(field, tuple(flat[s : s + n] for s in starts), n)
        if is_deformation_map(mp, r):
            found.append(DeformationMap(mp, r))
    return found


def matched_pair_defects(mp) -> list:
    """The four matched-pair axioms on Scalars, as (axiom, indices, defect)
    records in axiom order, each in index order; empty = valid."""
    g, h = mp.g, mp.h
    f = mp.field

    def act(table, dim):
        boxed_table = {key: _box(f, v) for key, v in table.items()}

        def apply(x, a):
            coeffs = [x[i] * a[j] for i, j in boxed_table]
            return lincomb(coeffs, boxed_table.values(), zero_vector(f, dim))

        return apply

    left, right = act(mp.left, g.dim), act(mp.right, h.dim)
    gb = [basis_vector(f, g.dim, j) for j in range(g.dim)]
    hb = [basis_vector(f, h.dim, i) for i in range(h.dim)]
    hpairs, gpairs = list(basis_pairs(h.dim)), list(basis_pairs(g.dim))

    # (g, |>) is a left h-module
    def left_module(i, j, k):
        return vsub(left(hb[i], left(hb[j], gb[k])), left(hb[j], left(hb[i], gb[k])))

    # (h, <|) is a right g-module
    def right_module(i, a, b):
        return vsub(right(right(hb[i], gb[a]), gb[b]), right(right(hb[i], gb[b]), gb[a]))

    # x |> [a, b] = [x |> a, b] + [a, x |> b] + (x <| a) |> b - (x <| b) |> a
    def compat_left(i, a, b):
        rhs = vadd(g.bracket(left(hb[i], gb[a]), gb[b]), g.bracket(gb[a], left(hb[i], gb[b])))
        rhs = vadd(rhs, left(right(hb[i], gb[a]), gb[b]))
        return vsub(rhs, left(right(hb[i], gb[b]), gb[a]))

    # [x, y] <| a = [x, y <| a] + [x <| a, y] + x <| (y |> a) - y <| (x |> a)
    def compat_right(i, j, a):
        rhs = vadd(h.bracket(hb[i], right(hb[j], gb[a])), h.bracket(right(hb[i], gb[a]), hb[j]))
        rhs = vadd(rhs, right(hb[i], left(hb[j], gb[a])))
        return vsub(rhs, right(hb[j], left(hb[i], gb[a])))

    axioms = [
        ("left-module", [(i, j, k) for i, j in hpairs for k in range(g.dim)],
         lambda i, j, k: left(h.bracket_basis(i, j), gb[k]), left_module),
        ("right-module", [(i, a, b) for a, b in gpairs for i in range(h.dim)],
         lambda i, a, b: right(hb[i], g.bracket_basis(a, b)), right_module),
        ("compat-left", [(i, a, b) for i in range(h.dim) for a, b in gpairs],
         lambda i, a, b: left(hb[i], g.bracket_basis(a, b)), compat_left),
        ("compat-right", [(i, j, a) for i, j in hpairs for a in range(g.dim)],
         lambda i, j, a: right(h.bracket_basis(i, j), gb[a]), compat_right),
    ]
    return [
        (name, index, vsub(lhs, rhs))
        for name, indices, lhs_of, rhs_of in axioms
        for index, lhs, rhs in defects(indices, lhs_of, rhs_of)
    ]


def relation_defect(algebra, delta, delta_prime, alpha, h0, v) -> bool:
    """v∘Delta - alpha*Delta'∘v = [v(-), h0] column by column, on a Scalar
    alpha and a Scalar h0; True when it holds."""
    lhs = v * delta - alpha * (delta_prime * v)
    return all(lhs.col(i) == algebra.bracket(v.col(i), h0) for i in range(algebra.dim))


def semidirect_multiply(s1, s2):
    """(x, (alpha, v)) * (y, (beta, w)) = (x + alpha^-1 v(y), (alpha*beta, v∘w))
    on Scalars."""
    twist = vscale(s1.alpha.inverse(), s1.v.matrix.mul_vector(s2.translation))
    return SemidirectElement(vadd(s1.translation, twist), s1.alpha * s2.alpha, s1.v.compose(s2.v))


def is_invariant(form) -> bool:
    """B([e_i, e_j], e_k) = B(e_i, [e_j, e_k]) on every basis triple, by
    form.evaluate on boxed basis vectors."""
    alg = form.algebra
    e = [basis_vector(alg.field, alg.dim, i) for i in range(alg.dim)]
    return not any(defects(
        itertools.product(range(alg.dim), repeat=3),
        lambda i, j, k: form.evaluate(alg.bracket_basis(i, j), e[k]),
        lambda i, j, k: form.evaluate(e[i], alg.bracket_basis(j, k)),
    ))


def invariant_bilinear_forms(algebra) -> list:
    """The forms B([e_i, e_j], e_k) = B(e_i, [e_j, e_k]) on every basis
    triple, as the null space of n^3 rows on Scalars over the Gram entries
    (g_{m,k} is unknown m * n + k)."""
    f, n = algebra.field, algebra.dim
    if n == 0:
        return []
    rows = []
    for i, j, k in itertools.product(range(n), repeat=3):
        row = [f.zero] * (n * n)
        for m, c in enumerate(algebra.bracket_basis(i, j)):
            row[m * n + k] += c
        for m, c in enumerate(algebra.bracket_basis(j, k)):
            row[i * n + m] -= c
        rows.append(row)
    return [
        BilinearForm(algebra, Matrix(f, [flat[r * n : (r + 1) * n] for r in range(n)]))
        for flat in Matrix(f, rows).nullspace()
    ]


def is_lie_morphism(linear_map) -> bool:
    """m[e_i, e_j] = [m e_i, m e_j] on every basis pair, on Scalars."""
    m, dom, cod = linear_map.matrix, linear_map.domain, linear_map.codomain
    return not any(defects(
        basis_pairs(dom.dim),
        lambda i, j: m.mul_vector(dom.bracket_basis(i, j)),
        lambda i, j: cod.bracket(m.col(i), m.col(j)),
    ))


def violations(t, algebra) -> list:
    """The twisted-derivation law as bracket identities on Scalars: per basis
    pair, ("lambda", i, j, lambda([e_i, e_j])) and then ("delta", i, j,
    Delta[e_i, e_j] - [Delta e_i, e_j] - [e_i, Delta e_j] - lambda_j Delta e_i
    + lambda_i Delta e_j), each only where it is nonzero."""
    f = algebra.field
    e = [basis_vector(f, algebra.dim, i) for i in range(algebra.dim)]
    lam, d = t.lam, t.delta
    bad = []
    for i, j in basis_pairs(algebra.dim):
        bij = algebra.bracket_basis(i, j)
        lam_val = dot(lam, bij, f)
        di, dj = d.col(i), d.col(j)
        law = vadd(algebra.bracket(di, e[j]), algebra.bracket(e[i], dj))
        law = vadd(law, vsub(vscale(lam[j], di), vscale(lam[i], dj)))
        if lam_val:
            bad.append(("lambda", i, j, lam_val))
        defect = vsub(d.mul_vector(bij), law)
        if not is_zero_vector(defect):
            bad.append(("delta", i, j, defect))
    return bad


def is_product_structure(algebra, f) -> bool:
    """An involution f != +-id with f([x,y]) = [f(x),y] + [x,f(y)] -
    f([f(x),f(y)]) on every basis pair, on Scalars."""
    m = f.matrix
    n = algebra.dim
    ident = Matrix.identity(algebra.field, n)
    if m * m != ident or m == ident or m == -ident:
        return False
    e = [basis_vector(algebra.field, n, i) for i in range(n)]

    def rhs(i, j):
        fi, fj = m.col(i), m.col(j)
        return vsub(
            vadd(algebra.bracket(fi, e[j]), algebra.bracket(e[i], fj)),
            m.mul_vector(algebra.bracket(fi, fj)),
        )

    return not any(defects(
        basis_pairs(n), lambda i, j: m.mul_vector(algebra.bracket_basis(i, j)), rhs
    ))


def evaluate(form, x, y) -> Scalar:
    """B(x, y) = x . (G y), on Scalars."""
    return dot(x, form.gram.mul_vector(y), form.algebra.field)


def charpoly(a, reduce) -> list:
    """[c_1, ..., c_d] with det(tI - a) = t^d + c_1 t^(d-1) + ... + c_d, for a
    square list of raw rows; reduce makes each computed entry canonical.

    Division-free (Berkowitz), so it holds in every characteristic: the
    polynomial of the leading (r+1)-block is a lower triangular Toeplitz
    matrix with first column (1, -a_rr, -R S, -R B S, ..., -R B^(r-1) S)
    times the polynomial of the leading r-block B, where S is the column
    above a_rr and R the row to its left.
    """
    poly = [1]
    for r in range(len(a)):
        block = [row[:r] for row in a[:r]]
        left = a[r][:r]
        column = [row[r] for row in a[:r]]
        toeplitz = [1, reduce(-a[r][r])]
        for _ in range(r):
            toeplitz.append(reduce(-sum(map(mul, left, column))))
            column = [reduce(sum(map(mul, row, column))) for row in block]
        poly = [
            reduce(sum(toeplitz[i - j] * poly[j] for j in range(min(i, r) + 1)))
            for i in range(r + 2)
        ]
    return poly[1:]

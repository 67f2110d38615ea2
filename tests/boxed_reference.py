"""Boxed reference implementations of the vector layer.

Lie algebras and subspaces keep raw entries and box only at their
accessors.  These are the loops they replaced, on tuples of Scalars: the
bilinear bracket over the stored structure constants, coordinates over an
rref basis, span and intersection, and from them the derived and lower
central series, the center and the Killing Gram.  The tests hold the raw
paths to them.  The exhaustive sweep of deformation maps is here too: the
p^(dim g * dim h) loop that the depth-first search replaced.
"""

import itertools

from liefact.deform import DeformationMap, is_deformation_map
from liefact.exactmath import Matrix, basis_vector, lincomb, zero_vector


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

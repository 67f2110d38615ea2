"""Lie algebras given by structure constants, and their structural machinery.

A LieAlgebra stores the bracket only on ordered basis pairs (i < j), so
antisymmetry holds by construction and the Jacobi identity is the single
property left to validate.  From these validated constants the constructor
builds, once, the dense bracket table _table[i][j] = [e_i, e_j]: antisymmetric,
with zero vectors on the diagonal and for pairs that bracket to zero.  Basis
brackets, ad(e_i) and the linear systems of this module read that table.
A library builder that already holds raw constants (the r-deformation) uses
the trusted LieAlgebra._of_raw, which reduces each entry instead of
coercing it and builds the same constants and table.

Both hold raw entries (canonical rationals over Q: ints when integral,
Fractions otherwise; residues in [0, p) over GF(p)), and so does a
Subspace's rref basis; the bilinear bracket _bracket runs on raw vectors.
Scalars appear only at the accessors: bracket_basis, bracket, ad,
sc_pairs, Subspace.basis and Subspace.coordinates box what they return, and
the series, center, Killing Gram, characteristic polynomial and invariant
forms are computed from the raw table and raw rows.

Each law checked on all basis pairs or triples is stated once, on raw
entries.  The Jacobi identity, the Lie-morphism law and the integrability of
a product structure go through defects(), a lazy generator of the indices
where the two sides differ, so a yes/no caller stops at the first defect and
a report keeps every record in index order.  The Lie-morphism law is
_morphism_defects: LinearMap.is_lie_morphism and iso.verify_iso read it, and
the isomorphism search reads it through verify_iso at each leaf.  A law
linear in its unknown is one raw linear system that its check applies and
its solver solves: invariance of a
form is _invariance_rows, the twisted-derivation law (lambda = 0) is
derivations._twisted_system, and the triple relation is iso._relation_system.
The Jacobiator of one basis triple is _jacobiator, raw; the matched-pair
axioms are the Jacobi identity of the bicrossed bracket on mixed triples, and
check_matched_pair reads them off that same _jacobiator, as it reads the
Jacobi identity of g and h.
Characteristic subspaces (center, derived and lower central series),
invariant bilinear forms, self-duality (decided on a finite grid of form
combinations, over Q as over GF(p)) and product structures all reduce to
exact linear algebra over the base field; the Killing Gram is a sum of
table entries, with no matrix product; [L, L] is the span of the stored
brackets, and [S, S] brackets each unordered pair of S's rows once.
Structure constants never change
after construction, so the Jacobi violations (check_jacobi copies them,
invariant_bilinear_forms and self_dual read them), the series (as tuples,
the lower central one starting from the derived algebra [L, L]), the
center, the Killing Gram and, for an almost abelian algebra, its form
(almost_abelian: z, the derived algebra, ad(z) on it with its invariant
factors and charpoly, and the basis that puts it in Frobenius form) and,
for a derived algebra of dimension at most 1, the frame that puts it in
normal form (derived_line_frame) are computed once per LieAlgebra, on first
use, and kept on it.

A LinearMap checks its matrix's shape and field against its algebras when
it is built; compose and inverse build their results with the trusted
LinearMap._of, since a product or inverse of checked maps has the right
shape and field by construction.
"""

from __future__ import annotations

import functools
import itertools
from itertools import compress
import json
from dataclasses import dataclass
from operator import mul, neg, sub
from typing import Optional

from .errors import (
    CharTwo,
    DimensionMismatch,
    FieldMismatch,
    FormatError,
)
from .exactmath import (
    Field,
    Matrix,
    Scalar,
    basis_vector,
    zero_vector,
    _Echelon,
    _box,
    _frobenius_rows,
    _inverse_rows,
    _is_json_scalar,
    _mul_rows,
    _poly_mul,
    _power,
    _span_rows,
)


def basis_pairs(n: int):
    """Index pairs (i, j) with 0 <= i < j < n, row by row."""
    return itertools.combinations(range(n), 2)


def defects(indices, lhs, rhs):
    """Yield (index, lhs, rhs) for each index tuple where the two sides differ.

    lhs and rhs take the unpacked index.  The generator is lazy, so a yes/no
    check written as ``not any(defects(...))`` stops at the first defect.
    """
    for index in indices:
        left, right = lhs(*index), rhs(*index)
        if left != right:
            yield index, left, right


class LieAlgebra:
    """Finite-dimensional Lie algebra over an exact field.

    _sc maps an index pair (i, j) with i < j to the raw coordinate vector of
    [e_i, e_j]; pairs that bracket to zero are not stored.  _table[i][j] is
    [e_i, e_j], raw, for every index pair, built once from _sc.  _invariants
    keeps the results of the functions marked @_kept, by name.
    """

    __slots__ = ("field", "dim", "basis_names", "_sc", "_index", "_table", "_invariants")

    def __init__(self, field: Field, basis_names, brackets):
        names = tuple(basis_names)
        dim = len(names)
        if len(set(names)) != dim:
            raise FormatError("duplicate basis names")
        sc = {}
        for (i, j), vec in brackets.items():
            if not (0 <= i < j < dim):
                raise FormatError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            v = tuple(map(field._raw, vec))
            if len(v) != dim:
                raise DimensionMismatch("bracket vector has wrong length")
            if any(v):
                sc[(i, j)] = v
        self._build(field, names, sc)

    def _build(self, field: Field, names: tuple, sc: dict) -> None:
        """Set every slot from distinct names and the checked, nonzero raw
        structure constants sc, and build the bracket table from them."""
        self.field = field
        self.basis_names = names
        self.dim = dim = len(names)
        self._index = {name: i for i, name in enumerate(names)}
        self._sc = sc
        zero = (field.zero.value,) * dim
        table = [[zero] * dim for _ in range(dim)]
        for (i, j), v in sc.items():
            table[i][j] = v
            table[j][i] = tuple(map(field._reduce, map(neg, v)))
        self._table = table
        self._invariants = {}

    @classmethod
    def _of_raw(cls, field: Field, basis_names: tuple, brackets: dict) -> "LieAlgebra":
        """Trusted constructor for a builder that holds raw constants: the
        basis names are distinct, and brackets maps pairs i < j to vectors
        of dim raw entries, perhaps not yet reduced.  Each entry is reduced,
        not coerced or checked, and zero vectors are dropped, so _sc and
        _table are those the public constructor builds.  Neither checks
        Jacobi."""
        red = field._reduce
        sc = {}
        for key, vec in brackets.items():
            v = tuple(map(red, vec))
            if any(v):
                sc[key] = v
        algebra = cls.__new__(cls)
        algebra._build(field, basis_names, sc)
        return algebra

    # -- constructors ----------------------------------------------------------

    @classmethod
    def abelian(cls, field: Field, dim: int, names=None) -> "LieAlgebra":
        names = names or tuple(f"e{i + 1}" for i in range(dim))
        return cls(field, names, {})

    @classmethod
    def from_named_brackets(cls, field: Field, names, named_brackets) -> "LieAlgebra":
        """Build from {(lhs, rhs): [(name, coeff), ...]}; either order allowed.

        Listing both (x, y) and (y, x) is rejected, as is x == y.
        """
        names = tuple(names)
        index = {n: i for i, n in enumerate(names)}
        dim = len(names)
        seen = set()
        brackets = {}
        for (lhs, rhs), terms in named_brackets.items():
            if lhs not in index or rhs not in index:
                raise FormatError(f"unknown basis name in bracket ({lhs}, {rhs})")
            i, j = index[lhs], index[rhs]
            if i == j:
                raise FormatError(f"bracket ({lhs}, {rhs}) of a vector with itself")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise FormatError(f"pair ({lhs}, {rhs}) listed twice (either order)")
            seen.add(key)
            vec = list(zero_vector(field, dim))
            for name, coeff in terms:
                if name not in index:
                    raise FormatError(f"unknown basis name {name!r} in bracket output")
                vec[index[name]] = vec[index[name]] + field.scalar(coeff)
            if i > j:
                vec = [-x for x in vec]
            brackets[key] = tuple(vec)
        return cls(field, names, brackets)

    # -- bracket ---------------------------------------------------------------

    def name_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise FormatError(f"unknown basis name {name!r}") from None

    def sc_pairs(self) -> list:
        """((i, j), [e_i, e_j]) for the pairs i < j that bracket to nonzero."""
        return [(key, _box(self.field, v)) for key, v in self._sc.items()]

    def bracket_basis(self, i: int, j: int) -> tuple:
        return _box(self.field, self._table[i][j])

    def _raw_vector(self, x) -> tuple:
        """x coerced to raw entries; DimensionMismatch unless it has dim entries."""
        if len(x) != self.dim:
            raise DimensionMismatch(f"vector of length {len(x)} in a {self.dim}-dimensional algebra")
        return tuple(map(self.field._raw, x))

    def bracket(self, x, y) -> tuple:
        """Bilinear extension of the structure constants."""
        return _box(self.field, self._bracket(self._raw_vector(x), self._raw_vector(y)))

    def _bracket(self, x, y) -> tuple:
        """[x, y] of raw vectors, raw."""
        out = [0] * self.dim
        for (i, j), vec in self._sc.items():
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                for k, s in enumerate(vec):
                    if s:
                        out[k] += c * s
        return tuple(map(self.field._reduce, out))

    def ad(self, x) -> Matrix:
        """Matrix of y -> [x, y] (columns are images of the basis)."""
        x = self._raw_vector(x)
        cols = [self._bracket(x, e) for e in Matrix.identity(self.field, self.dim).raw]
        return Matrix._of_raw(self.field, tuple(zip(*cols)), self.dim)

    def ad_basis(self, i: int) -> Matrix:
        return Matrix._of_raw(self.field, tuple(zip(*self._table[i])), self.dim)

    def _jacobiator(self, i: int, j: int, l: int) -> tuple:
        """[[e_i, e_j], e_l] + [[e_j, e_l], e_i] + [[e_l, e_i], e_j], raw."""
        t = self._table
        out = [0] * self.dim
        # [[e_i, e_j], e_l] = sum over m of [e_i, e_j]_m [e_m, e_l], and cyclically
        for inner, outer in ((t[i][j], l), (t[j][l], i), (t[l][i], j)):
            for m, c in enumerate(inner):
                if c:
                    for k, s in enumerate(t[m][outer]):
                        if s:
                            out[k] += c * s
        return tuple(map(self.field._reduce, out))

    def check_jacobi(self) -> list:
        """All violating triples (i, j, l, defect); empty means valid.  The
        triples are swept once per algebra (_jacobi_violations keeps them);
        each call returns a new list."""
        return list(_jacobi_violations(self))

    # -- structure -------------------------------------------------------------

    def same_brackets(self, other: "LieAlgebra") -> bool:
        """Structure-constant equality, ignoring basis names."""
        return (
            self.field == other.field
            and self.dim == other.dim
            and self._sc == other._sc
        )

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.same_brackets(other)
            and self.basis_names == other.basis_names
        )

    def __hash__(self):
        return hash((self.field, self.basis_names, tuple(sorted(self._sc.items()))))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, field={self.field}, basis={','.join(self.basis_names)})"

    def change_basis(self, p: Matrix, names=None) -> "LieAlgebra":
        """Conjugate structure constants; columns of p are the new basis vectors."""
        pinv = p.inverse() if p.nrows == p.ncols == self.dim else None
        if pinv is None:
            raise DimensionMismatch("change of basis needs an invertible dim x dim matrix")
        names = tuple(names) if names else tuple(f"b{i + 1}" for i in range(self.dim))
        cols = tuple(zip(*p.raw))
        brackets = {}
        for i, j in basis_pairs(self.dim):
            brackets[(i, j)] = pinv.mul_vector(self._bracket(cols[i], cols[j]))
        return LieAlgebra(self.field, names, brackets)

    def permuted(self, order, names=None) -> "LieAlgebra":
        """Reorder the basis; order[k] is the old index of new basis vector k."""
        cols = [basis_vector(self.field, self.dim, o) for o in order]
        names = names or tuple(self.basis_names[o] for o in order)
        return self.change_basis(Matrix.from_cols(self.field, cols), names)

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        brackets = []
        for (i, j), vec in sorted(self._sc.items()):
            out = [[self.basis_names[k], str(c)] for k, c in enumerate(vec) if c]
            brackets.append({"lhs": self.basis_names[i], "rhs": self.basis_names[j], "out": out})
        return {
            "field": self.field.to_json(),
            "dim": self.dim,
            "basis": list(self.basis_names),
            "brackets": brackets,
        }

    @classmethod
    def from_json_dict(cls, data) -> "LieAlgebra":
        if not isinstance(data, dict):
            raise FormatError("algebra record must be an object")
        for key in ("field", "dim", "basis", "brackets"):
            if key not in data:
                raise FormatError(f"algebra record missing {key!r}")
        field = Field.from_json(data["field"])
        names = data["basis"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise FormatError("basis must be a list of names")
        if len(names) != data["dim"]:
            raise FormatError("dim does not match the basis list")
        if not isinstance(data["brackets"], list):
            raise FormatError("brackets must be a list of records")
        named = {}
        for rec in data["brackets"]:
            try:
                lhs, rhs, out = rec["lhs"], rec["rhs"], rec["out"]
            except (TypeError, KeyError) as exc:
                raise FormatError(f"bad bracket record {rec!r}") from exc
            if not isinstance(lhs, str) or not isinstance(rhs, str):
                raise FormatError(f"bad bracket record {rec!r}")
            if (lhs, rhs) in named:
                raise FormatError(f"pair ({lhs}, {rhs}) listed twice")
            named[(lhs, rhs)] = _json_terms(out, rec)
        return cls.from_named_brackets(field, names, named)


def _json_terms(out, rec) -> list:
    """The (name, coefficient) pairs of the "out" list of a file record;
    names are strings, coefficients integers or strings."""
    if not isinstance(out, list) or not all(
        isinstance(t, list) and len(t) == 2 and isinstance(t[0], str) and _is_json_scalar(t[1])
        for t in out
    ):
        raise FormatError(f"bad output terms in record {rec!r}")
    return [tuple(t) for t in out]


def read_json(path):
    """The JSON value in a file; text that is not UTF-8 or not JSON is a
    FormatError naming where it breaks."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text at byte {exc.start}") from exc


def write_json(path, data) -> None:
    """Write data as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_algebra(path) -> LieAlgebra:
    return LieAlgebra.from_json_dict(read_json(path))


def dump_algebra(algebra: LieAlgebra, path) -> None:
    write_json(path, algebra.to_json_dict())


class Subspace:
    """Subspace of the underlying space of a Lie algebra, held in rref form.

    rows is the rref basis as raw tuples and pivots their pivot columns; the
    rref basis makes equality of subspaces canonical.  Two subspaces are
    equal when their fields, ambient dimensions and rows are (two zero
    subspaces of different dimensions are not).  basis and coordinates box
    what they return.
    """

    __slots__ = ("algebra", "rows", "pivots")

    def __init__(self, algebra: LieAlgebra, vectors):
        self._span(algebra, [algebra._raw_vector(v) for v in vectors])

    def _span(self, algebra: LieAlgebra, rows):
        self.algebra = algebra
        self.rows, self.pivots = _span_rows(algebra.field, rows, algebra.dim)

    @classmethod
    def _of_rows(cls, algebra: LieAlgebra, rows) -> "Subspace":
        """The span of raw vectors of length algebra.dim."""
        space = cls.__new__(cls)
        space._span(algebra, rows)
        return space

    @classmethod
    def full(cls, algebra: LieAlgebra) -> "Subspace":
        """The whole space: the identity rows are already in rref."""
        space = cls.__new__(cls)
        space.algebra = algebra
        space.rows = Matrix.identity(algebra.field, algebra.dim).raw
        space.pivots = tuple(range(algebra.dim))
        return space

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple:
        return tuple(_box(self.algebra.field, row) for row in self.rows)

    def contains(self, v) -> bool:
        return self._coordinates(self.algebra._raw_vector(v)) is not None

    def coordinates(self, v) -> Optional[tuple]:
        """Coefficients of v over the rref basis, or None if v is outside."""
        coeffs = self._coordinates(self.algebra._raw_vector(v))
        return None if coeffs is None else _box(self.algebra.field, coeffs)

    def _coordinates(self, r) -> Optional[tuple]:
        """coordinates of a raw vector, raw."""
        red = self.algebra.field._reduce
        coeffs = []
        for pivot, row in zip(self.pivots, self.rows):
            c = r[pivot]
            coeffs.append(c)
            if c:
                r = [red(a - c * b) for a, b in zip(r, row)]
        if any(r):
            return None
        return tuple(coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.algebra.field == other.algebra.field
            and self.algebra.dim == other.algebra.dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.algebra.dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.algebra.dim})"

    def sum_with(self, other: "Subspace") -> "Subspace":
        return Subspace._of_rows(self.algebra, self.rows + other.rows)

    def bracket_with(self, other: "Subspace") -> "Subspace":
        """[self, other]; of a subspace with itself, over unordered pairs of
        rows, since _bracket is antisymmetric: [u, u] = 0, [v, u] = -[u, v]."""
        bracket, rows = self.algebra._bracket, self.rows
        if other is self:
            vectors = [bracket(u, v) for u, v in itertools.combinations(rows, 2)]
        else:
            vectors = [bracket(u, v) for u in rows for v in other.rows]
        return Subspace._of_rows(self.algebra, vectors)

    def is_subalgebra(self) -> bool:
        bracket = self.algebra._bracket
        return all(
            self._coordinates(bracket(u, v)) is not None
            for u, v in itertools.combinations(self.rows, 2)
        )


def _morphism_defects(a: LieAlgebra, b: LieAlgebra, m: Matrix):
    """The Lie-morphism law m[e_i, e_j] = [m e_i, m e_j] on every basis pair
    of a, through defects(), raw: m is a b.dim x a.dim matrix over the
    algebras' field, read column by column; nothing is checked."""
    cols = tuple(zip(*m.raw)) if m.raw else ((),) * m.ncols
    return defects(
        basis_pairs(a.dim),
        lambda i, j: m._apply(a._table[i][j]),
        lambda i, j: b._bracket(cols[i], cols[j]),
    )


@dataclass(frozen=True)
class LinearMap:
    """Linear map between Lie algebras; matrix columns are basis images."""

    domain: LieAlgebra
    codomain: LieAlgebra
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.nrows != self.codomain.dim or self.matrix.ncols != self.domain.dim:
            raise DimensionMismatch("matrix shape does not match the algebras")
        if self.matrix.field != self.domain.field or self.domain.field != self.codomain.field:
            raise FieldMismatch("map and algebras must share one field")

    @classmethod
    def _of(cls, domain: LieAlgebra, codomain: LieAlgebra, matrix: Matrix) -> "LinearMap":
        """A map whose matrix already has the algebras' field and shape.

        Nothing is checked: compose and inverse build their results here from
        operands that were checked when they were built, as Matrix._of_raw
        does for matrices.
        """
        m = object.__new__(cls)
        m.__dict__.update(domain=domain, codomain=codomain, matrix=matrix)
        return m

    def __call__(self, v) -> tuple:
        return self.matrix.mul_vector(v)

    def is_lie_morphism(self) -> bool:
        return not any(_morphism_defects(self.domain, self.codomain, self.matrix))

    def is_invertible(self) -> bool:
        return self.matrix.is_invertible()

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self∘other, once _check_composable passes."""
        self._check_composable(other)
        return LinearMap._of(other.domain, self.codomain, self.matrix * other.matrix)

    def _check_composable(self, other: "LinearMap") -> None:
        """other's codomain must be self's domain or an equal algebra, else
        FieldMismatch over two fields and DimensionMismatch otherwise;
        identity is tested first, so the group law's products pay no
        comparison."""
        if other.codomain is not self.domain and other.codomain != self.domain:
            if other.codomain.field != self.domain.field:
                raise FieldMismatch(f"{other.codomain.field} vs {self.domain.field}")
            raise DimensionMismatch("composition: other's codomain is not this map's domain")

    def inverse(self) -> "LinearMap":
        inv = self.matrix.inverse()
        if inv is None:
            raise DimensionMismatch("map is not invertible")
        return LinearMap._of(self.codomain, self.domain, inv)


@dataclass(frozen=True)
class BilinearForm:
    """Bilinear form on an algebra, given by its dim x dim Gram matrix."""

    algebra: LieAlgebra
    gram: Matrix

    def __post_init__(self):
        if self.gram.nrows != self.algebra.dim or self.gram.ncols != self.algebra.dim:
            raise DimensionMismatch("Gram matrix shape does not match the algebra")
        if self.gram.field != self.algebra.field:
            raise FieldMismatch("form and algebra must share one field")

    def evaluate(self, x, y) -> Scalar:
        """x^T G y, on the raw entries of x, y and the Gram G."""
        alg = self.algebra
        x, y = alg._raw_vector(x), alg._raw_vector(y)
        return alg.field._scalar_of(alg.field._reduce(sum(map(mul, x, self.gram._apply(y)))))

    def is_invariant(self) -> bool:
        """The law _invariance_rows on every basis triple, applied to the
        row-major raw Gram entries."""
        g, red = [x for row in self.gram.raw for x in row], self.algebra.field._reduce
        rows = _invariance_rows(self.algebra, range(self.algebra.dim))
        # the products of the zero coefficients are skipped: over Q each one costs a Fraction
        return not any(red(sum(map(mul, compress(row, row), compress(g, row)))) for row in rows)

    def is_nondegenerate(self) -> bool:
        return bool(self.gram.det())


# -- series and characteristic subspaces --------------------------------------


def right_bracket_matrix(algebra: LieAlgebra) -> Matrix:
    """The stacked maps x -> [x, e_j]: row (j, k) gives the e_k-coefficient
    of [x, e_j] as a linear function of x."""
    n, t = algebra.dim, algebra._table
    rows = tuple(tuple(t[i][j][k] for i in range(n)) for j in range(n) for k in range(n))
    return Matrix._of_raw(algebra.field, rows, n)


def _kept(compute):
    """compute(owner) of an algebra or a matched pair, run on first use and
    kept in owner._invariants."""
    name = compute.__name__

    @functools.wraps(compute)
    def get(owner):
        kept = owner._invariants
        if name not in kept:
            kept[name] = compute(owner)
        return kept[name]

    return get


@_kept
def _jacobi_violations(algebra: LieAlgebra) -> tuple:
    """The Jacobi identity on every basis triple, through defects(): each
    violating (i, j, l, defect), the defect boxed."""
    f = algebra.field
    triples = itertools.combinations(range(algebra.dim), 3)
    zero = (f.zero.value,) * algebra.dim
    return tuple(
        (i, j, l, _box(f, defect))
        for (i, j, l), defect, _ in defects(triples, algebra._jacobiator, lambda i, j, l: zero)
    )


@_kept
def center(algebra: LieAlgebra) -> Subspace:
    """Nullspace of the stacked right-bracket maps x -> [x, e_j]."""
    return Subspace._of_rows(algebra, right_bracket_matrix(algebra)._null_raw())


def _series(series: list, step) -> tuple:
    """Shared driver: from the leading terms L and [L, L], append
    step(last term) until the series stabilizes.

    Terminates with the first repeated subspace (kept once) or with 0.
    """
    while not (series[-1] == series[-2] or series[-1].dim == 0):
        series.append(step(series[-1]))
    return tuple(series)


@_kept
def derived_series(algebra: LieAlgebra) -> tuple:
    """L, [L, L], [[L, L], [L, L]], ...: [L, L] is the span of the stored
    brackets [e_i, e_j], i < j, with no bracket computed."""
    derived = Subspace._of_rows(algebra, list(algebra._sc.values()))
    return _series([Subspace.full(algebra), derived], lambda s: s.bracket_with(s))


@_kept
def lower_central_series(algebra: LieAlgebra) -> tuple:
    """L, [L, L], [L, [L, L]], ...: the first two terms are the derived
    series' own, so [L, L] is computed once per algebra."""
    full, derived = derived_series(algebra)[:2]
    return _series([full, derived], lambda s: full.bracket_with(s))


def derived_dims(algebra: LieAlgebra) -> tuple:
    return tuple(s.dim for s in derived_series(algebra))


def solvable_length(algebra: LieAlgebra) -> Optional[int]:
    """Number of derived steps to reach 0, counted up to the first zero term
    (0 for the zero algebra, 1 for a nonzero abelian one); None if the
    series stalls above 0."""
    dims = derived_dims(algebra)
    if dims[-1] != 0:
        return None
    return dims.index(0)


def is_perfect(algebra: LieAlgebra) -> bool:
    return derived_series(algebra)[1].dim == algebra.dim


def is_metabelian(algebra: LieAlgebra) -> bool:
    length = solvable_length(algebra)
    return length is not None and length <= 2


@_kept
def killing_gram(algebra: LieAlgebra) -> Matrix:
    """tr(ad e_i ad e_j) = sum over k, l of [e_i, e_l]_k [e_j, e_k]_l, read
    off the raw table: n^4 multiply-adds, each entry above the diagonal
    mirrored below it."""
    n, t, red = algebra.dim, algebra._table, algebra.field._reduce
    span = range(n)
    # flat[i][l*n + k] = [e_i, e_l]_k and swapped[j][l*n + k] = [e_j, e_k]_l
    flat = [[x for v in t[i] for x in v] for i in span]
    swapped = [[t[j][k][l] for l in span for k in span] for j in span]
    gram = [[0] * n for _ in span]
    for i in span:
        for j in range(i, n):
            gram[i][j] = gram[j][i] = red(sum(map(mul, flat[i], swapped[j])))
    return Matrix._of_raw(algebra.field, tuple(map(tuple, gram)), n)


@dataclass(frozen=True)
class AlmostAbelian:
    """An almost abelian algebra L = kz + D, D = [L, L] abelian of
    codimension 1, as almost_abelian keeps it, all raw.

    z is the first basis vector outside D, and A = ad(z) on D is taken in
    D's rref rows u_1..u_d (column j the coordinates of [z, u_j]).  factors
    are A's invariant factors (exactmath._frobenius_rows) and charpoly
    (c_1, ..., c_d), with det(tI - A) = t^d + c_1 t^(d-1) + ... + c_d, their
    product.  frame holds the rows of the matrix whose columns are z and
    then the Frobenius basis of D (the transform's columns, combined over
    u_1..u_d), and frame_inverse its inverse's.
    """

    factors: tuple
    charpoly: tuple
    frame: tuple
    frame_inverse: tuple


@_kept
def almost_abelian(algebra: LieAlgebra) -> Optional[AlmostAbelian]:
    """The kept AlmostAbelian of an almost abelian algebra, None for any other.

    L = kz + D with ad(z + w) = ad(z) on D for w in D, and A is invertible,
    since D = [L, L] = A(D).  An isomorphism maps D onto D' and z to
    c z' + w with c != 0, so L and L' are isomorphic iff A is similar to
    cA' for some c != 0: iff A's invariant factors are those of cA'.
    """
    series = derived_series(algebra)
    n = algebra.dim
    if len(series) != 3 or series[1].dim != n - 1 or series[2].dim:
        return None
    f, derived = algebra.field, series[1]
    z = next(e for e in Matrix.identity(f, n).raw if derived._coordinates(e) is None)
    cols = [derived._coordinates(algebra._bracket(z, u)) for u in derived.rows]
    ad_z = tuple(zip(*cols))
    factors, transform = _frobenius_rows(f, ad_z)
    product = functools.reduce(functools.partial(_poly_mul, f), factors, [1])
    images = _mul_rows(f, tuple(zip(*transform)), derived.rows, n)
    frame = tuple(zip(z, *images))
    return AlmostAbelian(factors, tuple(product[-2::-1]), frame, _inverse_rows(f, frame))


@_kept
def derived_line_frame(algebra: LieAlgebra) -> Optional[tuple]:
    """For dim [L, L] <= 1, the raw rows of a frame F, the matrix whose
    columns are a basis in which L has the brackets of its normal form, and
    of F^-1; None when [L, L] is larger.

    L is k^n when D = [L, L] = 0, and F = I.  When D = ky is not central,
    [x, y] = y for some x, and the center C is a complement of span(x, y)
    on which nothing else brackets: L = r2 + k^(n-2), in the frame
    (x, y, C's basis).  When D = ky is central, [u, v] = w(u, v) y for an
    alternating form w whose radical is C: L = h(2m+1) + k^r, in a Darboux
    frame (u_1, v_1, ..., u_m, v_m) with w(u_i, v_i) = 1, then y, then C's
    rref rows with the first one that y needs dropped.  Two algebras of one
    dimension with equal dim [L, L], center and lower central series have
    equal brackets in their frames.
    """
    derived = derived_series(algebra)[1]
    n, f, t = algebra.dim, algebra.field, algebra._table
    if derived.dim > 1:
        return None
    units = Matrix.identity(f, n).raw
    if not derived.dim:
        return units, units
    (y,), (q,) = derived.rows, derived.pivots  # y[q] = 1, so [u, v] = [u, v]_q y
    red = f._reduce
    centre = center(algebra)
    # [e_i, y] = lam_i y
    lam = [red(sum(a * v[q] for a, v in zip(y, t[i]) if a)) for i in range(n)]
    moved = next((i for i in range(n) if lam[i]), None)
    if moved is not None:
        s = _power(f, lam[moved], -1)
        vectors = [tuple(red(s * a) for a in units[moved]), y, *centre.rows]
    else:
        # symplectic Gram-Schmidt of the units for w(u, v) = [u, v]_q
        omega = [[row[q] for row in t[i]] for i in range(n)]

        def w(u, v):
            return red(sum(a * sum(map(mul, row, v)) for a, row in zip(u, omega) if a))

        rest, vectors = list(units), []
        while True:
            pair = next(((i, j) for i, j in basis_pairs(len(rest)) if w(rest[i], rest[j])), None)
            if pair is None:
                break
            u, v = rest[pair[0]], rest[pair[1]]
            s = _power(f, w(u, v), -1)
            v = tuple(red(s * a) for a in v)
            vectors += [u, v]
            projected = []
            for k, x in enumerate(rest):
                if k not in pair:
                    # x - w(x, v) u + w(x, u) v is w-orthogonal to u and v
                    xv, xu = w(x, v), w(x, u)
                    projected.append(tuple(red(c - xv * a + xu * b) for c, a, b in zip(x, u, v)))
            rest = projected
        # y = sum of y[p] over C's rows r with pivot p: y replaces the first it needs
        drop = next(k for k, p in enumerate(centre.pivots) if y[p])
        vectors += [y] + [r for k, r in enumerate(centre.rows) if k != drop]
    frame = tuple(zip(*vectors))
    return frame, _inverse_rows(f, frame)


# -- invariant bilinear forms and self-duality ---------------------------------


def _generating_indices(algebra: LieAlgebra) -> list:
    """Basis indices whose vectors generate the algebra, chosen greedily in
    index order: e_i joins when it lies outside the span generated so far,
    and that span is then closed under brackets.

    The span is an exactmath._Echelon, grown one raw vector at a time and
    closed by bracketing its kept rows; no elimination is run.
    """
    n = algebra.dim
    span = _Echelon(algebra.field)
    spanned = span.rows
    generators = []
    done = 0  # spanned[:done] have been bracketed with each other
    for i, unit in enumerate(Matrix.identity(algebra.field, n).raw):
        if len(spanned) == n:
            break
        if span.push(unit):
            generators.append(i)
        while done < len(spanned) < n:
            for w in spanned[:done]:
                span.push(algebra._bracket(spanned[done], w))
            done += 1
    return generators


def _invariance_rows(algebra: LieAlgebra, middle):
    """The invariance law B([e_i, e_j], e_k) = B(e_i, [e_j, e_k]) for j in
    middle, as raw rows in the Gram entries g_{m,k} (unknown m * n + k): row
    (i, j, k), in that order, is the left side minus the right; zero rows
    are left out."""
    n, t, red = algebra.dim, algebra._table, algebra.field._reduce
    for i in range(n):
        for j in middle:
            for k in range(n):
                row = [0] * (n * n)
                row[k::n] = t[i][j]  # + B([e_i, e_j], e_k): the unknowns g_{m,k}
                head = i * n  # - B(e_i, [e_j, e_k]): the unknowns g_{i,m}
                row[head : head + n] = map(red, map(sub, row[head : head + n], t[j][k]))
                if any(row):
                    yield tuple(row)


def invariant_bilinear_forms(algebra: LieAlgebra) -> list:
    """Basis of forms with B([a,b],c) = B(a,[b,c]) on all basis triples.

    The conditions with middle index j say that e_j kills B under
    (y.B)(x, z) = -B([y,x], z) - B(x, [y,z]).  On a Lie algebra this action
    is a representation, so the y that kill B form a subalgebra, and the
    conditions of a generating set of basis indices (_generating_indices)
    imply all the others: both systems have the same null space, hence the
    same RREF and the same forms.  The shortcut is taken only when the
    bracket passes the Jacobi identity; other brackets get every triple.
    """
    n = algebra.dim
    f = algebra.field
    middle = range(n) if algebra.check_jacobi() else _generating_indices(algebra)
    rows = tuple(_invariance_rows(algebra, middle))
    forms = []
    for flat in Matrix._of_raw(f, rows, n * n)._null_raw():
        gram = Matrix._of_raw(f, tuple(flat[r * n : (r + 1) * n] for r in range(n)), n)
        forms.append(BilinearForm(algebra, gram))
    return forms


@dataclass(frozen=True)
class SelfDualResult:
    verdict: str  # "yes" | "no" | "unknown"
    form: Optional[BilinearForm] = None
    witness: Optional[tuple] = None
    detail: str = ""


def self_dual(algebra: LieAlgebra, budget: int = 2000) -> SelfDualResult:
    """Search for a non-degenerate invariant bilinear form.

    With G_1, ..., G_d a basis of the invariant forms and n = dim, the search
    tries the Killing form, the identity when it is invariant, and then the
    forms sum c_i G_i for c on the grid {0..s}^d, where s = n over Q and
    s = min(n, p - 1) over GF(p), in shells of growing largest coefficient
    (shell 1 holds every G_i and their sum).  The grid decides: det(sum c_i
    G_i) has degree at most n in each c_i, so if it vanishes on n + 1 values
    of every coordinate it is the zero polynomial, and when p <= n the grid
    is the whole coefficient space.

    yes  -> the returned form is invariant with nonzero determinant;
    no   -> every linear combination of the invariant forms is degenerate:
            the witness vector kills every invariant form from the left, or
            the witness is None and the detail names the grid on which
            every combination was tried;
    unknown -> the budget (grid points tried) ran out inside the grid; the
            detail names the budget and the grid.
    """
    f = algebra.field
    n = algebra.dim
    if n == 0:
        # the 0 x 0 Gram is invariant and nondegenerate (its determinant is 1)
        return SelfDualResult("yes", form=BilinearForm(algebra, Matrix.identity(f, 0)))
    basis = invariant_bilinear_forms(algebra)
    if not basis:
        return SelfDualResult(
            "no",
            witness=basis_vector(f, n, 0),
            detail="only the zero form is invariant",
        )
    stacked = basis[0].gram.transpose()
    for form in basis[1:]:
        stacked = stacked.stack(form.gram.transpose())
    radical = stacked.nullspace()
    if radical:
        return SelfDualResult(
            "no",
            witness=radical[0],
            detail="common left radical of all invariant forms",
        )

    def attempt(gram: Matrix) -> Optional[SelfDualResult]:
        form = BilinearForm(algebra, gram)
        if form.is_nondegenerate() and form.is_invariant():
            return SelfDualResult("yes", form=form)
        return None

    kg = killing_gram(algebra)
    if not kg.is_zero():
        hit = attempt(kg)
        if hit:
            return hit
    hit = attempt(Matrix.identity(f, n))
    if hit:
        return hit
    d = len(basis)
    s = min(n, f.p - 1) if f.is_finite else n
    grid = f"{{0..{s}}}^{d}"
    tried = 0
    for top in range(1, s + 1):
        for coeffs in itertools.product(range(top + 1), repeat=d):
            if top not in coeffs:
                continue  # in an earlier shell
            tried += 1
            if tried > budget:
                return SelfDualResult(
                    "unknown", detail=f"budget {budget} exhausted inside the grid {grid}"
                )
            gram = Matrix.zeros(f, n, n)
            for c, form in zip(coeffs, basis):
                if c:
                    gram = gram + f.scalar(c) * form.gram
            hit = attempt(gram)
            if hit:
                return hit
    return SelfDualResult("no", detail=f"every combination on the grid {grid} is degenerate")


# -- product structures ---------------------------------------------------------


def is_product_structure(algebra: LieAlgebra, f: LinearMap) -> bool:
    """Involution f != +-id whose +-1 eigenspaces factorize the algebra.

    Integrability: f([x,y]) = [f(x),y] + [x,f(y)] - f([f(x),f(y)]) on all
    basis pairs, on the raw table and the raw columns of f.  (Some write the
    defining condition as "f^2 = f" while still working with +-1
    eigenspaces; the eigenspace decomposition needs an involution, so
    f^2 = id is what this checks.)
    """
    m = f.matrix
    n = algebra.dim
    if m.nrows != n or m.ncols != n:
        raise DimensionMismatch("product structure must be an endomorphism")
    ident = Matrix.identity(algebra.field, n)
    if m * m != ident:
        return False
    if m == ident or m == -ident:
        return False
    e, cols = ident.raw, tuple(zip(*m.raw))
    bracket, red = algebra._bracket, algebra.field._reduce

    def rhs(i, j):
        fi, fj = cols[i], cols[j]
        return tuple([
            red(u + v - w)
            for u, v, w in zip(bracket(fi, e[j]), bracket(e[i], fj), m._apply(bracket(fi, fj)))
        ])

    return not any(defects(basis_pairs(n), lambda i, j: m._apply(algebra._table[i][j]), rhs))


def split_product_structure(algebra: LieAlgebra, f: LinearMap) -> tuple:
    """The (+1, -1) eigenspace pair of a product structure."""
    if algebra.field.characteristic() == 2:
        raise CharTwo("eigenspace split undefined in characteristic 2")
    if not is_product_structure(algebra, f):
        raise DimensionMismatch("not a product structure")
    ident = Matrix.identity(algebra.field, algebra.dim)
    plus = Subspace(algebra, (f.matrix - ident).nullspace())
    minus = Subspace(algebra, (f.matrix + ident).nullspace())
    if not plus.is_subalgebra() or not minus.is_subalgebra():
        raise DimensionMismatch("eigenspaces fail to close under the bracket")
    return plus, minus


# -- direct products --------------------------------------------------------------


def direct_product(a: LieAlgebra, b: LieAlgebra, names=None) -> LieAlgebra:
    """Block-diagonal structure constants; all cross brackets vanish."""
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")
    return LieAlgebra(a.field, *_block_diagonal(a, b, names))


def _block_diagonal(a: LieAlgebra, b: LieAlgebra, names=None) -> tuple:
    """Basis names and raw structure constants of a x b, the basis of a then
    that of b, with no cross brackets."""
    if names is None:
        # a name of b taken by a gets primes until it is fresh
        taken = set(a.basis_names) | set(b.basis_names)
        right = []
        for name in b.basis_names:
            if name in a.basis_names:
                while name in taken:
                    name += "'"
                taken.add(name)
            right.append(name)
        names = a.basis_names + tuple(right)
    zero = a.field.zero.value
    brackets = {key: v + (zero,) * b.dim for key, v in a._sc.items()}
    for (i, j), v in b._sc.items():
        brackets[(a.dim + i, a.dim + j)] = (zero,) * a.dim + v
    return names, brackets


def subalgebra_structure(algebra: LieAlgebra, space: Subspace, names=None) -> LieAlgebra:
    """Structure constants of a bracket-closed subspace over its rref basis."""
    m = space.dim
    if names is None:
        names = []
        for vec in space.basis:
            hits = [k for k, x in enumerate(vec) if x]
            if len(hits) == 1 and vec[hits[0]] == algebra.field.one:
                names.append(algebra.basis_names[hits[0]])
            else:
                names.append(f"s{len(names) + 1}")
        names = tuple(names)
    brackets = {}
    for i, j in basis_pairs(m):
        coords = space._coordinates(algebra._bracket(space.rows[i], space.rows[j]))
        if coords is None:
            raise FormatError("subspace is not closed under the bracket")
        brackets[(i, j)] = coords
    return LieAlgebra(algebra.field, names, brackets)

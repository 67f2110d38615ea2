"""Deformation maps of a matched pair, r-deformations, and complement
classification with the factorization index.

A deformation map r: h -> g must satisfy the quadratic compatibility

    r([x,y]) - [r(x),r(y)] = r(y <| r(x) - x <| r(y)) + x |> r(y) - y |> r(x),

and then the deformed bracket [x,y] + x <| r(y) - y <| r(x) is again Lie.
Complements of g in the bicrossed product are exactly the r-deformations up
to isomorphism, so classifying the deformed algebras computes the
factorization index.  Enumeration is exhaustive over finite fields: the
compatibility is quadratic in r, and desk-scale p^(dim g * dim h) candidate
sweeps are cheap and certain; closed forms act as cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .errors import (
    BadParameter,
    BudgetExceeded,
    CharTwo,
    DimensionMismatch,
    InvalidDeformationMap,
    NotFinite,
)
from .exactmath import (
    Field,
    Matrix,
    basis_vector,
    enumerate_vectors,
    is_zero_vector,
    vadd,
    vsub,
)
from .liecore import LieAlgebra, basis_pairs, defects, derived_series
from .matched import MatchedPair, canonical_pair_L, canonical_pair_m, _finish, _lnames
from .iso import are_isomorphic, fingerprint


@dataclass(frozen=True)
class DeformationMap:
    """A verified deformation map; matrix columns are r(e_i) in g-coordinates."""

    mp: MatchedPair
    matrix: Matrix


def is_deformation_map(mp: MatchedPair, r: Matrix) -> bool:
    """Check the deformation compatibility on all basis pairs of h."""
    if isinstance(r, DeformationMap):
        r = r.matrix
    g, h = mp.g, mp.h
    if r.nrows != g.dim or r.ncols != h.dim:
        raise DimensionMismatch("r must map h into g")
    hb = [basis_vector(mp.field, h.dim, i) for i in range(h.dim)]
    rc = r.cols()

    def lhs(i, j):
        return vsub(r.mul_vector(h.bracket_basis(i, j)), g.bracket(rc[i], rc[j]))

    def rhs(i, j):
        inner = vsub(mp.act_right(hb[j], rc[i]), mp.act_right(hb[i], rc[j]))
        return vadd(r.mul_vector(inner), vsub(mp.act_left(hb[i], rc[j]), mp.act_left(hb[j], rc[i])))

    return not any(defects(basis_pairs(h.dim), lhs, rhs))


def enumerate_deformation_maps(
    mp: MatchedPair, budget: int = 10**7, order: str = "lex"
) -> list:
    """Exhaustive, deterministic sweep of all linear maps h -> g.

    The sweep itself never prunes; each candidate is kept iff it passes the
    per-map compatibility check.
    """
    if not mp.field.is_finite:
        raise NotFinite("exhaustive enumeration needs a finite field")
    g, h = mp.g, mp.h
    cells = g.dim * h.dim
    count = mp.field.p ** cells
    if count > budget:
        raise BudgetExceeded(
            f"{count} candidate maps exceed budget {budget}", required=count
        )
    flats = enumerate_vectors(mp.field, cells)
    if order == "revlex":
        flats = reversed(list(flats))
    elif order != "lex":
        raise BadParameter(f"unknown enumeration order {order!r}")
    found = []
    for flat in flats:
        m = Matrix(mp.field, [flat[r * h.dim : (r + 1) * h.dim] for r in range(g.dim)])
        if is_deformation_map(mp, m):
            found.append(DeformationMap(mp, m))
    return found


def r_deformation(mp: MatchedPair, d: DeformationMap) -> LieAlgebra:
    """The algebra on h's space with bracket [x,y] + x <| r(y) - y <| r(x)."""
    r = d.matrix if isinstance(d, DeformationMap) else d
    if not is_deformation_map(mp, r):
        raise InvalidDeformationMap("the map fails the deformation compatibility")
    h = mp.h
    f = mp.field
    hb = [basis_vector(f, h.dim, i) for i in range(h.dim)]
    brackets = {}
    for i, j in basis_pairs(h.dim):
        vec = vadd(
            h.bracket_basis(i, j),
            vsub(mp.act_right(hb[i], r.col(j)), mp.act_right(hb[j], r.col(i))),
        )
        brackets[(i, j)] = vec
    out = LieAlgebra(f, h.basis_names, brackets)
    bad = out.check_jacobi()
    if bad:
        raise InvalidDeformationMap(f"deformed bracket violates Jacobi at {bad[0][:3]}")
    return out


# -- closed-form families of deformation maps ----------------------------------


@dataclass(frozen=True)
class DeformationFamily:
    """A parameterized family of deformation maps for one matched pair."""

    label: str
    mp: MatchedPair
    builder: Callable
    param_iter: Callable
    param_ok: Callable = lambda *params: True

    def instance(self, *params) -> DeformationMap:
        if not self.param_ok(*params):
            raise BadParameter(f"parameters fall outside family {self.label}")
        m = self.builder(*params)
        if not is_deformation_map(self.mp, m):
            raise BadParameter(f"parameters fall outside family {self.label}")
        return DeformationMap(self.mp, m)

    def enumerate(self) -> Iterator[DeformationMap]:
        for params in self.param_iter():
            yield DeformationMap(self.mp, self.builder(*params))


def _row_matrix(field: Field, row) -> Matrix:
    return Matrix(field, [row])


def closed_form_defmaps_L(n: int, field: Field) -> list:
    """The two families for the canonical pair of kH inside L(2n+2):
    a-family (a != 0): r(E_i) = a_i H, r(G) = H;
    (b,c)-family: r(F_i) = b_i H, r(G) = c H."""
    if field.characteristic() == 2:
        raise CharTwo("the closed form assumes characteristic != 2")
    mp = canonical_pair_L(n, field)
    z = field.zero

    def build_a(a):
        return _row_matrix(field, list(a) + [z] * n + [field.one])

    def build_bc(b, c):
        return _row_matrix(field, [z] * n + list(b) + [c])

    def iter_a():
        for a in enumerate_vectors(field, n):
            if not is_zero_vector(a):
                yield (a,)

    def iter_bc():
        for b in enumerate_vectors(field, n):
            for c in field.elements():
                yield (b, c)

    nonzero = lambda a: not is_zero_vector(a)
    return [
        DeformationFamily("a", mp, build_a, iter_a, nonzero),
        DeformationFamily("bc", mp, build_bc, iter_bc),
    ]


def closed_form_defmaps_m(n: int, field: Field) -> list:
    """The three families for the canonical pair of kH inside m(2n+2):
    a-family (a != 0): r(E_i) = a_i H, r(G) = (a_1 - 1) H;
    b-family (b != 0): r(F_i) = b_i H, r(G) = (b_n + 1) H;
    c-family: r(G) = c H."""
    if field.characteristic() == 2:
        raise CharTwo("the closed form assumes characteristic != 2")
    mp = canonical_pair_m(n, field)
    z = field.zero
    one = field.one

    def build_a(a):
        return _row_matrix(field, list(a) + [z] * n + [a[0] - one])

    def build_b(b):
        return _row_matrix(field, [z] * n + list(b) + [b[n - 1] + one])

    def build_c(c):
        return _row_matrix(field, [z] * (2 * n) + [c])

    def iter_a():
        for a in enumerate_vectors(field, n):
            if not is_zero_vector(a):
                yield (a,)

    def iter_b():
        for b in enumerate_vectors(field, n):
            if not is_zero_vector(b):
                yield (b,)

    def iter_c():
        for c in field.elements():
            yield (c,)

    nonzero = lambda v: not is_zero_vector(v)
    return [
        DeformationFamily("a", mp, build_a, iter_a, nonzero),
        DeformationFamily("b", mp, build_b, iter_b, nonzero),
        DeformationFamily("c", mp, build_c, iter_c),
    ]


# -- complement classification ---------------------------------------------------


@dataclass(frozen=True)
class ComplementReport:
    """Classification of complements: one representative per isomorphism class."""

    representatives: list
    class_sizes: list
    deformation_count: Optional[int]
    index: Optional[int]
    infinite: bool = False

    def index_str(self) -> str:
        return "infinite" if self.infinite else str(self.index)


def classify_complements(
    mp: MatchedPair,
    budget: int = 10**7,
    order: str = "lex",
    iso_budget: int = 500000,
) -> ComplementReport:
    """Group all r-deformations into isomorphism classes.

    Over a finite field the grouping is certified by the complete search of
    the iso module (fingerprints only pre-filter).  Over an infinite field
    only the registered closed-form family is supported.
    """
    if not mp.field.is_finite:
        report = _classify_registered_infinite(mp)
        if report is None:
            raise NotFinite(
                "no registered closed-form family covers this matched pair over an infinite field"
            )
        return report
    maps = enumerate_deformation_maps(mp, budget, order=order)
    classes = []
    for pos, d in enumerate(maps):
        alg = r_deformation(mp, d)
        fp = fingerprint(alg)
        placed = False
        for c, cls in enumerate(classes):
            if cls["fp"] != fp:
                continue
            res = are_isomorphic(alg, cls["rep"], iso_budget)
            if res.verdict == "unknown":
                raise BudgetExceeded(
                    f"isomorphism search inconclusive: {res.certificate}; deformation map "
                    f"at sweep index {pos} of {len(maps)}, class representative index {c}, "
                    f"shared fingerprint {fp.as_tuple()}"
                )
            if res.is_yes:
                cls["size"] += 1
                placed = True
                break
        if not placed:
            classes.append({"rep": alg, "fp": fp, "size": 1})
    return ComplementReport(
        representatives=[c["rep"] for c in classes],
        class_sizes=[c["size"] for c in classes],
        deformation_count=len(maps),
        index=len(classes),
        infinite=False,
    )


def ad_ratio_invariant(algebra: LieAlgebra) -> Optional[tuple]:
    """Projective pair (trace^2, det) of ad(z) on the derived subalgebra.

    Defined for 3-dim algebras whose derived subalgebra is a 2-dim abelian
    ideal; z is any basis vector outside it.  Changing z scales both entries
    by the same square factor and any isomorphism conjugates the restricted
    map, so the pair up to a common factor separates isomorphism classes.
    """
    if algebra.dim != 3:
        return None
    d = derived_series(algebra)[1]
    if d.dim != 2 or d.bracket_with(d).dim != 0:
        return None
    f = algebra.field
    z = None
    for i in range(3):
        e = basis_vector(f, 3, i)
        if not d.contains(e):
            z = e
            break
    if z is None:
        return None
    cols = []
    for u in d.basis:
        w = algebra.bracket(z, u)
        coords = d.coordinates(w)
        if coords is None:
            return None
        cols.append(coords)
    tr = cols[0][0] + cols[1][1]
    det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
    return (tr * tr, det)


def _projectively_distinct(p1, p2) -> bool:
    a1, b1 = p1
    a2, b2 = p2
    if not (a1 or b1) or not (a2 or b2):
        return False
    return a1 * b2 != a2 * b1


def _classify_registered_infinite(mp: MatchedPair) -> Optional[ComplementReport]:
    field = mp.field
    if mp != canonical_pair_m(1, field):
        return None
    families = closed_form_defmaps_m(1, field)
    by_label = {fam.label: fam for fam in families}
    # sample the c-family on its generic stratum (derived algebra of dim 2);
    # the ratio invariant takes infinitely many values there
    samples = []
    invariants = []
    for c in (0, 2, 3, 4, 5):
        d = by_label["c"].instance(field.scalar(c))
        alg = r_deformation(mp, d)
        inv = ad_ratio_invariant(alg)
        if inv is None:
            return None
        samples.append(alg)
        invariants.append(inv)
    for i, j in basis_pairs(len(invariants)):
        if not _projectively_distinct(invariants[i], invariants[j]):
            return None
    return ComplementReport(
        representatives=samples,
        class_sizes=[],
        deformation_count=None,
        index=None,
        infinite=True,
    )


# -- deformed families with closed-form brackets ----------------------------------


def _vector_param(field: Field, a, allow_zero: bool) -> tuple:
    vec = tuple(field.scalar(x) for x in a)
    if not vec:
        raise BadParameter("parameter vector must be nonempty")
    if not allow_zero and is_zero_vector(vec):
        raise BadParameter("parameter vector must be nonzero")
    return vec


def make_l_a(field: Field, a) -> LieAlgebra:
    """a-family deformation of l(2n+1,k) for the L-extension pair (a != 0)."""
    a = _vector_param(field, a, allow_zero=False)
    n = len(a)
    names = _lnames(n)
    br = {}
    for i in range(n):
        for j in range(i + 1, n):
            br[(names[i], names[j])] = [(names[j], a[i]), (names[i], -a[j])]
        for j in range(n):
            if a[i]:
                br.setdefault((names[i], names[n + j]), []).append((names[n + j], -a[i]))
        if a[i]:
            br[(names[i], "G")] = [("G", -a[i])]
    return _finish(field, names, br)


def make_lp_b(field: Field, b) -> LieAlgebra:
    """b-family deformation (primed) of l(2n+1,k) for the L-extension pair."""
    b = _vector_param(field, b, allow_zero=True)
    n = len(b)
    names = _lnames(n)
    br = {}
    for i in range(n):
        for j in range(n):
            if b[j]:
                br.setdefault((names[i], names[n + j]), []).append((names[i], -b[j]))
        br[(names[i], "G")] = [(names[i], -1)]
        for j in range(i + 1, n):
            br[(names[n + i], names[n + j])] = [(names[n + i], b[j]), (names[n + j], -b[i])]
        br[(names[n + i], "G")] = [(names[n + i], 1), ("G", -b[i])]
    return _finish(field, names, br)


def make_lpp_b(field: Field, b) -> LieAlgebra:
    """b-family deformation (double primed) of l(2n+1,k); b = 0 gives the
    abelian algebra."""
    b = _vector_param(field, b, allow_zero=True)
    n = len(b)
    names = _lnames(n)
    br = {}
    for i in range(n):
        for j in range(n):
            if b[j]:
                br.setdefault((names[i], names[n + j]), []).append((names[i], -b[j]))
        for j in range(i + 1, n):
            br[(names[n + i], names[n + j])] = [(names[n + i], b[j]), (names[n + j], -b[i])]
        if b[i]:
            br[(names[n + i], "G")] = [("G", -b[i])]
    return _finish(field, names, br)


def make_lbar_a(field: Field, a) -> LieAlgebra:
    """a-family deformation of l(2n+1,k) for the m-extension pair (a != 0)."""
    a = _vector_param(field, a, allow_zero=False)
    n = len(a)
    names = _lnames(n)
    two = field.scalar(2)
    br = {}
    for i in range(n):
        for j in range(i + 1, n):
            br[(names[i], names[j])] = [(names[i], a[j]), (names[j], -a[i])]
        for j in range(n):
            if a[i]:
                br.setdefault((names[i], names[n + j]), []).append((names[n + j], -a[i]))
        terms = [(names[i], a[0]), (names[0], -a[i]), (names[2 * n - 1], -a[i])]
        br[(names[i], "G")] = terms
        br[("G", names[n + i])] = [(names[n + i], two - a[0])]
    return _finish(field, names, br)


def make_lbarp_b(field: Field, b) -> LieAlgebra:
    """b-family deformation of l(2n+1,k) for the m-extension pair (b != 0)."""
    b = _vector_param(field, b, allow_zero=False)
    n = len(b)
    names = _lnames(n)
    two = field.scalar(2)
    br = {}
    for i in range(n):
        for j in range(i + 1, n):
            br[(names[n + i], names[n + j])] = [(names[n + i], b[j]), (names[n + j], -b[i])]
        for j in range(n):
            if b[j]:
                br.setdefault((names[i], names[n + j]), []).append((names[i], b[j]))
        br[(names[i], "G")] = [(names[i], two + b[n - 1])]
        br[("G", names[n + i])] = [
            (names[0], b[i]),
            (names[2 * n - 1], b[i]),
            (names[n + i], -b[n - 1]),
        ]
    return _finish(field, names, br)


def make_lbarpp_c(field: Field, c, n: int = 1) -> LieAlgebra:
    """c-family deformation of l(2n+1,k) for the m-extension pair."""
    c = field.scalar(c)
    one = field.one
    names = _lnames(n)
    br = {}
    for i in range(n):
        br[(names[i], "G")] = [(names[i], one + c)]
        br[("G", names[n + i])] = [(names[n + i], one - c)]
    return _finish(field, names, br)


def make_h_a(field: Field, a) -> LieAlgebra:
    """The a-deformation of the perfect 5-dim algebra (a invertible)."""
    a = field.scalar(a)
    if not a:
        raise BadParameter("a must be invertible")
    ainv = a.inverse()
    names = ("e1", "e2", "e3", "e4", "e5")
    br = {
        ("e1", "e2"): [("e1", -ainv), ("e2", a), ("e3", 1), ("e4", ainv)],
        ("e1", "e3"): [("e4", -2), ("e5", -a)],
        ("e1", "e4"): [("e4", a)],
        ("e1", "e5"): [("e4", 1), ("e5", a + a)],
        ("e2", "e3"): [("e5", ainv)],
        ("e2", "e4"): [("e5", 1), ("e4", -ainv)],
        ("e2", "e5"): [("e5", -(ainv + ainv))],
        ("e3", "e4"): [("e4", 3)],
        ("e3", "e5"): [("e5", 3)],
    }
    return _finish(field, names, br)

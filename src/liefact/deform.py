"""Deformation maps of a matched pair, r-deformations, and complement
classification with the factorization index.

A deformation map r: h -> g must satisfy the quadratic compatibility

    r([x,y]) - [r(x),r(y)] = r(y <| r(x) - x <| r(y)) + x |> r(y) - y |> r(x),

and then the deformed bracket [x,y] + x <| r(y) - y <| r(x) is again Lie.
Complements of g in the bicrossed product are exactly the r-deformations up
to isomorphism, so classifying the deformed algebras computes the
factorization index.  Enumeration is complete over finite fields: the
compatibility is quadratic in r, and a depth-first search over its equations
fixes the entries of r one at a time, so its cost follows the solution set
rather than the p^(dim g * dim h) candidate maps; closed forms act as
cross-checks.  Each named deformed family is built from its datum:
r_deformation of a canonical pair by a closed-form map, whose row is written
once and shared with the closed-form families.

The compatibility of a pair is built once, on first use, into fixed linear
and quadratic terms on the entries of r with raw coefficients (residues over
GF(p), canonical rationals over Q), and cached on the pair, and so is the
search plan over it.  Each check evaluates those terms on the raw entries of
r, stopping at the first equation that fails.  The search works on residues,
confirms every complete assignment with that check, and returns the maps in
the lexicographic order of enumerate_vectors, which is their only order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional

from .errors import (
    BadParameter,
    BudgetExceeded,
    CharTwo,
    DimensionMismatch,
    FieldMismatch,
    InvalidDeformationMap,
    NotFinite,
)
from .exactmath import (
    Field,
    Matrix,
    enumerate_vectors,
)
from .liecore import LieAlgebra, _kept, basis_pairs
from .matched import MatchedPair, canonical_pair_L, canonical_pair_m, _finish
from .iso import are_isomorphic, fingerprint


@dataclass(frozen=True)
class DeformationMap:
    """A map r: h -> g of a matched pair; matrix columns are r(h_i) in
    g-coordinates.  Building one checks nothing: is_deformation_map checks
    the compatibility, and r_deformation checks it again before it deforms."""

    mp: MatchedPair
    matrix: Matrix


@_kept
def _compatibility(mp: MatchedPair) -> tuple:
    """The compatibility of mp as equations on the entries of r, built once.

    r is read row-major: cell a * h.dim + i holds r[a][i], the e_a coordinate
    of r(h_i).  One equation per basis pair i < j of h and coordinate k of g
    states that coordinate k of lhs(h_i, h_j) - rhs(h_i, h_j) vanishes; it is
    a pair (linear, quadratic) of term tuples (cell, coeff) and
    (cell, cell, coeff) with nonzero raw coefficients (residues over GF(p),
    canonical rationals over Q).  Equations without terms hold for every r
    and are left out.
    """
    m, n = mp.g.dim, mp.h.dim
    gt, ht, red = mp.g._table, mp.h._table, mp.field._reduce
    zero_g, zero_h = (0,) * m, (0,) * n
    right = [[mp.right.get((i, a), zero_h) for a in range(m)] for i in range(n)]  # h_i <| g_a
    left = [[mp.left.get((i, a), zero_g) for a in range(m)] for i in range(n)]  # h_i |> g_a

    def add(table, key, c):
        if c:
            table[key] = table.get(key, 0) + c

    def add_product(table, c1, c2, c):
        add(table, (c1, c2) if c1 <= c2 else (c2, c1), c)

    equations = []
    for i, j in basis_pairs(n):
        hij = ht[i][j]
        for k in range(m):
            lin, quad = {}, {}
            # r([h_i, h_j]) - [r(h_i), r(h_j)]
            for l in range(n):
                add(lin, k * n + l, hij[l])
            for a in range(m):
                for b in range(m):
                    add_product(quad, a * n + i, b * n + j, -gt[a][b][k])
            # - r(h_j <| r(h_i) - h_i <| r(h_j))
            for a in range(m):
                for l in range(n):
                    add_product(quad, k * n + l, a * n + i, -right[j][a][l])
                    add_product(quad, k * n + l, a * n + j, right[i][a][l])
            # - (h_i |> r(h_j) - h_j |> r(h_i))
            for a in range(m):
                add(lin, a * n + j, -left[i][a][k])
                add(lin, a * n + i, left[j][a][k])
            lin = tuple((c, x) for c, x in zip(lin, map(red, lin.values())) if x)
            quad = tuple((c1, c2, x) for (c1, c2), x in zip(quad, map(red, quad.values())) if x)
            if lin or quad:
                equations.append((lin, quad))
    return tuple(equations)


def is_deformation_map(mp: MatchedPair, r: Matrix) -> bool:
    """Check the deformation compatibility on all basis pairs of h."""
    if isinstance(r, DeformationMap):
        r = r.matrix
    if r.nrows != mp.g.dim or r.ncols != mp.h.dim:
        raise DimensionMismatch("r must map h into g")
    if r.field is not mp.field:
        raise FieldMismatch(f"map over {r.field}, pair over {mp.field}")
    v = [x for row in r.raw for x in row]
    p = mp.field.p
    for lin, quad in _compatibility(mp):
        total = 0
        for a, c in lin:
            total += c * v[a]
        for a, b, c in quad:
            total += c * v[a] * v[b]
        if total % p if p else total:
            return False
    return True


def _split(equation: tuple, x: int) -> tuple:
    """An equation as a polynomial c2 x^2 + a x + b in the cell x:
    (c2, a0, a_terms, b_lin, b_quad) with a = a0 + sum c v[y] over a_terms
    and b = sum c v[y] over b_lin + sum c v[y] v[z] over b_quad."""
    lin, quad = equation
    return (
        sum(c for a, b, c in quad if a == b == x),
        sum(c for a, c in lin if a == x),
        tuple((b if a == x else a, c) for a, b, c in quad if (a == x) != (b == x)),
        tuple((a, c) for a, c in lin if a != x),
        tuple((a, b, c) for a, b, c in quad if x not in (a, b)),
    )


@_kept
def _search_plan(mp: MatchedPair) -> tuple:
    """The depth-first search plan of mp's compatibility, built once.

    The cells of r are ordered greedily so that equations close early: the
    next cell is the one that closes the most equations (all their cells then
    fixed), ties going to the cell that occurs in the most equations still
    open, then to the lower cell.  Level k is (cell, equations): the
    equations whose last cell in this order is the cell of level k, _split
    in that cell, those linear in it first.
    """
    equations = _compatibility(mp)
    cells_of = [
        {a for a, _ in lin} | {a for a, _, _ in quad} | {b for _, b, _ in quad}
        for lin, quad in equations
    ]
    cells = range(mp.g.dim * mp.h.dim)
    fixed, open_eqs = set(), set(range(len(equations)))

    def score(x):
        closed = sum(1 for e in open_eqs if cells_of[e] <= fixed | {x})
        return (closed, sum(1 for e in open_eqs if x in cells_of[e]), -x)

    plan = []
    for _ in cells:
        x = max((x for x in cells if x not in fixed), key=score)
        fixed.add(x)
        closing = sorted(e for e in open_eqs if cells_of[e] <= fixed)
        open_eqs.difference_update(closing)
        split = sorted((_split(equations[e], x) for e in closing), key=lambda eq: eq[0] != 0)
        plan.append((x, tuple(split)))
    return tuple(plan)


def _solve(mp: MatchedPair, budget: int) -> list:
    """Row-major raw entries of every r that passes the pruning of the search
    plan, in search order.

    One cell is fixed per level.  If an equation closing at the level is
    linear in the cell with a nonzero coefficient under the current prefix,
    the cell takes the one value it forces; one with a zero coefficient and
    a nonzero constant prunes the branch.  Each value tried is one node; it
    is kept only if every equation closing at the level holds.
    """
    field, plan = mp.field, _search_plan(mp)
    p, depth = field.p, len(plan)
    v = [0] * depth
    found = []
    nodes = deepest = 0

    def descend(level):
        nonlocal nodes, deepest
        if level == depth:
            found.append(tuple(v))
            return
        cell, equations = plan[level]
        polys = []
        for c2, a, a_terms, b_lin, b_quad in equations:
            for y, c in a_terms:
                a += c * v[y]
            b = 0
            for y, c in b_lin:
                b += c * v[y]
            for y, z, c in b_quad:
                b += c * v[y] * v[z]
            polys.append((c2, a % p, b % p))
        values = range(p)
        for c2, a, b in polys:  # those linear in the cell come first
            if c2:
                break
            if a:
                values = (-b * pow(a, -1, p) % p,)
                break
            if b:
                return
        deepest = max(deepest, level + 1)
        for x in values:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(
                    f"deformation search of dim g = {mp.g.dim}, dim h = {mp.h.dim} over "
                    f"{field}: budget {budget} exceeded after {nodes} nodes, deepest level "
                    f"{deepest} of {depth}",
                    required=nodes,
                )
            for c2, a, b in polys:
                if ((c2 * x + a) * x + b) % p:
                    break
            else:
                v[cell] = x
                descend(level + 1)
        v[cell] = 0

    descend(0)
    return found


def enumerate_deformation_maps(mp: MatchedPair, budget: int = 10**7) -> list:
    """All deformation maps h -> g over a finite field, deterministically.

    A depth-first search over the search plan fixes the entries of r one at
    a time and prunes every branch on which an equation of the compatibility
    fails; budget bounds its nodes, the values it tries.  Every complete
    assignment is then kept iff is_deformation_map accepts it, so the search
    only prunes.  The maps come in lexicographic order of their row-major
    entries (first entry slowest), the order of enumerate_vectors.
    """
    field = mp.field
    if not field.is_finite:
        raise NotFinite("deformation map enumeration needs a finite field")
    n = mp.h.dim
    starts = [a * n for a in range(mp.g.dim)]
    found = []
    for flat in sorted(_solve(mp, budget)):
        r = Matrix._of_raw(field, tuple(flat[s : s + n] for s in starts), n)
        if is_deformation_map(mp, r):
            found.append(DeformationMap(mp, r))
    return found


def r_deformation(mp: MatchedPair, d: DeformationMap) -> LieAlgebra:
    """The algebra on h's space with bracket [x,y] + x <| r(y) - y <| r(x)."""
    r = d.matrix if isinstance(d, DeformationMap) else d
    if not is_deformation_map(mp, r):
        raise InvalidDeformationMap("the map fails the deformation compatibility")
    h = mp.h
    brackets = {}
    for i, j in basis_pairs(h.dim):
        # [h_i, h_j] + h_i <| r(h_j) - h_j <| r(h_i), summed over the stored actions
        vec = list(h._table[i][j])
        for (x, a), w in mp.right.items():
            c = r.raw[a][j] if x == i else -r.raw[a][i] if x == j else 0
            if c:
                for k, y in enumerate(w):
                    vec[k] += c * y
        brackets[(i, j)] = vec
    out = LieAlgebra._of_raw(mp.field, h.basis_names, brackets)
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


def _nonzero_vectors(field: Field, n: int) -> Iterator[tuple]:
    """Parameter tuples (a,) for the nonzero vectors a of length n, in order."""
    return ((a,) for a in enumerate_vectors(field, n) if any(a))


def _split_vectors(field: Field, n: int) -> Iterator[tuple]:
    """Parameter tuples (b, c): the vectors of length n + 1, split after n."""
    return ((v[:n], v[n]) for v in enumerate_vectors(field, n + 1))


# The closed-form deformation maps of the two canonical pairs, one row of
# H-coordinates of r(E_1), ..., r(E_n), r(F_1), ..., r(F_n), r(G) each.  The
# families below and the deformed algebras at the end of this module share them.


def _L_a(field: Field, n: int, a) -> Matrix:
    """r(E_i) = a_i H, r(G) = H."""
    return Matrix(field, [list(a) + [field.zero] * n + [field.one]])


def _L_bc(field: Field, n: int, b, c) -> Matrix:
    """r(F_i) = b_i H, r(G) = c H."""
    return Matrix(field, [[field.zero] * n + list(b) + [c]])


def _m_a(field: Field, n: int, a) -> Matrix:
    """r(E_i) = a_i H, r(G) = (a_1 - 1) H."""
    return Matrix(field, [list(a) + [field.zero] * n + [a[0] - field.one]])


def _m_b(field: Field, n: int, b) -> Matrix:
    """r(F_i) = b_i H, r(G) = (b_n + 1) H."""
    return Matrix(field, [[field.zero] * n + list(b) + [b[n - 1] + field.one]])


def _m_c(field: Field, n: int, c) -> Matrix:
    """r(G) = c H."""
    return Matrix(field, [[field.zero] * (2 * n) + [c]])


def closed_form_defmaps_L(n: int, field: Field) -> list:
    """The two families for the canonical pair of kH inside L(2n+2):
    a-family (a != 0): r(E_i) = a_i H, r(G) = H;
    (b,c)-family: r(F_i) = b_i H, r(G) = c H."""
    if field.characteristic() == 2:
        raise CharTwo("the closed form assumes characteristic != 2")
    mp = canonical_pair_L(n, field)
    return [
        DeformationFamily("a", mp, partial(_L_a, field, n), partial(_nonzero_vectors, field, n), any),
        DeformationFamily("bc", mp, partial(_L_bc, field, n), partial(_split_vectors, field, n)),
    ]


def closed_form_defmaps_m(n: int, field: Field) -> list:
    """The three families for the canonical pair of kH inside m(2n+2):
    a-family (a != 0): r(E_i) = a_i H, r(G) = (a_1 - 1) H;
    b-family (b != 0): r(F_i) = b_i H, r(G) = (b_n + 1) H;
    c-family: r(G) = c H."""
    if field.characteristic() == 2:
        raise CharTwo("the closed form assumes characteristic != 2")
    mp = canonical_pair_m(n, field)
    nonzero_vectors = partial(_nonzero_vectors, field, n)
    return [
        DeformationFamily("a", mp, partial(_m_a, field, n), nonzero_vectors, any),
        DeformationFamily("b", mp, partial(_m_b, field, n), nonzero_vectors, any),
        DeformationFamily("c", mp, partial(_m_c, field, n), partial(enumerate_vectors, field, 1)),
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
    maps = enumerate_deformation_maps(mp, budget)
    reps, sizes = [], []
    for pos, d in enumerate(maps):
        alg = r_deformation(mp, d)
        for c, rep in enumerate(reps):
            res = are_isomorphic(alg, rep, iso_budget)
            if res.verdict == "unknown":
                raise BudgetExceeded(
                    f"isomorphism search inconclusive: {res.certificate}; deformation map "
                    f"at sweep index {pos} of {len(maps)}, class representative index {c}, "
                    f"shared fingerprint {fingerprint(alg).as_tuple()}"
                )
            if res.is_yes:
                sizes[c] += 1
                break
        else:
            reps.append(alg)
            sizes.append(1)
    return ComplementReport(
        representatives=reps,
        class_sizes=sizes,
        deformation_count=len(maps),
        index=len(reps),
        infinite=False,
    )


def _classify_registered_infinite(mp: MatchedPair) -> Optional[ComplementReport]:
    field = mp.field
    if mp != canonical_pair_m(1, field):
        return None
    families = closed_form_defmaps_m(1, field)
    by_label = {fam.label: fam for fam in families}
    # sample the c-family on its generic stratum (derived algebra of dim 2),
    # where ad on it takes infinitely many classes up to scaling; the
    # samples must be pairwise non-isomorphic, which are_isomorphic decides
    # over Q for these almost abelian algebras
    samples = [r_deformation(mp, by_label["c"].instance(field.scalar(c))) for c in (0, 2, 3, 4, 5)]
    for i, j in basis_pairs(len(samples)):
        if are_isomorphic(samples[i], samples[j]).verdict != "no":
            return None
    return ComplementReport(
        representatives=samples,
        class_sizes=[],
        deformation_count=None,
        index=None,
        infinite=True,
    )


# -- deformed families: r-deformations of the canonical pairs ---------------------
#
# Each is a gate on its parameters, then its closed-form map, then
# r_deformation.  They build in every characteristic, so they take the maps
# directly rather than through the families' characteristic check.


def _vector_param(field: Field, a, allow_zero: bool) -> tuple:
    vec = tuple(field.scalar(x) for x in a)
    if not vec:
        raise BadParameter("parameter vector must be nonempty")
    if not allow_zero and not any(vec):
        raise BadParameter("parameter vector must be nonzero")
    return vec


def make_l_a(field: Field, a) -> LieAlgebra:
    """a-family deformation of l(2n+1,k) for the L-extension pair (a != 0)."""
    a = _vector_param(field, a, allow_zero=False)
    n = len(a)
    return r_deformation(canonical_pair_L(n, field), _L_a(field, n, a))


def make_lp_b(field: Field, b) -> LieAlgebra:
    """b-family deformation (primed) of l(2n+1,k) for the L-extension pair:
    the (b, c = 2) map."""
    b = _vector_param(field, b, allow_zero=True)
    n = len(b)
    return r_deformation(canonical_pair_L(n, field), _L_bc(field, n, b, 2))


def make_lpp_b(field: Field, b) -> LieAlgebra:
    """b-family deformation (double primed) of l(2n+1,k): the (b, c = 1) map;
    b = 0 gives the abelian algebra."""
    b = _vector_param(field, b, allow_zero=True)
    n = len(b)
    return r_deformation(canonical_pair_L(n, field), _L_bc(field, n, b, 1))


def make_lbar_a(field: Field, a) -> LieAlgebra:
    """a-family deformation of l(2n+1,k) for the m-extension pair (a != 0)."""
    a = _vector_param(field, a, allow_zero=False)
    n = len(a)
    return r_deformation(canonical_pair_m(n, field), _m_a(field, n, a))


def make_lbarp_b(field: Field, b) -> LieAlgebra:
    """b-family deformation of l(2n+1,k) for the m-extension pair (b != 0)."""
    b = _vector_param(field, b, allow_zero=False)
    n = len(b)
    return r_deformation(canonical_pair_m(n, field), _m_b(field, n, b))


def make_lbarpp_c(field: Field, c, n: int = 1) -> LieAlgebra:
    """c-family deformation of l(2n+1,k) for the m-extension pair."""
    c = field.scalar(c)
    return r_deformation(canonical_pair_m(n, field), _m_c(field, n, c))


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

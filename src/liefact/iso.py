"""Isomorphism testing and automorphism groups.

Negative answers come cheap from fingerprints (isomorphism-invariant
dimension data), over any field.  Almost abelian algebras (abelian derived
algebra D of codimension 1, L = kz + D) are then decided outright, over Q as
over GF(p), from the form liecore.almost_abelian keeps on each algebra:
L and L' are isomorphic iff A = ad(z)|D is similar to cA' for some c != 0.
The candidates for c are the g-th roots of the c^g that the charpoly
coefficients fix (g the gcd of the weights of the nonzero ones), found by
exactmath._roots, never by running over the field; for each, the invariant
factors of cA' are read off A''s kept ones.  A "yes" carries the witness
z -> cz', Frobenius basis onto scaled Frobenius basis, checked by
verify_iso; a "no" names the charpolys, or each c with its factors.  An
almost abelian algebra's fingerprint is read off that form too.  Algebras
with a derived algebra of dimension at most 1 are k^n, h(2m+1) + k^r or
r2 + k^(n-2) over any field, and the fingerprint tells which: two with one
fingerprint are isomorphic, by the map between the frames that
liecore.derived_line_frame keeps, checked by verify_iso.  These and the
search's image domains read the series, center, Killing Gram and forms that
each LieAlgebra keeps once computed, and the fingerprint is kept there
too, so comparing one algebra with many computes its invariants and its
fingerprint once.  Definitive answers on other algebras over
finite fields come from a complete backtracking search that
assigns basis images one at a time, propagating the linear constraints each
bracket relation imposes and always expanding the most constrained variable
first.

The search runs on residues in [0, p): it reads both algebras' raw bracket
tables and the raw rows of the image domains, which _image_domains
intersects, once per call for each basis pattern, from the raw bases of the
characteristic subspaces, and a witness is boxed only when it is reported.
Its row reduction is exactmath's: each candidate set is one _rref_rows of
the constraint rows and their right-hand side, read off through the domain
matrix, and an image is assigned only when _Echelon finds it independent of
those before it.  The leaf keeps the matrix of the assigned columns only if
verify_iso passes it, in either search direction.  So every "yes" of
are_isomorphic and every automorphism of aut_enumerate has passed
verify_iso, the one check, and is wrapped with the trusted LinearMap._of.

The automorphism-triple group law, membership and the semidirect embedding
run on raw entries too.  A triple's h0 is a tuple from construction on, so
each triple is checked once, by _check_operand on its first use, and keeps
its raw (alpha, h0) and its B = [h0 | v].  A product or an inverse is born
checked: aut_multiply is one block product B1 · phi2 by Matrix.__mul__
(exactmath's one product kernel), whose result is the product's own B, and
_born_checked builds the triple without the dataclass's __init__, boxing
alpha and h0 by table lookups over a small prime field.  The defining
relation is linear in h0 and stated once, as the raw system
_relation_system: membership applies it and enumerate_aut_triples solves
it.  The relation is defined for any base algebra h, so membership and
enumerate_aut_triples accept one that is not perfect; only the
correspondence with automorphisms of the extension needs h perfect, and
is_valid_triple and phi_from_triple, which state it, raise NotPerfect.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field, fields
from operator import mul
from typing import Callable, Optional

from .errors import BudgetExceeded, FieldMismatch, InvalidTriple, NotFinite, NotPerfect
from .exactmath import (
    Field,
    Matrix,
    Scalar,
    _Echelon,
    _box,
    _intersect_rows,
    _mul_rows,
    _power,
    _roots,
    _rref_rows,
    affine_points,
    enumerate_affine,
    zero_vector,
)
from .liecore import (
    LieAlgebra,
    LinearMap,
    _kept,
    _morphism_defects,
    almost_abelian,
    center,
    derived_line_frame,
    derived_series,
    is_perfect,
    killing_gram,
    lower_central_series,
)
from .derivations import TwistedDerivation
from .matched import h_lambda_delta


@dataclass(frozen=True)
class Fingerprint:
    """Cheap isomorphism invariants; equal algebras give equal fingerprints."""

    dim: int
    derived: tuple
    lower_central: tuple
    center_dim: int
    abelianization_dim: int
    killing_rank: int

    def as_tuple(self) -> tuple:
        # not dataclasses.astuple, which deep-copies: each fingerprint "no" formats two
        return tuple(getattr(self, f.name) for f in fields(self))


@_kept
def fingerprint(algebra: LieAlgebra) -> Fingerprint:
    """The fingerprint, read off the invariants kept on the algebra, and
    kept on it too.

    An almost abelian L = kz + D has it in closed form, from its derived
    series and kept form: A = ad(z)|D is invertible, so [L, D] = D, the
    center is 0, and in a basis z, then D's, the Killing Gram is tr(A^2) at
    (z, z) and 0 elsewhere, with tr(A^2) = c_1^2 - 2 c_2 from the charpoly
    (c_1^2 when dim D = 1).
    """
    derived = tuple(s.dim for s in derived_series(algebra))
    form = almost_abelian(algebra)
    if form is not None:
        n, c = algebra.dim, form.charpoly
        trace = c[0] * c[0] - (2 * c[1] if len(c) > 1 else 0)
        return Fingerprint(
            dim=n,
            derived=derived,
            lower_central=(n, n - 1, n - 1),
            center_dim=0,
            abelianization_dim=1,
            killing_rank=1 if algebra.field._reduce(trace) else 0,
        )
    return Fingerprint(
        dim=algebra.dim,
        derived=derived,
        lower_central=tuple(s.dim for s in lower_central_series(algebra)),
        center_dim=center(algebra).dim,
        abelianization_dim=algebra.dim - derived[1],
        killing_rank=killing_gram(algebra).rank(),
    )


def verify_iso(a: LieAlgebra, b: LieAlgebra, m) -> bool:
    """True iff m is invertible and preserves every basis bracket."""
    matrix = m.matrix if isinstance(m, LinearMap) else m
    if a.field != b.field or matrix.field != a.field or a.dim != b.dim:
        return False
    if matrix.nrows != b.dim or matrix.ncols != a.dim:
        return False
    return matrix.is_invertible() and not any(_morphism_defects(a, b, matrix))


@dataclass(frozen=True)
class IsoResult:
    verdict: str  # "yes" | "no" | "unknown"
    witness: Optional[LinearMap] = None
    certificate: str = ""
    searched: int = 0

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"


class _BudgetHit(Exception):
    pass


def _characteristic(algebra: LieAlgebra) -> tuple:
    """The characteristic subspaces by name: (name, terms) pairs."""
    return (
        ("derived", derived_series(algebra)),
        ("lower_central", lower_central_series(algebra)),
        ("center", (center(algebra),)),
    )


@_kept
def _basis_patterns(algebra: LieAlgebra) -> tuple:
    """For each basis vector, its pattern: the (series name, index) of every
    proper characteristic subspace that holds it, the center as
    ("center", 0)."""
    proper = [
        (name, i, s)
        for name, terms in _characteristic(algebra)
        for i, s in enumerate(terms)
        if s.dim < algebra.dim
    ]
    return tuple(
        tuple((name, i) for name, i, s in proper if s._coordinates(e) is not None)
        for e in Matrix.identity(algebra.field, algebra.dim).raw
    )


def _image_domains(a: LieAlgebra, b: LieAlgebra) -> list:
    """For each source basis index, the raw rref rows of the target subspace
    its image must lie in: the intersection of the target's characteristic
    subspaces named by the source vector's pattern, those that b has.  Each
    distinct pattern's domain is computed once per call."""
    terms = dict(_characteristic(b))
    patterns = _basis_patterns(a)
    by_pattern = {}
    for pattern in patterns:
        if pattern not in by_pattern:
            dom = None
            for name, i in pattern:
                if i < len(terms[name]):
                    rows = terms[name][i].rows
                    # the first match needs no intersection: its rows are in rref
                    dom = rows if dom is None else _intersect_rows(b.field, dom, rows, b.dim)
            by_pattern[pattern] = Matrix.identity(b.field, b.dim).raw if dom is None else dom
    return [by_pattern[pattern] for pattern in patterns]


def _search_isomorphisms(
    a: LieAlgebra,
    b: LieAlgebra,
    budget: int,
    find_all: bool,
) -> tuple:
    """Complete backtracking over basis-image assignments.

    Returns (witness matrices, nodes expanded, exhausted flag).  Sound
    pruning only: linear independence, bracket-derived linear constraints,
    and characteristic-subspace membership, so an exhausted search is a
    definitive negative.

    Everything runs on residues in [0, p), read off the two raw bracket
    tables and the raw image domains; a witness is boxed only when reported.
    """
    doms = _image_domains(a, b)
    f = a.field
    p = f.p
    n = a.dim
    span = range(n)
    # c_a[i][j]: the coordinates of [e_i, e_j] in a; support[i][j]: their nonzero indices
    c_a, table_b = a._table, b._table
    support = [[frozenset(m for m in span if c[m]) for c in row] for row in c_a]
    # ad_lines[r][j][i] = [e_i, e_j]_r in b, so row r of ad(x) is
    # (x . ad_lines[r][j] for j): ad of an image comes straight from b's table
    ad_lines = [[tuple(table_b[i][j][r] for i in span) for j in span] for r in span]
    ad_rank = [len(_rref_rows(f, c_a[i], n)[1]) for i in span]
    # dom_rows[k][r]: row r of the matrix whose columns are the domain basis of e_k
    dom_rows = [[tuple(v[r] for v in dom) for r in span] for dom in doms]
    assigned: list = [None] * n
    ad_cache: list = [None] * n  # rows of ad(x_i) on b for each assigned x_i
    ad_dom: list = [None] * n  # ad(x_i) times the domain matrix of k, by k
    images = _Echelon(f)
    results = []
    nodes = 0

    def ad_of(x):
        return [tuple(sum(map(mul, x, line)) % p for line in lines) for lines in ad_lines]

    def known_part(c, k):
        """sum of c[m] x_m over the m != k (every such m with c[m] != 0 is assigned)."""
        out = [0] * n
        for m, cm in enumerate(c):
            if cm and m != k:
                for r, y in enumerate(assigned[m]):
                    out[r] += cm * y
        return out

    def candidates_for(k, done, done_set):
        """Affine candidate set for e_k's image inside its domain, or None.

        Each bracket relation that assigning e_k closes gives linear rows
        in the domain coordinates of x_k, with the right-hand side as the
        last column; one elimination gives the particular solution and the
        null basis."""
        dom = doms[k]
        d = len(dom)
        if not d:
            return None
        drows = dom_rows[k]
        rows = set()
        for i in done:
            c = c_a[i][k]
            if not support[i][k] - {k} <= done_set:
                continue
            known = known_part(c, k)
            adk = ad_dom[i].get(k)
            if adk is None:
                adi = ad_cache[i]
                adk = ad_dom[i][k] = [
                    tuple(sum(map(mul, row, v)) % p for v in dom) for row in adi
                ]
            ck = c[k]
            for r in span:
                if ck:
                    row = tuple((x - ck * y) % p for x, y in zip(adk[r], drows[r]))
                else:
                    row = adk[r]
                rows.add(row + (known[r] % p,))
        for i, j in itertools.combinations(done, 2):
            c = c_a[i][j]
            ck = c[k]
            if not ck or not support[i][j] - {k} <= done_set:
                continue
            known = known_part(c, k)
            bracket = [sum(map(mul, row, assigned[j])) for row in ad_cache[i]]
            for r in span:
                rows.add(tuple(ck * y % p for y in drows[r]) + ((bracket[r] - known[r]) % p,))
        red, pivots = _rref_rows(f, rows, d + 1)
        if pivots and pivots[-1] == d:
            return None
        # x = D t with t = part + span(null), mapped through the domain matrix D
        part = [0] * n
        for row, pc in zip(red, pivots):
            if row[d]:
                for r, y in enumerate(dom[pc]):
                    part[r] += row[d] * y
        pivot_set = set(pivots)
        null = []
        for free in range(d):
            if free in pivot_set:
                continue
            v = list(dom[free])
            for row, pc in zip(red, pivots):
                if row[free]:
                    v = [(x - row[free] * y) % p for x, y in zip(v, dom[pc])]
            null.append(v)
        return tuple(x % p for x in part), null

    def expand(remaining):
        nonlocal nodes
        if not remaining:
            m = Matrix._of_raw(f, tuple(zip(*assigned)), n)
            if not verify_iso(a, b, m):
                return False
            results.append(m)
            return not find_all
        done = [m for m in span if assigned[m] is not None]
        done_set = frozenset(done)
        best = None
        for k in remaining:
            cand = candidates_for(k, done, done_set)
            if cand is None:
                return False
            key = (len(cand[1]), -ad_rank[k], k)
            if best is None or key < best[0]:
                best = (key, k, cand)
        _, k, (part, null) = best
        rest = [m for m in remaining if m != k]
        for x in affine_points(p, part, null):
            nodes += 1
            if nodes > budget:
                raise _BudgetHit()
            if not images.push(x):
                continue
            assigned[k] = x
            ad_cache[k] = ad_of(x)
            ad_dom[k] = {}
            stop = expand(rest)
            assigned[k] = None
            ad_cache[k] = None
            ad_dom[k] = None
            images.pop()
            if stop:
                return True
        return False

    try:
        expand(list(span))
        exhausted = True
    except _BudgetHit:
        exhausted = False
    return results, nodes, exhausted


def _scalings(field: Field, u: tuple, v: tuple) -> tuple:
    """Every raw c != 0 with u_i = c^i v_i for each i, for two raw charpoly
    coefficient tuples (c_i has weight i) whose last entries are nonzero.

    The zero patterns must agree.  On the nonzero coefficients each ratio
    fixes c^i, and those fix c^g for g the gcd of their weights (an integer
    combination of the weights, by the extended gcd); every weight's ratio
    must then be a power of c^g, and c runs over the g-th roots of it
    (exactmath._roots), none of which is searched for among the field's
    elements.
    """
    if [bool(x) for x in u] != [bool(y) for y in v]:
        return ()
    ratios = [
        (i, field._reduce(x * _power(field, y, -1))) for i, (x, y) in enumerate(zip(u, v), 1) if x
    ]
    g, power = 0, 1
    for i, ratio in ratios:
        # c^gcd(g, i) = (c^g)^s (c^i)^t for s g + t i = gcd(g, i)
        s, t, g = *_bezout(g, i), math.gcd(g, i)
        power = field._reduce(_power(field, power, s) * _power(field, ratio, t))
    if any(_power(field, power, i // g) != ratio for i, ratio in ratios):
        return ()
    return _roots(field, g, power)


def _bezout(a: int, b: int) -> tuple:
    """(s, t) with s a + t b = gcd(a, b), for a, b >= 0."""
    if not b:
        return 1, 0
    s, t = _bezout(b, a % b)
    return t, s - (a // b) * t


def _scaled_factors(field: Field, factors: tuple, c) -> tuple:
    """The invariant factors of cA from A's: f(t) of degree m becomes
    c^m f(t / c), its coefficient of t^k scaled by c^(m - k)."""
    red = field._reduce
    return tuple(
        tuple(red(x * _power(field, c, len(f) - 1 - k)) for k, x in enumerate(f)) for f in factors
    )


def _show_poly(f: tuple) -> str:
    """A monic raw polynomial, lowest degree first, as text in t."""
    text = ""
    for k in range(len(f) - 1, -1, -1):
        x = f[k]
        if not x:
            continue
        sign = " - " if x < 0 else " + "
        x = abs(x)
        monomial = "" if not k else "t" if k == 1 else f"t^{k}"
        term = monomial if x == 1 and k else f"{x}{monomial}"
        text = term if not text else text + sign + term
    return text


def _almost_abelian_verdict(a: LieAlgebra, b: LieAlgebra) -> Optional[IsoResult]:
    """Decide two almost abelian algebras with equal fingerprints from their
    kept forms (liecore.almost_abelian), with no search: L = kz + D and
    L' = kz' + D' are isomorphic iff A = ad(z)|D is similar to cA' for a c
    whose charpoly scaling matches, iff the invariant factors of A equal
    those of A' scaled by c.

    A "yes" carries z -> cz', then the Frobenius basis of D onto that of D'
    with block vector j scaled by c^j (the transform of cA', from A''s), and
    is reported only if verify_iso passes it; a witness that failed would
    leave the verdict to the search (None).  A "no" names the charpolys when
    no c relates them, and otherwise each c with the scaled factors.
    """
    ka, kb = almost_abelian(a), almost_abelian(b)
    f = a.field
    candidates = _scalings(f, ka.charpoly, kb.charpoly)
    if not candidates:
        show = lambda u: "(" + ", ".join(map(str, u)) + ")"
        return IsoResult(
            "no",
            certificate=f"ad(z) on the derived algebra has charpoly coefficients {show(ka.charpoly)} "
            f"vs {show(kb.charpoly)}, not related by c_i -> c^i c_i for any c != 0",
        )
    listed = lambda factors: "[" + ", ".join(map(_show_poly, factors)) + "]"
    tried = []
    for c in candidates:
        scaled = _scaled_factors(f, kb.factors, c)
        if scaled != ka.factors:
            tried.append(f"{listed(scaled)} at c = {c}")
            continue
        scale = [c] + [_power(f, c, j) for factor in kb.factors for j in range(len(factor) - 1)]
        frame = tuple(tuple(f._reduce(x * y) for x, y in zip(row, scale)) for row in kb.frame)
        m = Matrix._of_raw(f, _mul_rows(f, frame, ka.frame_inverse, a.dim), a.dim)
        if not verify_iso(a, b, m):
            return None
        return IsoResult("yes", witness=LinearMap._of(a, b, m))
    return IsoResult(
        "no",
        certificate=f"ad(z) on the derived algebra has invariant factors {listed(ka.factors)}; "
        f"c ad(z') has {'; '.join(tried)}",
    )


def _frame_verdict(a: LieAlgebra, b: LieAlgebra) -> Optional[IsoResult]:
    """Decide two algebras with equal fingerprints and dim [L, L] <= 1 with
    no search: the fingerprint fixes which of k^n, h(2m+1) + k^r and
    r2 + k^(n-2) each is, and each has those brackets in its kept frame
    (liecore.derived_line_frame), so F_b F_a^-1 is an isomorphism.  It is
    reported only if verify_iso passes it; a witness that failed would leave
    the verdict to the search (None)."""
    (_, inverse), (frame, _) = derived_line_frame(a), derived_line_frame(b)
    m = Matrix._of_raw(a.field, _mul_rows(a.field, frame, inverse, a.dim), a.dim)
    if not verify_iso(a, b, m):
        return None
    return IsoResult("yes", witness=LinearMap._of(a, b, m))


def are_isomorphic(a: LieAlgebra, b: LieAlgebra, budget: int = 500000) -> IsoResult:
    """Over any field, differing fingerprints are a definitive no (0 nodes
    searched).  Two almost abelian algebras are then decided by
    _almost_abelian_verdict, a "yes" with a verified witness or a "no" with
    the charpolys or invariant factors, and two with dim [L, L] <= 1 by
    _frame_verdict, a "yes" with a verified witness, both with 0 nodes.  Otherwise the
    complete search decides over a finite field, and over the rationals the
    answer is unknown.  Algebras over different fields raise FieldMismatch.

    When the search from a to b runs out of budget, one more search with the
    same budget goes from b to a; its witness is inverted and re-verified.
    `searched` counts the nodes of both.
    """
    if a.field != b.field:
        raise FieldMismatch(f"a over {a.field}, b over {b.field}")
    if a.dim != b.dim:
        return IsoResult("no", certificate=f"dim {a.dim} != dim {b.dim}")
    fa, fb = fingerprint(a), fingerprint(b)
    if fa != fb:
        return IsoResult(
            "no", certificate=f"fingerprints differ: {fa.as_tuple()} vs {fb.as_tuple()}"
        )
    # equal fingerprints: both almost abelian, or neither; dim [L, L] equal
    res = None
    if almost_abelian(a) is not None:
        res = _almost_abelian_verdict(a, b)
    elif fa.derived[1] <= 1:
        res = _frame_verdict(a, b)
    if res is not None:
        return res
    if not a.field.is_finite:
        return IsoResult(
            "unknown",
            certificate="fingerprints agree; no complete search over an infinite field",
        )
    witnesses, nodes, exhausted = _search_isomorphisms(a, b, budget, find_all=False)
    searched = nodes
    if not (witnesses or exhausted):
        # the search's cost depends strongly on its direction, so try b -> a too
        back, back_nodes, exhausted = _search_isomorphisms(b, a, budget, find_all=False)
        searched += back_nodes
        witnesses = [m for m in (w.inverse() for w in back) if verify_iso(a, b, m)]
        exhausted = exhausted and not back
    if witnesses:
        return IsoResult("yes", witness=LinearMap._of(a, b, witnesses[0]), searched=searched)
    if exhausted:
        reason = f"complete search exhausted ({searched} nodes)"
        return IsoResult("no", certificate=reason, searched=searched)
    reason = f"budget {budget} exceeded after {nodes} nodes, and from b to a after {searched - nodes}"
    return IsoResult("unknown", certificate=reason, searched=searched)


def aut_enumerate(algebra: LieAlgebra, budget: int = 500000) -> list:
    """All automorphisms, via the complete search; canonically ordered."""
    if not algebra.field.is_finite:
        raise NotFinite("automorphism enumeration needs a finite field")
    witnesses, nodes, exhausted = _search_isomorphisms(algebra, algebra, budget, find_all=True)
    if not exhausted:
        raise BudgetExceeded(
            f"automorphism search hit budget {budget} after {nodes} nodes, on the "
            f"{algebra.dim}-dimensional algebra with basis {', '.join(algebra.basis_names)} "
            f"and fingerprint {fingerprint(algebra).as_tuple()}"
        )
    witnesses.sort(key=lambda m: m.raw)
    return [LinearMap._of(algebra, algebra, m) for m in witnesses]


# -- morphisms of codimension-1 extensions of a perfect algebra -----------------


def _relation_system(h: LieAlgebra, delta: Matrix, delta_prime: Matrix, alpha, v: Matrix) -> tuple:
    """The relation v∘Delta - alpha*Delta'∘v = [v(-), h0], for a raw alpha, as
    a dim^2 x dim system in h0 and its raw right-hand side: row (i, r) is
    coordinate r of [v(e_i), -], against entry (r, i) of the left side."""
    units = Matrix.identity(h.field, h.dim).raw
    rows = tuple(
        row for image in zip(*v.raw) for row in zip(*(h._bracket(image, e) for e in units))
    )
    lhs = v * delta - alpha * (delta_prime * v)
    return Matrix._of_raw(h.field, rows, h.dim), tuple(y for col in zip(*lhs.raw) for y in col)


def _relation_defect(
    algebra: LieAlgebra, delta: Matrix, delta_prime: Matrix, alpha, h0: tuple, v: Matrix
) -> bool:
    """True when the relation holds: _relation_system applied to a raw h0 of
    dim entries, for raw alpha."""
    system, rhs = _relation_system(algebra, delta, delta_prime, alpha, v)
    return system._apply(h0) == rhs


def is_valid_triple(
    h: LieAlgebra, delta: Matrix, delta_prime: Matrix, alpha, h0, v: LinearMap
) -> bool:
    """Morphism datum check: v a Lie map and the Delta-intertwining relation."""
    if not is_perfect(h):
        raise NotPerfect("the base algebra must be perfect")
    alpha = h.field._raw(alpha)
    if not v.is_lie_morphism():
        return False
    return _relation_defect(h, delta, delta_prime, alpha, h._raw_vector(h0), v.matrix)


def phi_from_triple(
    h: LieAlgebra, delta: Matrix, delta_prime: Matrix, alpha, h0, v: LinearMap
) -> LinearMap:
    """The map (a, x) -> (a*alpha, a*h0 + v(x)) between the two extensions,
    whose matrix phi = [[alpha, 0], [h0, v]] is built by _phi_rows."""
    if not is_perfect(h):
        raise NotPerfect("the base algebra must be perfect")
    field = h.field
    if v.matrix.field is not field:
        raise FieldMismatch(f"{v.matrix.field} vs {field}")
    rows = _phi_rows(field._raw(alpha), _block_rows(h._raw_vector(h0), v.matrix.raw))
    dom = h_lambda_delta(h, TwistedDerivation(zero_vector(field, h.dim), delta))
    cod = h_lambda_delta(h, TwistedDerivation(zero_vector(field, h.dim), delta_prime))
    return LinearMap(dom, cod, Matrix(field, rows))


def _block_rows(h0: tuple, v: tuple) -> tuple:
    """B = [h0 | v] of raw h0 and raw rows of v: the rows (h0[r],) + v[r],
    which are the rows of phi below its first."""
    return tuple(map(tuple.__add__, zip(h0), v))


def _phi_rows(alpha, block: tuple) -> tuple:
    """phi = [[alpha, 0], [h0, v]] of raw alpha and the raw rows of B: the
    row (alpha, 0, ..., 0) over them."""
    return ((alpha,) + (0,) * len(block),) + block


# -- the automorphism-triple group ----------------------------------------------


@dataclass(frozen=True)
class AutTriple:
    """Datum (alpha, h0, v) encoding an automorphism of an extension.

    An h0 given as another sequence is copied into a tuple, so the triple is
    immutable.  Once _check_operand has passed the triple, _checked keeps its
    raw (alpha, h0) and _block the Matrix B = [h0 | v] of its raw rows; _phi
    keeps its extension matrix [[alpha, 0], [h0, v]] once it is a right
    factor of the group law.  They take no part in construction, equality,
    hashing or repr.
    """

    alpha: Scalar
    h0: tuple
    v: LinearMap
    _checked: Optional[tuple] = dataclass_field(default=None, init=False, repr=False, compare=False)
    _block: Optional[Matrix] = dataclass_field(default=None, init=False, repr=False, compare=False)
    _phi: Optional[Matrix] = dataclass_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.h0) is not tuple:
            object.__setattr__(self, "h0", tuple(self.h0))


def aut_triple_valid(h: LieAlgebra, delta: Matrix, t: AutTriple) -> bool:
    """Membership in the group: invertible Lie map with the defining relation.

    h need not be perfect: the relation is defined for any h.  Only reading
    a triple as an automorphism of the extension needs h perfect, which
    is_valid_triple and phi_from_triple enforce.
    """
    checked = _automorphism_operand(h, t)
    return checked is not None and _relation_defect(h, delta, delta, *checked, t.v.matrix)


def _automorphism_operand(h: LieAlgebra, t: AutTriple) -> Optional[tuple]:
    """The raw (alpha, h0) of _check_operand when v is a Lie automorphism of
    h, else None.  A v that maps another algebra, or into one, is none."""
    if not all(alg is h or alg == h for alg in (t.v.domain, t.v.codomain)):
        return None
    try:
        checked = _check_operand(t, h.field, h.dim)
    except InvalidTriple:
        return None
    return checked if t.v.is_lie_morphism() else None


def aut_identity(h: LieAlgebra) -> AutTriple:
    return AutTriple(
        h.field.one,
        zero_vector(h.field, h.dim),
        LinearMap(h, h, Matrix.identity(h.field, h.dim)),
    )


def _check_operand(t: AutTriple, field: Field, dim: int) -> tuple:
    """Check a triple over a dim-dimensional algebra over field: alpha a
    unit, h0 of dim entries, v invertible.  Returns (alpha, h0) raw, int
    entries coerced into the field.  The group law, membership and the
    semidirect embedding all check their triples here.

    Only the algebra is compared on every call; the rest is checked on the
    triple's first use and kept on it, with its B = [h0 | v], since a triple
    is immutable.
    """
    if t.v.domain.field is not field or t.v.domain.dim != dim:
        raise InvalidTriple("triples over different algebras")
    if t._checked is not None:
        return t._checked
    alpha = field._raw(t.alpha)
    if not alpha:
        raise InvalidTriple("alpha must be a unit")
    if len(t.h0) != dim:
        raise InvalidTriple(f"h0 has {len(t.h0)} entries, expected {dim}")
    if not t.v.is_invertible():
        raise InvalidTriple("v must be invertible")
    checked = (alpha, tuple(map(field._raw, t.h0)))
    v = t.v.matrix
    object.__setattr__(t, "_checked", checked)
    object.__setattr__(t, "_block", Matrix._of_raw(field, _block_rows(checked[1], v.raw), v.ncols + 1))
    return checked


def _born_checked(field: Field, alpha, block: Matrix, domain: LieAlgebra, codomain: LieAlgebra) -> AutTriple:
    """The triple of raw alpha and B = [h0 | v], v from domain to codomain,
    its check and B kept, built without the dataclass's __init__.  The group
    law builds it from checked operands, so the check holds without being
    run: alpha is a product or inverse of units, h0 has dim entries, and v
    is a product or an inverse of checked invertible maps, so it is
    invertible."""
    rows = block.raw
    h0 = tuple([row[0] for row in rows])
    v = Matrix._of_raw(field, tuple([row[1:] for row in rows]), block.ncols - 1)
    t = object.__new__(AutTriple)
    t.__dict__.update(
        alpha=field._scalar_of(alpha), h0=_box(field, h0), v=LinearMap._of(domain, codomain, v),
        _checked=(alpha, h0), _block=block, _phi=None,
    )
    return t


def aut_multiply(t1: AutTriple, t2: AutTriple) -> AutTriple:
    """(alpha,h,v)*(beta,g,w) = (alpha*beta, beta*h + v(g), v∘w), on raw entries.

    t1's B = [h | v] times t2's phi = [[beta, 0], [g, w]] is
    [beta*h + v(g) | v∘w], the product's own B, by one Matrix.__mul__; phi
    is built from t2's B on its first use as a right factor, and kept with
    its packed rows.  Both operands go through _check_operand, which coerces
    int entries into the field on a triple's first use, and w must map into
    v's domain, as LinearMap.compose asks; the product is born checked.
    """
    field, dim = t1.v.domain.field, t1.v.domain.dim
    alpha = _check_operand(t1, field, dim)[0]
    beta = _check_operand(t2, field, dim)[0]
    t1.v._check_composable(t2.v)
    phi = t2._phi
    if phi is None:
        phi = Matrix._of_raw(field, _phi_rows(beta, t2._block.raw), dim + 1)
        object.__setattr__(t2, "_phi", phi)
    block = t1._block * phi
    return _born_checked(field, field._reduce(alpha * beta), block, t2.v.domain, t1.v.codomain)


def aut_inverse(t: AutTriple) -> AutTriple:
    """(alpha,h,v)^-1 = (alpha^-1, -alpha^-1 v^-1(h), v^-1), on raw entries."""
    field = t.v.domain.field
    alpha, h = _check_operand(t, field, t.v.domain.dim)
    ainv = field._scalar_of(alpha).inverse().value
    vinv = t.v.inverse().matrix
    red = field._reduce
    h0 = tuple([red(-ainv * y) for y in vinv._apply(h)])
    block = Matrix._of_raw(field, _block_rows(h0, vinv.raw), vinv.ncols + 1)
    return _born_checked(field, ainv, block, t.v.codomain, t.v.domain)


@dataclass(frozen=True)
class SemidirectElement:
    """Element (x, (alpha, v)) of the semidirect product of the underlying
    additive group with k* x Aut, twisted by (alpha, v): y -> alpha^{-1} v(y)."""

    translation: tuple
    alpha: Scalar
    v: LinearMap


def semidirect_embed(t: AutTriple) -> SemidirectElement:
    """(h0, (alpha, v)) scaled to (alpha^-1 h0, (alpha, v)); InvalidTriple
    unless the triple passes the group law's operand check (an int alpha is
    coerced)."""
    field = t.v.domain.field
    alpha, h0 = _check_operand(t, field, t.v.domain.dim)
    alpha = field._scalar_of(alpha)
    ainv, red = alpha.inverse().value, field._reduce
    return SemidirectElement(_box(field, [red(ainv * x) for x in h0]), alpha, t.v)


def semidirect_multiply(s1: SemidirectElement, s2: SemidirectElement) -> SemidirectElement:
    """(x, (alpha, v)) * (y, (beta, w)) = (x + alpha^-1 v(y), (alpha*beta, v∘w)),
    on raw entries."""
    dom = s1.v.domain
    x, y = dom._raw_vector(s1.translation), dom._raw_vector(s2.translation)
    ainv, red = s1.alpha.inverse().value, dom.field._reduce
    twisted = [red(a + ainv * b) for a, b in zip(x, s1.v.matrix._apply(y))]
    return SemidirectElement(
        _box(dom.field, twisted), s1.alpha * s2.alpha, s1.v.compose(s2.v)
    )


def enumerate_aut_triples(h: LieAlgebra, delta: Matrix, budget: int = 500000) -> list:
    """Full automorphism-triple group over a finite field.

    For each unit alpha and each automorphism v, the h0-fiber is solved
    exactly from _relation_system; `budget` bounds the automorphism search
    and, separately, the number of triples listed, and each fiber is counted
    against it before it is enumerated.

    h need not be perfect: the relation is defined for any h, and the list
    is the group of triples that satisfy it.  Only reading those triples as
    the automorphisms of the extension needs h perfect, which
    is_valid_triple and phi_from_triple enforce (they raise NotPerfect).
    """
    f = h.field
    auts = aut_enumerate(h, budget)
    triples = []
    for alpha in itertools.islice(f.elements(), 1, None):  # the units, after 0
        for index, v in enumerate(auts):
            system, rhs = _relation_system(h, delta, delta, alpha.value, v.matrix)
            sol = system.solve(rhs)
            if sol is None:
                continue
            part, null = sol
            size = f.p ** len(null)
            if len(triples) + size > budget:
                raise BudgetExceeded(
                    f"automorphism triples exceed budget {budget}: {len(triples)} listed, "
                    f"then the h0 fiber of alpha={alpha} and automorphism {index} of "
                    f"{len(auts)} has {size} points",
                    required=len(triples) + size,
                )
            for h0 in enumerate_affine(f, part, null):
                triples.append(AutTriple(alpha, h0, v))
    return triples


def gcheck_inner(h: LieAlgebra, x0) -> Callable:
    """Simplified membership predicate when the twist is the inner map [x0, -]:
    (alpha, h0, v) belongs iff v is a Lie automorphism of h that passes the
    group law's operand check, as aut_triple_valid asks, and
    v(x0) - alpha*x0 + h0 lies in the center."""
    z = center(h)
    x = h._raw_vector(x0)
    red = h.field._reduce

    def predicate(t: AutTriple) -> bool:
        checked = _automorphism_operand(h, t)
        if checked is None:
            return False
        alpha, h0 = checked
        w = tuple([red(y - alpha * a + b) for y, a, b in zip(t.v.matrix._apply(x), x, h0)])
        return z._coordinates(w) is not None

    return predicate

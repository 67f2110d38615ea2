"""Isomorphism testing and automorphism groups.

Negative answers come cheap from fingerprints (isomorphism-invariant
dimension data); definitive answers over finite fields come from a complete
backtracking search that assigns basis images one at a time, propagating the
linear constraints each bracket relation imposes and always expanding the
most constrained variable first.  Every Yes is re-verified against the full
bracket table before it is reported.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass
from typing import Callable, Optional

from .errors import BudgetExceeded, InvalidTriple, NotFinite, NotPerfect
from .exactmath import (
    Field,
    Matrix,
    Scalar,
    basis_vector,
    dot,
    enumerate_affine,
    intersect_spans,
    is_zero_vector,
    lincomb,
    vadd,
    vscale,
    vsub,
    zero_vector,
)
from .liecore import (
    LieAlgebra,
    LinearMap,
    center,
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
        return astuple(self)


def fingerprint(algebra: LieAlgebra) -> Fingerprint:
    derived = tuple(s.dim for s in derived_series(algebra))
    lower = tuple(s.dim for s in lower_central_series(algebra))
    return Fingerprint(
        dim=algebra.dim,
        derived=derived,
        lower_central=lower,
        center_dim=center(algebra).dim,
        abelianization_dim=algebra.dim - derived[1],
        killing_rank=killing_gram(algebra).rank(),
    )


def verify_iso(a: LieAlgebra, b: LieAlgebra, m) -> bool:
    """True iff m is invertible and preserves every basis bracket."""
    matrix = m.matrix if isinstance(m, LinearMap) else m
    if a.field != b.field or a.dim != b.dim:
        return False
    if matrix.nrows != b.dim or matrix.ncols != a.dim:
        return False
    return matrix.is_invertible() and LinearMap(a, b, matrix).is_lie_morphism()


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


def _image_domains(a: LieAlgebra, b: LieAlgebra) -> list:
    """For each source basis index, an rref basis of the target subspace its
    image must lie in (intersection of matching characteristic subspaces)."""
    f = a.field
    n = a.dim
    pairs = list(zip(derived_series(a), derived_series(b)))
    pairs += list(zip(lower_central_series(a), lower_central_series(b)))
    pairs.append((center(a), center(b)))
    full = [basis_vector(f, b.dim, i) for i in range(b.dim)]
    domains = []
    for i in range(n):
        ei = basis_vector(f, n, i)
        dom = full
        for s1, s2 in pairs:
            if s1.dim < a.dim and s1.contains(ei):
                dom = intersect_spans(f, dom, list(s2.basis), b.dim)
        domains.append(dom)
    return domains


class _Reducer:
    """Incremental independence tracking for the assigned image vectors."""

    def __init__(self, field: Field, dim: int):
        self.field = field
        self.dim = dim
        self.rows = []  # (pivot, reduced row)

    def reduce(self, v) -> tuple:
        r = list(v)
        for pivot, row in self.rows:
            if r[pivot]:
                c = r[pivot]
                r = [x - c * y for x, y in zip(r, row)]
        return tuple(r)

    def push(self, v) -> bool:
        r = self.reduce(v)
        if is_zero_vector(r):
            return False
        pivot = next(k for k, x in enumerate(r) if x)
        inv = r[pivot].inverse()
        self.rows.append((pivot, tuple(inv * x for x in r)))
        return True

    def pop(self):
        self.rows.pop()


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
    """
    f = a.field
    n = a.dim
    domains = _image_domains(a, b)
    ad_rank = [a.ad_basis(i).rank() for i in range(n)]
    assigned: list = [None] * n
    ad_cache: list = [None] * n
    reducer = _Reducer(f, n)
    results = []
    nodes = 0

    def _known_part(c, done_set, k):
        known = [m for m in done_set if m != k]
        return lincomb([c[m] for m in known], [assigned[m] for m in known], zero_vector(f, n))

    def constraints_for(k):
        """Stacked linear system A x = rhs for the image of e_k: the equations of
        every basis pair whose bracket relation assigning e_k closes."""
        rows = []
        rhs = []
        done = [m for m in range(n) if assigned[m] is not None]
        done_set = set(done)
        for i in done:
            c = a.bracket_basis(i, k)
            if any(c[m] and m != k and m not in done_set for m in range(n)):
                continue
            known = _known_part(c, done_set, k)
            adv = ad_cache[i]
            ck = c[k]
            for r in range(n):
                row = list(adv.rows[r])
                if ck:
                    row[r] = row[r] - ck
                rows.append(tuple(row))
                rhs.append(known[r])
        for i, j in itertools.combinations(done, 2):
            c = a.bracket_basis(i, j)
            if not c[k]:
                continue
            if any(c[m] and m != k and m not in done_set for m in range(n)):
                continue
            target = vsub(b.bracket(assigned[i], assigned[j]), _known_part(c, done_set, k))
            ck = c[k]
            for r in range(n):
                row = [f.zero] * n
                row[r] = ck
                rows.append(tuple(row))
                rhs.append(target[r])
        return rows, rhs

    def candidates_for(k):
        """Affine candidate set for e_k's image inside its domain, or None."""
        dom = domains[k]
        if not dom:
            return None
        rows, rhs = constraints_for(k)
        # substitute x = sum t_a dom_a and solve for t
        m_rows = tuple(tuple(dot(row, d, f) for d in dom) for row in rows)
        sol = Matrix._of_scalars(f, m_rows, len(dom)).solve(tuple(rhs))
        if sol is None:
            return None
        part, null = sol
        return part, null, dom

    def expand(remaining):
        nonlocal nodes
        if not remaining:
            cols = [assigned[i] for i in range(n)]
            matrix = Matrix.from_cols(f, cols)
            if verify_iso(a, b, matrix):
                results.append(matrix)
                return not find_all
            return False
        best = None
        for k in remaining:
            cand = candidates_for(k)
            if cand is None:
                return False
            _, null, _ = cand
            key = (len(null), -ad_rank[k], k)
            if best is None or key < best[0]:
                best = (key, k, cand)
        _, k, (part, null, dom) = best
        rest = [m for m in remaining if m != k]
        for t in enumerate_affine(f, part, null):
            x = lincomb(t, dom, zero_vector(f, n))
            nodes += 1
            if nodes > budget:
                raise _BudgetHit()
            if not reducer.push(x):
                continue
            assigned[k] = x
            ad_cache[k] = b.ad(x)
            stop = expand(rest)
            assigned[k] = None
            ad_cache[k] = None
            reducer.pop()
            if stop:
                return True
        return False

    try:
        expand(list(range(n)))
        exhausted = True
    except _BudgetHit:
        exhausted = False
    return results, nodes, exhausted


def are_isomorphic(a: LieAlgebra, b: LieAlgebra, budget: int = 500000) -> IsoResult:
    """Definitive over finite fields (complete search); over the rationals a
    fingerprint mismatch is a definitive no, anything else is unknown."""
    if a.field != b.field:
        return IsoResult("no", certificate="different base fields")
    if a.dim != b.dim:
        return IsoResult("no", certificate=f"dim {a.dim} != dim {b.dim}")
    fa, fb = fingerprint(a), fingerprint(b)
    if fa != fb:
        return IsoResult(
            "no", certificate=f"fingerprints differ: {fa.as_tuple()} vs {fb.as_tuple()}"
        )
    if not a.field.is_finite:
        return IsoResult(
            "unknown",
            certificate="fingerprints agree; no complete search over an infinite field",
        )
    witnesses, nodes, exhausted = _search_isomorphisms(a, b, budget, find_all=False)
    if witnesses:
        return IsoResult(
            "yes", witness=LinearMap(a, b, witnesses[0]), searched=nodes
        )
    if exhausted:
        return IsoResult(
            "no", certificate=f"complete search exhausted ({nodes} nodes)", searched=nodes
        )
    return IsoResult(
        "unknown", certificate=f"budget {budget} exceeded after {nodes} nodes", searched=nodes
    )


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
    witnesses.sort(key=lambda m: tuple(x.value for x in m.entries_flat()))
    return [LinearMap(algebra, algebra, m) for m in witnesses]


# -- morphisms of codimension-1 extensions of a perfect algebra -----------------


def _zero_lambda(algebra: LieAlgebra) -> tuple:
    return zero_vector(algebra.field, algebra.dim)


def _relation_defect(
    algebra: LieAlgebra, delta: Matrix, delta_prime: Matrix, alpha: Scalar, h0, v: Matrix
) -> bool:
    """Check v∘Delta - alpha*Delta'∘v = [v(-), h0] columnwise."""
    lhs = v * delta - alpha * (delta_prime * v)
    for i in range(algebra.dim):
        if lhs.col(i) != algebra.bracket(v.col(i), h0):
            return False
    return True


def is_valid_triple(
    h: LieAlgebra, delta: Matrix, delta_prime: Matrix, alpha, h0, v: LinearMap
) -> bool:
    """Morphism datum check: v a Lie map and the Delta-intertwining relation."""
    if not is_perfect(h):
        raise NotPerfect("the base algebra must be perfect")
    alpha = h.field.scalar(alpha)
    if not v.is_lie_morphism():
        return False
    return _relation_defect(h, delta, delta_prime, alpha, tuple(h0), v.matrix)


def phi_from_triple(
    h: LieAlgebra, delta: Matrix, delta_prime: Matrix, alpha, h0, v: LinearMap
) -> LinearMap:
    """The map (a, x) -> (a*alpha, a*h0 + v(x)) between the two extensions."""
    if not is_perfect(h):
        raise NotPerfect("the base algebra must be perfect")
    alpha = h.field.scalar(alpha)
    h0 = tuple(h.field.scalar(x) for x in h0)
    dom = h_lambda_delta(h, TwistedDerivation(_zero_lambda(h), delta))
    cod = h_lambda_delta(h, TwistedDerivation(_zero_lambda(h), delta_prime))
    cols = [(alpha,) + h0]
    for i in range(h.dim):
        cols.append((h.field.zero,) + tuple(v.matrix.col(i)))
    return LinearMap(dom, cod, Matrix.from_cols(h.field, cols))


# -- the automorphism-triple group ----------------------------------------------


@dataclass(frozen=True)
class AutTriple:
    """Datum (alpha, h0, v) encoding an automorphism of an extension."""

    alpha: Scalar
    h0: tuple
    v: LinearMap

    def structural_ok(self) -> bool:
        return bool(self.alpha) and self.v.is_invertible() and self.v.is_lie_morphism()


def aut_triple_valid(h: LieAlgebra, delta: Matrix, t: AutTriple) -> bool:
    """Membership in the group: invertible Lie map with the defining relation."""
    if not t.structural_ok():
        return False
    return _relation_defect(h, delta, delta, t.alpha, t.h0, t.v.matrix)


def aut_identity(h: LieAlgebra) -> AutTriple:
    return AutTriple(
        h.field.one,
        zero_vector(h.field, h.dim),
        LinearMap(h, h, Matrix.identity(h.field, h.dim)),
    )


def _check_compatible(t1: AutTriple, t2: AutTriple):
    if t1.v.domain.field != t2.v.domain.field or t1.v.domain.dim != t2.v.domain.dim:
        raise InvalidTriple("triples over different algebras")
    for t in (t1, t2):
        if not t.alpha:
            raise InvalidTriple("alpha must be a unit")
        if not t.v.is_invertible():
            raise InvalidTriple("v must be invertible")


def aut_multiply(t1: AutTriple, t2: AutTriple) -> AutTriple:
    """(alpha,h,v)*(beta,g,w) = (alpha*beta, beta*h + v(g), v∘w)."""
    _check_compatible(t1, t2)
    h0 = vadd(vscale(t2.alpha, t1.h0), t1.v.matrix.mul_vector(t2.h0))
    return AutTriple(t1.alpha * t2.alpha, h0, t1.v.compose(t2.v))


def aut_inverse(t: AutTriple) -> AutTriple:
    _check_compatible(t, t)
    ainv = t.alpha.inverse()
    vinv = t.v.inverse()
    return AutTriple(ainv, vscale(-ainv, vinv.matrix.mul_vector(t.h0)), vinv)


@dataclass(frozen=True)
class SemidirectElement:
    """Element (x, (alpha, v)) of the semidirect product of the underlying
    additive group with k* x Aut, twisted by (alpha, v): y -> alpha^{-1} v(y)."""

    translation: tuple
    alpha: Scalar
    v: LinearMap


def semidirect_embed(t: AutTriple) -> SemidirectElement:
    return SemidirectElement(
        vscale(t.alpha.inverse(), t.h0), t.alpha, t.v
    )


def semidirect_multiply(s1: SemidirectElement, s2: SemidirectElement) -> SemidirectElement:
    twist = vscale(s1.alpha.inverse(), s1.v.matrix.mul_vector(s2.translation))
    return SemidirectElement(
        vadd(s1.translation, twist), s1.alpha * s2.alpha, s1.v.compose(s2.v)
    )


def enumerate_aut_triples(h: LieAlgebra, delta: Matrix, budget: int = 500000) -> list:
    """Full automorphism-triple group over a finite field.

    For each unit alpha and each automorphism v, the defining relation is
    linear in h0, so the h0-fiber is solved exactly; `budget` bounds the
    automorphism search and, separately, the number of triples listed, and
    each fiber is counted against it before it is enumerated.
    """
    f = h.field
    auts = aut_enumerate(h, budget)
    triples = []
    for alpha in f.nonzero_elements():
        for index, v in enumerate(auts):
            lhs = v.matrix * delta - alpha * (delta * v.matrix)
            rows = []
            rhs = []
            for i in range(h.dim):
                adw = h.ad(v.matrix.col(i))
                target = lhs.col(i)
                for r in range(h.dim):
                    rows.append(adw.rows[r])
                    rhs.append(target[r])
            sol = Matrix(f, rows).solve(tuple(rhs))
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
    (alpha, h0, v) belongs iff v(x0) - alpha*x0 + h0 lies in the center."""
    z = center(h)

    def predicate(t: AutTriple) -> bool:
        w = vadd(vsub(t.v.matrix.mul_vector(x0), vscale(t.alpha, x0)), t.h0)
        return z.contains(w)

    return predicate

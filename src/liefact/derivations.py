"""Derivations and twisted derivations of a Lie algebra.

A twisted derivation is a pair (lambda, Delta): a covector vanishing on the
derived algebra together with an endomorphism obeying the perturbed
derivation law

    Delta([g,h]) = [Delta(g),h] + [g,Delta(h)] + lambda(h)Delta(g) - lambda(g)Delta(h).

The lambda-terms carry the sign that makes every codimension-1 extension
bracket satisfy Jacobi; with lambda = 0 the law reduces to the ordinary
derivation law.  The law is stated once, on raw entries, as the linear
system _twisted_system in the entries of Delta: the solvers take its null
space, and a given pair (lambda, Delta) is checked by applying it to Delta.

Twisted derivations of l(2n+1,k) admit a block closed form, a datum
(TnElement below) under four linear block constraints.  That block law is
stated once, on raw entries, as the linear system _tn_system at a fixed
lambda0: tn_validate applies it to a datum and tn_space_for_lambda0 takes
its null space, which the tests play off against the generic solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    FieldMismatch,
    InvalidTn,
    LambdaNotAdmissible,
    NotADerivation,
    NotFinite,
)
from .exactmath import (
    Field,
    Matrix,
    Scalar,
    _box,
    enumerate_affine,
    span_rref,
    zero_vector,
)
from .liecore import LieAlgebra, LinearMap, basis_pairs, right_bracket_matrix


@dataclass(frozen=True)
class TwistedDerivation:
    lam: tuple  # covector, length dim
    delta: Matrix

    def _defects(self, algebra: LieAlgebra):
        """(i, j, lambda([e_i, e_j]), Delta-defect), raw, for each basis pair
        where either is nonzero; the Delta-defects are _twisted_system
        applied to the row-major entries of Delta, dim entries per pair."""
        n, f, d = algebra.dim, algebra.field, self.delta
        if (d.nrows, d.ncols, len(self.lam)) != (n, n, n):
            raise DimensionMismatch("Delta must be dim x dim and lambda of length dim")
        if d.field is not f:
            raise FieldMismatch(f"Delta over {d.field} on an algebra over {f}")
        lam = tuple(map(f._raw, self.lam))
        on_brackets = _lambda_of_brackets(algebra, lam)
        law = _twisted_system(algebra, lam)._apply([x for row in d.raw for x in row])
        for q, pair in enumerate(basis_pairs(n)):
            lam_val, delta_val = on_brackets.get(pair, 0), law[q * n : (q + 1) * n]
            if lam_val or any(delta_val):
                yield (*pair, lam_val, delta_val)

    def violations(self, algebra: LieAlgebra) -> list:
        """Defects of the two defining identities on all basis pairs, boxed:
        per pair a "lambda" record, then a "delta" one, where nonzero."""
        f = algebra.field
        bad = []
        for i, j, lam_val, delta_val in self._defects(algebra):
            if lam_val:
                bad.append(("lambda", i, j, f._scalar_of(lam_val)))
            if any(delta_val):
                bad.append(("delta", i, j, _box(f, delta_val)))
        return bad

    def is_valid_for(self, algebra: LieAlgebra) -> bool:
        return not any(self._defects(algebra))


def _lambda_of_brackets(algebra: LieAlgebra, lam) -> dict:
    """lambda([e_i, e_j]) for a raw lambda, raw, keyed by the stored pairs."""
    red = algebra.field._reduce
    return {pair: red(sum(map(mul, lam, vec))) for pair, vec in algebra._sc.items()}


def _twisted_system(algebra: LieAlgebra, lam) -> Matrix:
    """Linear system in the dim^2 row-major entries of Delta for a fixed raw
    lambda: row (i, j, k), pairs i < j in order, is coordinate k of the
    law's left-hand side minus its right-hand side."""
    n = algebra.dim
    f = algebra.field
    red = f._reduce
    t = algebra._table
    rows = []
    for i, j in basis_pairs(n):
        cij = t[i][j]
        for k in range(n):
            row = [f.zero.value] * (n * n)
            for m in range(n):
                if cij[m]:
                    row[k * n + m] = red(row[k * n + m] + cij[m])
                cmj = t[m][j][k]
                if cmj:
                    row[m * n + i] = red(row[m * n + i] - cmj)
                cim = t[i][m][k]
                if cim:
                    row[m * n + j] = red(row[m * n + j] - cim)
            if lam[j]:
                row[k * n + i] = red(row[k * n + i] - lam[j])
            if lam[i]:
                row[k * n + j] = red(row[k * n + j] + lam[i])
            rows.append(tuple(row))
    return Matrix._of_raw(f, tuple(rows), n * n)


def _maps_from_flat(algebra: LieAlgebra, flats) -> list:
    """The maps whose row-major raw entries are the given flats."""
    n = algebra.dim
    maps = []
    for flat in flats:
        m = Matrix._of_raw(algebra.field, tuple(flat[r * n : (r + 1) * n] for r in range(n)), n)
        maps.append(LinearMap(algebra, algebra, m))
    return maps


def derivation_space(algebra: LieAlgebra) -> list:
    """Basis of {D : D[x,y] = [Dx,y] + [x,Dy]}."""
    lam = (algebra.field.zero.value,) * algebra.dim
    return _maps_from_flat(algebra, _twisted_system(algebra, lam)._null_raw())


def is_derivation(algebra: LieAlgebra, d: LinearMap) -> bool:
    lam = zero_vector(algebra.field, algebra.dim)
    return TwistedDerivation(lam, d.matrix).is_valid_for(algebra)


def inner_derivation(algebra: LieAlgebra, x) -> LinearMap:
    """The map y -> [x, y]."""
    return LinearMap(algebra, algebra, algebra.ad(x))


def is_inner(algebra: LieAlgebra, d: LinearMap) -> Optional[tuple]:
    """Witness x with [x, -] = d, or None.

    Raises NotADerivation when d fails the derivation law.
    """
    if not is_derivation(algebra, d):
        raise NotADerivation("the map does not satisfy the derivation law")
    # row (j, k) of the stacked system asks [x, e_j]_k = d(e_j)_k
    sol = right_bracket_matrix(algebra).solve(d.matrix.transpose().entries_flat())
    if sol is None:
        return None
    return sol[0]


def lambda_is_admissible(algebra: LieAlgebra, lam) -> bool:
    return not any(_lambda_of_brackets(algebra, algebra._raw_vector(lam)).values())


def twisted_derivations_for_lambda(algebra: LieAlgebra, lam) -> list:
    """Basis of the Delta-solution space for one fixed admissible lambda."""
    if len(lam) != algebra.dim:
        raise DimensionMismatch("lambda must have length dim")
    lam = algebra._raw_vector(lam)
    if not lambda_is_admissible(algebra, lam):
        raise LambdaNotAdmissible("lambda does not vanish on the derived algebra")
    return _maps_from_flat(algebra, _twisted_system(algebra, lam)._null_raw())


def admissible_lambdas(algebra: LieAlgebra) -> list:
    """rref basis of the covectors vanishing on the derived algebra."""
    return Matrix._of_raw(algebra.field, tuple(algebra._sc.values()), algebra.dim).nullspace()


def enumerate_twisted_derivations(algebra: LieAlgebra, budget: int = 10**7) -> list:
    """One (lambda, Delta-basis) entry per admissible lambda, finite fields only."""
    if not algebra.field.is_finite:
        raise NotFinite("enumeration of admissible lambdas needs a finite field")
    basis = admissible_lambdas(algebra)
    count = algebra.field.p ** len(basis)
    if count > budget:
        raise BudgetExceeded(
            f"{count} admissible covectors exceed budget {budget}", required=count
        )
    out = []
    origin = zero_vector(algebra.field, algebra.dim)
    for lam in enumerate_affine(algebra.field, origin, basis):
        out.append((lam, twisted_derivations_for_lambda(algebra, lam)))
    return out


def canonical_solution_span(maps) -> tuple:
    """rref of the stacked flattened matrices; canonical set-equality key."""
    if not maps:
        return ()
    field = maps[0].matrix.field
    return tuple(span_rref(field, [m.matrix.entries_flat() for m in maps]))


# -- the block closed form for l(2n+1,k) --------------------------------------


@dataclass(frozen=True)
class TnElement:
    """Block datum (A, B, C, D, lambda0, delta) for a twisted derivation of l(2n+1,k).

    A, B, C, D are n x n over one field and delta has length 2n+1; the datum
    is valid when it satisfies the block law, _tn_system.
    """

    n: int
    A: Matrix
    B: Matrix
    C: Matrix
    D: Matrix
    lambda0: Scalar
    delta: tuple

    @property
    def field(self) -> Field:
        return self.A.field

    def __post_init__(self):
        for block in (self.A, self.B, self.C, self.D):
            if block.nrows != self.n or block.ncols != self.n:
                raise DimensionMismatch("blocks must be n x n")
            if block.field is not self.field:
                raise FieldMismatch(f"block over {block.field}, A over {self.field}")
        if len(self.delta) != 2 * self.n + 1:
            raise DimensionMismatch("delta must have length 2n+1")


def tn_element(field: Field, n: int, A, B, C, D, lambda0, delta) -> TnElement:
    """Convenience constructor accepting raw entry lists."""
    def as_matrix(x):
        if isinstance(x, Matrix):
            return x
        if x == 0:
            return Matrix.zeros(field, n, n)
        return Matrix(field, x)

    return TnElement(
        n=n,
        A=as_matrix(A),
        B=as_matrix(B),
        C=as_matrix(C),
        D=as_matrix(D),
        lambda0=field.scalar(lambda0),
        delta=tuple(field.scalar(x) for x in delta),
    )


def _tn_system(field: Field, n: int, lam0) -> Matrix:
    """The block law at a raw lambda0, as a linear system in the flat datum
    A | B | C | D | delta (blocks row-major, 4n^2 + 2n + 1 unknowns): per
    entry (i, j), one row each of lambda0*A + delta_last*I, (2+lambda0)*B,
    (2-lambda0)*C and lambda0*D - delta_last*I."""
    red = field._reduce
    zero, one = field.zero.value, field.one.value
    nn, total = n * n, 4 * n * n + 2 * n + 1
    # (coefficient of the block entry, of delta_last on the diagonal), per block
    laws = ((lam0, one), (red(2 + lam0), zero), (red(2 - lam0), zero), (lam0, red(-one)))
    rows = []
    for i in range(n):
        for j in range(n):
            for b, (c, d) in enumerate(laws):
                row = [zero] * total
                row[b * nn + i * n + j] = c
                if i == j:
                    row[-1] = d
                rows.append(tuple(row))
    return Matrix._of_raw(field, tuple(rows), total)


def tn_validate(t: TnElement) -> bool:
    f = t.field
    flat = [x for m in (t.A, t.B, t.C, t.D) for row in m.raw for x in row]
    flat += map(f._raw, t.delta)
    return not any(_tn_system(f, t.n, f._raw(t.lambda0))._apply(flat))


def tn_delta_matrix(t: TnElement) -> Matrix:
    """Assemble Delta in the basis (E_1..E_n, F_1..F_n, G) from the blocks."""
    f = t.field
    n = t.n
    rows = []
    for i in range(n):
        rows.append(t.A.raw[i] + t.B.raw[i] + (t.delta[i],))
    for i in range(n):
        rows.append(t.C.raw[i] + t.D.raw[i] + (t.delta[n + i],))
    rows.append(list(zero_vector(f, 2 * n)) + [t.delta[2 * n]])
    return Matrix(f, rows)


def tn_to_twisted(t: TnElement) -> TwistedDerivation:
    if not tn_validate(t):
        raise InvalidTn("block constraints violated")
    f = t.field
    lam = tuple(zero_vector(f, 2 * t.n)) + (t.lambda0,)
    return TwistedDerivation(lam=lam, delta=tn_delta_matrix(t))


def tn_space_for_lambda0(field: Field, n: int, lambda0) -> list:
    """Basis TnElements of the block law at fixed lambda0: the null space of
    _tn_system, cut into blocks.  Its image under tn_delta_matrix is the
    closed-form Delta-space the generic solver must reproduce."""
    lam0 = field.scalar(lambda0)
    nn = n * n

    def block(flat, b):
        return Matrix._of_raw(field, tuple(flat[b * nn + r * n : b * nn + (r + 1) * n] for r in range(n)), n)

    return [
        TnElement(n, *(block(flat, b) for b in range(4)), lam0, _box(field, flat[4 * nn :]))
        for flat in _tn_system(field, n, lam0.value)._null_raw()
    ]


def tn_delta_span(field: Field, n: int, lambda0) -> tuple:
    """Canonical rref span of the closed-form Delta-space at fixed lambda0."""
    flats = [tn_delta_matrix(t).entries_flat() for t in tn_space_for_lambda0(field, n, lambda0)]
    return tuple(span_rref(field, flats))

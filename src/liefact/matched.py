"""Matched pairs, bicrossed products, and the named algebra families.

A matched pair carries two Lie algebras g, h and mutual actions
(right: h x g -> h, left: h x g -> g); the bicrossed product glues g and h
along them, with [g_a, h_i] = -(h_i |> g_a) - (h_i <| g_a).  The action
tables are kept raw, as LieAlgebra keeps its structure constants: canonical
rationals over Q (ints when integral), residues in [0, p) over GF(p), zero
entries not stored; act_right and act_left box what they return.  The pair is
matched exactly when the bicrossed bracket satisfies Jacobi, and the two
module axioms and two mixed compatibilities are the blocks of its Jacobiator
on mixed triples, so check_matched_pair reads them off that Jacobiator and
adds the Jacobi identity of g and h themselves; bicrossed_product raises on
that same report.  The dimension-1 case is equivalent to a twisted derivation
of h, which is how every codimension-1 extension in this toolkit is
produced: h_lambda_delta is the bicrossed product of pair_from_twisted.

Each named extension of l(2n+1,k) is built from its datum: a gate on the
parameters, then a Tn block datum (TnElement), then one construction that
appends H with [X, H] = Delta(X) + lambda(X) H.  The canonical pairs of L and
m are pair_from_twisted of the same data, so an algebra and its pair share
one definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    BadParameter,
    DimensionMismatch,
    FieldMismatch,
    FormatError,
    InvalidMatchedPair,
    InvalidTwistedDerivation,
    NotAFactorization,
)
from .derivations import TnElement, TwistedDerivation, tn_to_twisted
from .exactmath import Field, Matrix, _box
from .liecore import (
    LieAlgebra,
    Subspace,
    basis_pairs,
    read_json,
    subalgebra_structure,
    write_json,
    _block_diagonal,
    _json_terms,
)


class MatchedPair:
    """Two Lie algebras with mutual actions, stored on basis pairs.

    right[(i, j)] is the raw h-vector h_i <| g_j (h_i acted by g_j from the
    right); left[(i, j)] is the raw g-vector h_i |> g_j (h_i acting on g_j).
    Zero entries are not stored.  The tables are never changed after
    construction, so _invariants keeps the results of the functions marked
    @liecore._kept, by name, as LieAlgebra does.
    """

    __slots__ = ("g", "h", "right", "left", "_invariants")

    def __init__(self, g: LieAlgebra, h: LieAlgebra, right=None, left=None):
        if g.field != h.field:
            raise FieldMismatch(f"{g.field} vs {h.field}")
        self.g = g
        self.h = h
        self.right = self._raw_table("right", right, h.dim, "h")
        self.left = self._raw_table("left", left, g.dim, "g")
        self._invariants = {}

    def _raw_table(self, side: str, entries, dim: int, space: str) -> dict:
        """entries coerced to raw vectors of length dim, zero ones dropped."""
        raw = self.field._raw
        table = {}
        for (i, j), vec in (entries or {}).items():
            if not (0 <= i < self.h.dim and 0 <= j < self.g.dim):
                raise FormatError(
                    f"{side} action key ({i},{j}) must satisfy 0 <= i < dim h, 0 <= j < dim g"
                )
            v = tuple(map(raw, vec))
            if len(v) != dim:
                raise DimensionMismatch(f"{side} action value must live in {space}")
            if any(v):
                table[(i, j)] = v
        return table

    @property
    def field(self) -> Field:
        return self.g.field

    def _act(self, table, dim: int, x, a) -> tuple:
        x, a = self.h._raw_vector(x), self.g._raw_vector(a)
        out = [0] * dim
        for (i, j), v in table.items():
            c = x[i] * a[j]
            if c:
                for k, s in enumerate(v):
                    out[k] += c * s
        return _box(self.field, map(self.field._reduce, out))

    def act_right(self, x, a) -> tuple:
        """Bilinear extension of (x, a) -> x <| a, valued in h."""
        return self._act(self.right, self.h.dim, x, a)

    def act_left(self, x, a) -> tuple:
        """Bilinear extension of (x, a) -> x |> a, valued in g."""
        return self._act(self.left, self.g.dim, x, a)

    def __eq__(self, other):
        return (
            isinstance(other, MatchedPair)
            and self.g.same_brackets(other.g)
            and self.h.same_brackets(other.h)
            and self.right == other.right
            and self.left == other.left
        )

    def __repr__(self):
        return f"MatchedPair(g dim {self.g.dim}, h dim {self.h.dim} over {self.field})"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        def table(entries, value_names):
            out = []
            for (i, j), vec in sorted(entries.items()):
                terms = [[value_names[k], str(c)] for k, c in enumerate(vec) if c]
                out.append({"x": self.h.basis_names[i], "g": self.g.basis_names[j], "out": terms})
            return out

        return {
            "g": self.g.to_json_dict(),
            "h": self.h.to_json_dict(),
            "right_action": table(self.right, self.h.basis_names),
            "left_action": table(self.left, self.g.basis_names),
        }

    @classmethod
    def from_json_dict(cls, data) -> "MatchedPair":
        if not isinstance(data, dict) or "g" not in data or "h" not in data:
            raise FormatError("pair record must contain g and h algebras")
        g = LieAlgebra.from_json_dict(data["g"])
        h = LieAlgebra.from_json_dict(data["h"])
        if g.field != h.field:
            raise FormatError(f"g is over {g.field} and h over {h.field}; a pair needs one field")

        def read(entries, target: LieAlgebra):
            if not isinstance(entries, (list, type(None))):
                raise FormatError("an action table must be a list of records")
            table = {}
            for rec in entries or []:
                try:
                    xi = h.name_index(rec["x"])
                    gj = g.name_index(rec["g"])
                    out = _json_terms(rec["out"], rec)
                except (TypeError, KeyError) as exc:
                    raise FormatError(f"bad action record {rec!r}") from exc
                if (xi, gj) in table:
                    raise FormatError(f"action pair ({rec['x']}, {rec['g']}) listed twice")
                vec = [0] * target.dim
                for name, coeff in out:
                    vec[target.name_index(name)] += g.field._raw(coeff)
                table[(xi, gj)] = tuple(vec)
            return table

        return cls(g, h, right=read(data.get("right_action"), h), left=read(data.get("left_action"), g))


def load_pair(path) -> MatchedPair:
    return MatchedPair.from_json_dict(read_json(path))


def dump_pair(pair: MatchedPair, path) -> None:
    write_json(path, pair.to_json_dict())


def _bicrossed(mp: MatchedPair, names=None) -> LieAlgebra:
    """g + h with the bicrossed bracket, unchecked: the basis of g, then that
    of h, and [g_a, h_i] = -(h_i |> g_a) - (h_i <| g_a)."""
    dg = mp.g.dim
    names, brackets = _block_diagonal(mp.g, mp.h, names)
    zero_g, zero_h = (0,) * dg, (0,) * mp.h.dim
    for a in range(dg):
        for i in range(mp.h.dim):
            vec = mp.left.get((i, a), zero_g) + mp.right.get((i, a), zero_h)
            brackets[(a, dg + i)] = tuple(-x for x in vec)
    return LieAlgebra(mp.field, names, brackets)


def _pair_defects(mp: MatchedPair, bi: LieAlgebra) -> list:
    """The matched-pair axioms as blocks of the Jacobiator of bi, the
    bicrossed bracket of mp, on mixed triples, then the Jacobi identity of
    g and of h themselves.

    On (g_a, h_i, h_j) its g-part is the left-module defect (i, j, a) and
    its h-part the compat-right defect (i, j, a); on (g_a, g_b, h_i) its
    h-part is minus the right-module defect (i, a, b) and its g-part minus
    the compat-left defect (i, a, b).  Records are (axiom, indices, defect)
    in the order of the axioms, each in index order, except that
    right-module runs over (a, b) before i; then the "jacobi" records of g
    and of h, their indices and defects in the basis of bi.
    """
    dg, dh, red = mp.g.dim, mp.h.dim, mp.field._reduce
    g_part, h_part = slice(None, dg), slice(dg, None)
    hh = {(i, j, a): bi._jacobiator(a, dg + i, dg + j) for i, j in basis_pairs(dh) for a in range(dg)}
    gg = {
        (i, a, b): tuple(red(-x) for x in bi._jacobiator(a, b, dg + i))
        for i in range(dh)
        for a, b in basis_pairs(dg)
    }
    axioms = (
        ("left-module", hh, sorted(hh), g_part),
        ("right-module", gg, sorted(gg, key=lambda k: (k[1], k[2], k[0])), h_part),
        ("compat-left", gg, sorted(gg), g_part),
        ("compat-right", hh, sorted(hh), h_part),
    )
    out = [
        (name, index, _box(mp.field, table[index][part]))
        for name, table, order, part in axioms
        for index in order
        if any(table[index][part])
    ]
    zero = mp.field.zero
    out += [("jacobi", (i, j, l), d + (zero,) * dh) for i, j, l, d in mp.g.check_jacobi()]
    out += [
        ("jacobi", (dg + i, dg + j, dg + l), (zero,) * dg + d)
        for i, j, l, d in mp.h.check_jacobi()
    ]
    return out


def check_matched_pair(mp: MatchedPair) -> list:
    """Violated axioms as (axiom, indices, defect) records; empty = valid.

    The four axioms come first, then the Jacobi defects of g and h as
    "jacobi" records in the basis of the bicrossed product (see
    _pair_defects).  Once the axioms hold, the product satisfies Jacobi
    exactly when g and h do, so an empty report is a Lie bicrossed product.
    """
    return _pair_defects(mp, _bicrossed(mp))


def bicrossed_product(mp: MatchedPair, names=None) -> LieAlgebra:
    """Lie algebra on g x h with the mixed bracket; g and h embed as blocks.

    Raises InvalidMatchedPair, carrying check_matched_pair's report, unless
    that report is empty.
    """
    out = _bicrossed(mp, names)
    report = _pair_defects(mp, out)
    if report:
        axiom, index, _ = report[0]
        if axiom == "jacobi":
            raise InvalidMatchedPair(f"bicrossed bracket violates Jacobi at {index}", report)
        raise InvalidMatchedPair(f"matched pair axioms fail: {axiom} at {index}", report)
    return out


@dataclass(frozen=True)
class Factorization:
    """An ambient algebra written as g + h with trivial intersection."""

    ambient: LieAlgebra
    gsub: Subspace
    hsub: Subspace

    def problems(self) -> list:
        out = []
        if self.gsub.algebra != self.ambient or self.hsub.algebra != self.ambient:
            out.append("subspaces must reference the ambient algebra")
            return out
        if not self.gsub.is_subalgebra():
            out.append("g is not a subalgebra")
        if not self.hsub.is_subalgebra():
            out.append("h is not a subalgebra")
        if self.gsub.dim + self.hsub.dim != self.ambient.dim:
            out.append("dim g + dim h != dim ambient")
        elif self.gsub.sum_with(self.hsub).dim != self.ambient.dim:
            out.append("g and h intersect nontrivially")
        return out


def canonical_matched_pair(fact: Factorization) -> MatchedPair:
    """Actions extracted from [x, a] by the unique g + h decomposition."""
    problems = fact.problems()
    if problems:
        raise NotAFactorization("; ".join(problems))
    amb = fact.ambient
    f = amb.field
    g_alg = subalgebra_structure(amb, fact.gsub)
    h_alg = subalgebra_structure(amb, fact.hsub)
    # columns: g basis then h basis, as ambient vectors
    cols = list(fact.gsub.basis) + list(fact.hsub.basis)
    minv = Matrix.from_cols(f, cols).inverse()
    right = {}
    left = {}
    for i, xvec in enumerate(fact.hsub.basis):
        for j, avec in enumerate(fact.gsub.basis):
            w = minv.mul_vector(amb.bracket(xvec, avec))
            left[(i, j)] = w[: fact.gsub.dim]
            right[(i, j)] = w[fact.gsub.dim :]
    return MatchedPair(g_alg, h_alg, right=right, left=left)


# -- dimension one: twisted derivations as matched pairs -----------------------


def _fresh_name(taken, preferred=("F", "H")) -> str:
    for name in preferred:
        if name not in taken:
            return name
    k = 1
    while f"F{k}" in taken:
        k += 1
    return f"F{k}"


def pair_from_twisted(h: LieAlgebra, t: TwistedDerivation, name: Optional[str] = None) -> MatchedPair:
    """The matched pair (k0, h) with x <| a = a*Delta(x), x |> a = a*lambda(x)."""
    bad = t.violations(h)
    if bad:
        raise InvalidTwistedDerivation(f"twisted derivation law fails: {bad[0]}")
    gname = name or _fresh_name(set(h.basis_names))
    g = LieAlgebra.abelian(h.field, 1, (gname,))
    right = {}
    left = {}
    for i in range(h.dim):
        right[(i, 0)] = t.delta.col(i)
        if t.lam[i]:
            left[(i, 0)] = (t.lam[i],)
    return MatchedPair(g, h, right=right, left=left)


def h_lambda_delta(h: LieAlgebra, t: TwistedDerivation, name: Optional[str] = None) -> LieAlgebra:
    """Codimension-1 extension of h along a twisted derivation.

    Basis: the new generator first, then the basis of h, with
    [e_i, F] = lambda(e_i) F + Delta(e_i).  An h that fails Jacobi raises
    InvalidTwistedDerivation, as a law violation does.
    """
    try:
        return bicrossed_product(pair_from_twisted(h, t, name))
    except InvalidMatchedPair as exc:
        raise InvalidTwistedDerivation(f"extension: {exc}") from exc


# -- canonical matched pairs of the two pinned extensions ----------------------


def canonical_pair_L(n: int, field: Field) -> MatchedPair:
    """Canonical actions of the extension kH inside L(2n+2), from the datum of
    make_L: E_i <| H = -E_i, F_i <| H = F_i, G <| H = G, G |> H = H."""
    return pair_from_twisted(make_l(n, field), tn_to_twisted(_L_datum(n, field)), "H")


def canonical_pair_m(n: int, field: Field) -> MatchedPair:
    """Canonical actions of kH inside m(2n+2), from the datum of make_m:
    E_i <| H = E_i, F_i <| H = F_i, G <| H = E_1 + F_n; the left action is
    trivial."""
    return pair_from_twisted(make_l(n, field), tn_to_twisted(_m_datum(n, field)), "H")


# -- named families -------------------------------------------------------------


def _lnames(n: int, extra=()) -> tuple:
    if n < 1:
        raise BadParameter("n must be >= 1")
    if n == 1:
        base = ("E", "F", "G")
    else:
        base = tuple(f"E{i + 1}" for i in range(n)) + tuple(f"F{i + 1}" for i in range(n)) + ("G",)
    return base + tuple(extra)


def _finish(field: Field, names, named_brackets) -> LieAlgebra:
    out = LieAlgebra.from_named_brackets(field, names, named_brackets)
    bad = out.check_jacobi()
    if bad:
        raise BadParameter(f"parameters break the Jacobi identity at {bad[0][:3]}")
    return out


def _l_brackets(n: int, extra=()) -> tuple:
    """Basis names and the brackets of l(2n+1,k), which every family extends."""
    names = _lnames(n, extra)
    br = {}
    for i in range(n):
        br[(names[i], "G")] = [(names[i], 1)]
        br[("G", names[n + i])] = [(names[n + i], 1)]
    return names, br


def make_l(n: int, field: Field) -> LieAlgebra:
    """l(2n+1,k): [E_i, G] = E_i, [G, F_i] = F_i."""
    return _finish(field, *_l_brackets(n))


def _extension(t: TnElement) -> LieAlgebra:
    """l(2n+1,k) extended by H, appended last, along the twisted derivation
    of the datum t: [X, H] = Delta(X) + lambda(X) H."""
    tw = tn_to_twisted(t)
    names, br = _l_brackets(t.n, ("H",))
    for x, name in enumerate(names[:-1]):
        terms = zip(names, tw.delta.col(x) + (tw.lam[x],))
        br[(name, "H")] = [(y, c) for y, c in terms if c]
    return _finish(t.field, names, br)


def _datum(n: int, field: Field, lam0, delta, A=None, B=None, C=None, D=None) -> TnElement:
    """The gated block datum of a family at lambda0 = lam0.

    Given blocks must be n x n and missing ones are zero.  With lam0 != 0 the
    block law (derivations._tn_system) forces A = -(delta_last/lam0) I = -D,
    and delta has all 2n+1 entries; with lam0 = 0 it forces delta_last = 0,
    and delta lists the first 2n.
    """
    _lnames(n)
    A, B, C, D = (Matrix.zeros(field, n, n) if m is None else _block(field, n, m) for m in (A, B, C, D))
    if not lam0:
        delta = _delta_scalars(field, delta, 2 * n) + (field.zero,)
    else:
        delta = _delta_scalars(field, delta, 2 * n + 1)
        s = delta[-1] * lam0.inverse()
        A, D = -s * Matrix.identity(field, n), s * Matrix.identity(field, n)
    return TnElement(n, A, B, C, D, lam0, delta)


def _L_datum(n: int, field: Field) -> TnElement:
    """lambda(G) = 1, Delta = diag(-1 on E, 1 on F, 1 on G)."""
    return _datum(n, field, field.one, [0] * (2 * n) + [1])


def _m_datum(n: int, field: Field) -> TnElement:
    """lambda = 0, A = D = I, Delta(G) = E_1 + F_n."""
    ident = Matrix.identity(field, n)
    return _datum(n, field, field.zero, [int(k in (0, 2 * n - 1)) for k in range(2 * n)], A=ident, D=ident)


def make_L(n: int, field: Field) -> LieAlgebra:
    """L(2n+2,k), the pinned extension with [G, H] = H + G."""
    return _extension(_L_datum(n, field))


def make_m(n: int, field: Field) -> LieAlgebra:
    """m(2n+2,k), the pinned extension with [G, H] = E_1 + F_n."""
    return _extension(_m_datum(n, field))


def _require_char_ne_2(field: Field, what: str):
    if field.characteristic() == 2:
        raise BadParameter(f"{what} requires characteristic != 2")


def _require_char_2(field: Field, what: str):
    if field.characteristic() != 2:
        raise BadParameter(f"{what} requires characteristic 2")


def _delta_scalars(field: Field, delta, expected: int) -> tuple:
    d = tuple(field.scalar(x) for x in delta)
    if len(d) != expected:
        raise BadParameter(f"delta must have length {expected}")
    return d


def _block(field: Field, n: int, m) -> Matrix:
    mat = m if isinstance(m, Matrix) else Matrix(field, m)
    if mat.nrows != n or mat.ncols != n:
        raise BadParameter("matrix parameter must be n x n")
    return mat


def make_l1(n: int, field: Field, lambda0, delta) -> LieAlgebra:
    """First char-!=-2 family: lambda0 outside {0, 2, -2}, delta of length 2n+1."""
    _require_char_ne_2(field, "this family")
    lam0 = field.scalar(lambda0)
    two = field.scalar(2)
    if lam0 == field.zero or lam0 == two or lam0 == -two:
        raise BadParameter("lambda0 must avoid {0, 2, -2}")
    return _extension(_datum(n, field, lam0, delta))


def make_l2(n: int, field: Field, A, D, delta) -> LieAlgebra:
    """Second char-!=-2 family (lambda0 = 0): free diagonal blocks A, D."""
    _require_char_ne_2(field, "this family")
    return _extension(_datum(n, field, field.zero, delta, A=A, D=D))


def make_l3(n: int, field: Field, C, delta) -> LieAlgebra:
    """Third char-!=-2 family (lambda0 = 2): free block C."""
    _require_char_ne_2(field, "this family")
    return _extension(_datum(n, field, field.scalar(2), delta, C=C))


def make_l4(n: int, field: Field, B, delta) -> LieAlgebra:
    """Fourth char-!=-2 family (lambda0 = -2): free block B."""
    _require_char_ne_2(field, "this family")
    return _extension(_datum(n, field, field.scalar(-2), delta, B=B))


def make_l1_char2(n: int, field: Field, A, B, C, D, delta) -> LieAlgebra:
    """Characteristic-2 family at lambda0 = 0: all four blocks free."""
    _require_char_2(field, "this family")
    return _extension(_datum(n, field, field.zero, delta, A, B, C, D))


def make_l2_char2(n: int, field: Field, lambda0, delta) -> LieAlgebra:
    """Characteristic-2 family at lambda0 != 0."""
    _require_char_2(field, "this family")
    lam0 = field.scalar(lambda0)
    if not lam0:
        raise BadParameter("lambda0 must be nonzero")
    return _extension(_datum(n, field, lam0, delta))


def make_h5(field: Field) -> LieAlgebra:
    """The perfect 5-dimensional algebra used for the codimension-1 study."""
    _require_char_ne_2(field, "the perfect 5-dim algebra")
    names = ("e1", "e2", "e3", "e4", "e5")
    br = {
        ("e1", "e2"): [("e3", 1)],
        ("e1", "e3"): [("e1", -2)],
        ("e1", "e5"): [("e4", 1)],
        ("e3", "e4"): [("e4", 1)],
        ("e2", "e3"): [("e2", 2)],
        ("e2", "e4"): [("e5", 1)],
        ("e3", "e5"): [("e5", -1)],
    }
    return _finish(field, names, br)


def h5_noninner_derivation(field: Field) -> Matrix:
    """The pinned non-inner derivation of make_h5 driving its complement study."""
    rows = [
        [1, 0, 0, 0, 0],
        [0, -1, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [-1, 0, 0, -1, 0],
        [0, 0, 1, 0, -2],
    ]
    return Matrix(field, rows)


def h5_derivation_pattern(field: Field) -> list:
    """Generators of the six-parameter derivation space of make_h5."""
    def unit(entries):
        rows = [[0] * 5 for _ in range(5)]
        for (r, c), v in entries.items():
            rows[r - 1][c - 1] = v
        return Matrix(field, rows)

    return [
        unit({(1, 1): 1, (2, 2): -1, (5, 5): -1}),
        unit({(3, 1): 1, (2, 3): -2, (5, 4): -1}),
        unit({(4, 1): 1, (5, 3): -1}),
        unit({(1, 3): -2, (3, 2): 1, (4, 5): 1}),
        unit({(4, 3): 1, (5, 2): 1}),
        unit({(4, 4): 1, (5, 5): 1}),
    ]


def make_sl2(field: Field) -> LieAlgebra:
    """sl2 with [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    names = ("e", "f", "h")
    br = {
        ("e", "f"): [("h", 1)],
        ("h", "e"): [("e", 2)],
        ("h", "f"): [("f", -2)],
    }
    return _finish(field, names, br)


def make_Lalpha(field: Field, alpha) -> LieAlgebra:
    """The 3-dim family [x,z] = x, [y,z] = alpha*y."""
    names = ("x", "y", "z")
    br = {
        ("x", "z"): [("x", 1)],
        ("y", "z"): [("y", field.scalar(alpha))],
    }
    return _finish(field, names, br)

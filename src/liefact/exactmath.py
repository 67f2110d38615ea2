"""Exact field arithmetic and linear algebra over the rationals and GF(p).

Everything here is exact: a rational is kept canonical, as an int when it
is integral and as a stdlib Fraction (lowest terms, denominator > 1) when it
is not, and prime-field residues are ints in [0, p).  All values are
immutable and all operations pure, so concurrent use is safe and every test
downstream can assert strict equality.

Scalar is the boundary type: every value a caller passes in or gets back is
a Scalar tagged by its field.  Inside, values are raw: canonical rationals
over Q (an int and an equal Fraction compare and hash alike, so raw tuples
mean the same either way) and residues in [0, p) over GF(p).  Every raw value
the module computes goes through Field._reduce, or the packed product's table
of residues, which makes it canonical.  A Matrix keeps raw entries: its
public constructors coerce them once, sums, products and elimination run on
them, and its accessors box what they hand out.  Every matrix product goes
through Matrix.__mul__, and its one kernel is _mul_rows.  Over GF(p), when
k (p - 1)^2 < 256 for the inner dimension k, it packs each row of the right
factor into one int, a byte per entry, and makes each row of the product
with one big-int sum and one bytes.translate (simultaneous modular
reduction, after Dumas, Fousse and Salvy); every other product is a single
flat pass over the (row, column) pairs, one _reduce per entry, cut back into
rows.  Row reduction is decided here, once:
Matrix.rref (and so rank and span_rref), Matrix.inverse and Matrix.det wrap
three raw entry points, _rref_rows, _inverse_rows (the RREF of (A | I)) and
_det_rows.  Null spaces have a fourth, _null_space_rows: Matrix.nullspace,
Matrix.solve (the null space of (A | -b)) and the Frobenius form go through
it, and it restricts the unit vectors equation by equation, so a dependent
equation costs one dot product per surviving vector and no row operation;
its basis is the one the RREF gives, which the tests read off a reference
RREF as its oracle.  The kernels run on plain ints, fraction-free over Q
and on residues over GF(p); no other module names them or
_null_space_rows.  _Echelon decides independence one raw vector at a time,
with no elimination, for the isomorphism search and liecore's generating
sets.

A vector at the boundary is a tuple of Scalars; zero_vector and
basis_vector build the two a caller needs most, and the module has no
arithmetic on such tuples.  Inside, a vector is a tuple of raw entries: the
Lie algebras and subspaces of liecore keep their bracket tables and bases
that way, and every sum, product and law check runs on those.  _span_rows is
span_rref on raw rows, and _intersect_rows intersects two spans of raw rows.

Each field has one instance, built and validated on first use with its zero
and one, so comparing the fields of two operands is an identity check.  A
prime field below TABLE_BOUND (1024) also builds, once, the tuple of its p
Scalars, and its zero and one are entries 0 and 1 of it: _box, Field.scalar
and Field.elements (and so every accessor) box a residue by indexing that
tuple.  Q and the larger prime fields, GF(2^31 - 1) among them, build no
table and box into a new Scalar each time.  Scalar arithmetic builds a new
Scalar on every field.

The Frobenius form of a square matrix is one raw kernel, _frobenius_rows:
the invariant factors and a transform to block companion form, by the
cyclic-vector construction on small polynomial helpers (a polynomial is a
list of raw coefficients, lowest degree first).  _roots gives every g-th
root of a field element, by integer roots over Q and over GF(p) by a
square root (e = 2) or by splitting t^e - s, with no pass over the field's
elements.

Every matrix has an exact shape: a 0 x n matrix still has n columns, so its
null space is all of n-space and a (k x 0)(0 x n) product is the k x n zero
matrix.

The points of an affine subspace x + span(null) of GF(p)^n come from one
generator, affine_points: residues mod p, lexicographic in the coefficients
(first slowest), and lazy, so a large p costs only the points used.  The
isomorphism search takes its raw points; enumerate_affine boxes them, and
enumerate_vectors is enumerate_affine over the unit basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Iterator, Optional

from .errors import BadParameter, DimensionMismatch, FieldMismatch, FormatError, NotFinite

KIND_Q = "Q"
KIND_FP = "Fp"
# a prime field below this bound builds the tuple of its p Scalars once
TABLE_BOUND = 1024


def _is_prime(p: int) -> bool:
    # Trial division; moduli here are desk scale.
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Field:
    """The rationals or a prime field GF(p), with its constants zero and one.

    Each field has one instance: Field(kind, p) validates (kind, p) on the
    first call and returns the stored instance on every later one, as do
    gf, rationals, from_json, copy and pickle.  Equality of fields is
    identity.  _table is the tuple of the p Scalars of a prime field below
    TABLE_BOUND, and None for every other field.  _pack is the largest inner
    dimension k with k (p - 1)^2 < 256, whose products _mul_rows packs a byte
    per entry, and _residues the 256 bytes x mod p that reduce them; over Q
    and GF(p) for p > 16 they are -1 and None.
    """

    __slots__ = ("kind", "p", "zero", "one", "_reduce", "_table", "_pack", "_residues")

    _instances: dict = {}

    def __new__(cls, kind: str, p: Optional[int] = None):
        field = cls._instances.get((kind, p))
        if field is not None:
            return field
        if kind == KIND_Q:
            if p is not None:
                raise BadParameter("rationals take no modulus")
        elif kind == KIND_FP:
            # the bound keeps trial division to milliseconds
            if p is None or p >= 2**32 or not _is_prime(p):
                raise BadParameter(f"modulus must be a prime below 2**32, got {p!r}")
        else:
            raise BadParameter(f"unknown field kind {kind!r}")
        field = super().__new__(cls)
        field.kind = kind
        field.p = p
        # the canonical form of a computed raw entry
        field._reduce = _rational if p is None else p.__rmod__
        # a small prime field boxes a residue by indexing its p Scalars
        field._table = None
        if p is not None and p < TABLE_BOUND:
            field._table = tuple([Scalar(field, v) for v in range(p)])
        # the packed product's bound and byte table (_mul_rows)
        field._pack, field._residues = -1, None
        if p is not None and (p - 1) ** 2 < 256:
            field._pack = 255 // (p - 1) ** 2
            field._residues = bytes([x % p for x in range(256)])
        field.zero = field.scalar(0)
        field.one = field.scalar(1)
        # two threads may build the same field; setdefault keeps the first
        return cls._instances.setdefault((kind, p), field)

    def __reduce__(self):
        return Field, (self.kind, self.p)

    @classmethod
    def rationals(cls) -> "Field":
        return cls(KIND_Q)

    @classmethod
    def gf(cls, p: int) -> "Field":
        return cls(KIND_FP, p)

    def characteristic(self) -> int:
        return 0 if self.kind == KIND_Q else self.p

    @property
    def is_finite(self) -> bool:
        return self.kind == KIND_FP

    def __repr__(self):
        return "Q" if self.kind == KIND_Q else f"GF({self.p})"

    # -- element construction ------------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, digit string or same-field Scalar.

        Anything else raises BadParameter, floats included: over GF(p) a
        float would truncate and over Q keep its binary expansion.
        """
        if isinstance(value, Scalar) and value.field is self:
            return value
        return self._scalar_of(self._raw(value))

    def _scalar_of(self, raw) -> "Scalar":
        """The Scalar of a canonical raw value: the table's own entry when
        the field has a table, else a new Scalar."""
        table = self._table
        return Scalar(self, raw) if table is None else table[raw]

    def _raw(self, value):
        """What scalar(value) holds: a canonical rational over Q, a residue
        over GF(p)."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatch(f"scalar over {value.field}, expected {self}")
            return value.value
        if isinstance(value, str):
            return self.from_string(value).value
        if not isinstance(value, (int, Fraction)):
            raise BadParameter(f"{value!r} is not an exact field element over {self}")
        if self.kind == KIND_Q:
            return _rational(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator not invertible mod {self.p}")
            num = value.numerator % self.p
            den = pow(value.denominator % self.p, self.p - 2, self.p)
            return (num * den) % self.p
        return value % self.p

    def from_string(self, text: str) -> "Scalar":
        text = text.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                return self.scalar(Fraction(int(num), int(den)))
            return self.scalar(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad field element {text!r} over {self}: {exc}") from exc

    def elements(self) -> Iterator["Scalar"]:
        """All field elements in ascending residue order (finite fields only)."""
        if not self.is_finite:
            raise NotFinite("cannot enumerate the rationals")
        yield from map(self._scalar_of, range(self.p))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == KIND_Q:
            return {"kind": "Q"}
        return {"kind": "Fp", "p": self.p}

    @classmethod
    def from_json(cls, data) -> "Field":
        if not isinstance(data, dict) or "kind" not in data:
            raise FormatError(f"bad field record: {data!r}")
        kind = data["kind"]
        if kind == "Q":
            return cls.rationals()
        if kind == "Fp":
            try:
                return cls.gf(int(data["p"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"bad field record: {data!r}") from exc
        raise FormatError(f"unknown field kind {kind!r}")


class Scalar:
    """A single exact field element, tagged by its field.

    It hashes as its raw value, so it meets in a set the int or Fraction it
    equals when that is canonical (Q.one and 1).  A non-canonical int such
    as 6 over GF(5) compares equal to the Scalar 1 but cannot hash alike.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = value

    def _coerce(self, other) -> Optional["Scalar"]:
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, (int, Fraction, str)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._reduce(self.value + other.value))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._reduce(self.value - other.value))

    def __rsub__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced.__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._reduce(self.value * other.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __neg__(self):
        return Scalar(self.field, self.field._reduce(-self.value))

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if self.field.kind == KIND_Q:
            # 1 / an int would be a float
            return Scalar(self.field, _rational(Fraction(1, self.value)))
        return Scalar(self.field, pow(self.value, self.field.p - 2, self.field.p))

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, (int, Fraction)):
            try:
                return self.value == self.field._raw(other)
            except ZeroDivisionError:
                # a Fraction whose denominator p divides is no element of GF(p)
                return False
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"{self.value}:{self.field}"

    def to_json(self):
        """Rationals as "num/den"-style strings, residues as plain ints."""
        if self.field.kind == KIND_FP:
            return self.value
        return str(self.value)


# -- vectors at the boundary: tuples of Scalars ------------------------------


def _is_json_scalar(x) -> bool:
    """Whether a value read from a JSON file can be a field element: an
    integer or a string (booleans and floats are not)."""
    return isinstance(x, (int, str)) and not isinstance(x, bool)


def zero_vector(field: Field, n: int) -> tuple:
    z = field.zero
    return (z,) * n


def basis_vector(field: Field, n: int, i: int) -> tuple:
    z, o = field.zero, field.one
    return tuple(o if k == i else z for k in range(n))


@lru_cache(maxsize=32)
def _unit_rows(n: int) -> tuple:
    """The raw rows of the n x n identity, shared: 0 and 1 are raw in every
    field."""
    return tuple(tuple(int(k == i) for k in range(n)) for i in range(n))


def enumerate_vectors(field: Field, length: int) -> Iterator[tuple]:
    """All vectors of a given length, lexicographic, first coordinate slowest:
    enumerate_affine from the origin over the unit basis."""
    unit = [basis_vector(field, length, i) for i in range(length)]
    return enumerate_affine(field, zero_vector(field, length), unit)


def _rational(x):
    """The canonical raw form of an int or Fraction: an int when it is
    integral, else the Fraction itself (its denominator is then > 1)."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


def _box(field: Field, values) -> tuple:
    """Scalars of canonical raw values: entries of the field's table when it
    has one, new Scalars otherwise."""
    table = field._table
    if table is None:
        return tuple([Scalar(field, x) for x in values])
    return tuple([table[x] for x in values])


class Matrix:
    """Dense exact matrix; raw is a tuple of row tuples of raw entries,
    canonical rationals over Q and residues in [0, p) over GF(p).

    The public constructors coerce the entries once and every method works on
    raw; only rows, col, cols, entries_flat, mul_vector, nullspace, solve and
    det make Scalars.  Matrix(field, rows) reads the shape off the rows (no
    rows: 0 x 0); zeros, from_cols and every result carry their exact shape.

    Each matrix keeps its RREF once computed.
    """

    __slots__ = ("field", "nrows", "ncols", "raw", "_rref")

    def __init__(self, field: Field, rows):
        self.field = field
        self.raw = tuple(tuple(map(field._raw, row)) for row in rows)
        self.nrows = len(self.raw)
        self.ncols = len(self.raw[0]) if self.raw else 0
        for row in self.raw:
            if len(row) != self.ncols:
                raise DimensionMismatch("ragged rows")
        self._rref = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def _of_raw(cls, field: Field, raw: tuple, ncols: int) -> "Matrix":
        """An ncols-wide matrix from row tuples of raw entries of `field`.

        Nothing is coerced or checked; every result built inside the library
        comes through here with its exact shape, so a matrix with no rows
        keeps its column count.
        """
        m = object.__new__(cls)
        m.field = field
        m.raw = raw
        m.nrows = len(raw)
        m.ncols = ncols
        m._rref = None
        return m

    @classmethod
    def from_cols(cls, field: Field, cols) -> "Matrix":
        nrows = len(cols[0]) if cols else 0
        if any(len(c) != nrows for c in cols):
            raise DimensionMismatch("ragged columns")
        raw = tuple(zip(*(tuple(map(field._raw, c)) for c in cols)))
        return cls._of_raw(field, raw, len(cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._of_raw(field, _unit_rows(n), n)

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls._of_raw(field, ((field.zero.value,) * ncols,) * nrows, ncols)

    # -- accessors: the only places that make Scalars ---------------------------

    @property
    def rows(self) -> tuple:
        return tuple(_box(self.field, row) for row in self.raw)

    def col(self, j: int) -> tuple:
        return _box(self.field, [row[j] for row in self.raw])

    def cols(self) -> list:
        return [self.col(j) for j in range(self.ncols)]

    def entries_flat(self) -> tuple:
        return _box(self.field, [x for row in self.raw for x in row])

    # -- basic algebra -------------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch")

    def _entrywise(self, op, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        raw = tuple(tuple(map(self.field._reduce, map(op, r, s))) for r, s in zip(self.raw, other.raw))
        return Matrix._of_raw(self.field, raw, self.ncols)

    def __add__(self, other):
        return self._entrywise(add, other)

    def __sub__(self, other):
        return self._entrywise(sub, other)

    def __neg__(self):
        raw = tuple(tuple(map(self.field._reduce, map(neg, r))) for r in self.raw)
        return Matrix._of_raw(self.field, raw, self.ncols)

    def __mul__(self, other):
        field = self.field
        if isinstance(other, Matrix):
            if field != other.field:
                raise FieldMismatch(f"{field} vs {other.field}")
            if self.ncols != other.nrows:
                raise DimensionMismatch("inner dimensions differ")
            return Matrix._of_raw(field, _mul_rows(field, self.raw, other.raw, other.ncols), other.ncols)
        c, red = field._raw(other), field._reduce
        return Matrix._of_raw(field, tuple([tuple([red(c * x) for x in r]) for r in self.raw]), self.ncols)

    __rmul__ = __mul__

    def mul_vector(self, v) -> tuple:
        """M v: v coerced into the field, applied by _apply, the result boxed."""
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length != ncols")
        field = self.field
        return _box(field, self._apply(tuple(map(field._raw, v))))

    def _apply(self, x, c=None, y=None) -> tuple:
        """M x of a raw vector of ncols entries, or c*y + M x given a raw c and
        a raw y of nrows entries, raw; nothing is checked.  The sum is
        reduced once per entry."""
        red = self.field._reduce
        if y is None:
            return tuple([red(sum(map(mul, row, x))) for row in self.raw])
        return tuple([red(c * a + sum(map(mul, row, x))) for a, row in zip(y, self.raw)])

    def transpose(self) -> "Matrix":
        raw = tuple(zip(*self.raw)) if self.raw else ((),) * self.ncols
        return Matrix._of_raw(self.field, raw, self.nrows)

    def stack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols or self.field != other.field:
            raise DimensionMismatch("cannot stack")
        return Matrix._of_raw(self.field, self.raw + other.raw, self.ncols)

    def augment(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows or self.field != other.field:
            raise DimensionMismatch("cannot augment")
        raw = tuple(map(tuple.__add__, self.raw, other.raw))
        return Matrix._of_raw(self.field, raw, self.ncols + other.ncols)

    def is_zero(self) -> bool:
        return not any(map(any, self.raw))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.field, self.raw))

    def __repr__(self):
        body = "; ".join(" ".join(map(str, row)) for row in self.raw)
        return f"Matrix[{self.nrows}x{self.ncols} | {body}]"

    # -- elimination ---------------------------------------------------------

    def rref(self) -> tuple:
        """Reduced row echelon form and the strictly increasing pivot columns."""
        if self._rref is None:
            red, pivots = _rref_rows(self.field, self.raw, self.ncols)
            zeros = ((self.field.zero.value,) * self.ncols,) * (self.nrows - len(pivots))
            self._rref = (Matrix._of_raw(self.field, red + zeros, self.ncols), pivots)
        return self._rref

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list:
        """Basis vectors annihilated by the matrix, one per free column."""
        return [_box(self.field, v) for v in self._null_raw()]

    def _null_raw(self) -> list:
        """nullspace's basis as raw tuples."""
        return _null_space_rows(self.field, self.raw, self.ncols)[0]

    def solve(self, b) -> Optional[tuple]:
        """Particular solution of A x = b plus a nullspace basis, or None.

        One null space of (A | -b) gives both: the system is consistent iff
        its last column is free, its vector there is (x, 1), and the vectors
        of the other free columns are A's null basis (x is 0 at those).
        """
        if len(b) != self.nrows:
            raise DimensionMismatch("rhs length != nrows")
        field, n = self.field, self.ncols
        rows = [row + (field._reduce(-field._raw(x)),) for row, x in zip(self.raw, b)]
        basis, free = _null_space_rows(field, rows, n + 1)
        if not free or free[-1] != n:
            return None
        return _box(field, basis.pop()[:n]), [_box(field, v[:n]) for v in basis]

    def det(self) -> Scalar:
        if self.nrows != self.ncols:
            raise DimensionMismatch("determinant of a non-square matrix")
        return self.field._scalar_of(_det_rows(self.field, self.raw))

    def inverse(self) -> Optional["Matrix"]:
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        inv = _inverse_rows(self.field, self.raw)
        return None if inv is None else Matrix._of_raw(self.field, inv, self.nrows)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"entries": [list(map(str, row)) for row in self.raw]}

    @classmethod
    def from_json(cls, field: Field, data) -> "Matrix":
        entries = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(entries, list) or not all(
            isinstance(row, list) and all(map(_is_json_scalar, row)) for row in entries
        ):
            raise FormatError(f"bad matrix record: {data!r}")
        if len(set(map(len, entries))) > 1:
            raise FormatError("ragged rows in matrix record")
        return cls(field, entries)


def _mul_rows(field: Field, rows, other, ncols: int) -> tuple:
    """The raw product of raw rows and the raw rows of an ncols-wide right
    factor, as a tuple of raw rows of ncols.

    Over GF(p) with k (p - 1)^2 < 256, k = len(other) the inner dimension,
    each row of the right factor is packed into one int, a byte per entry,
    and a row of the product is one integer sum of its entries times those
    ints: a byte of that sum adds k products of at most (p - 1)^2, so none
    carries into the next, and translating the sum's bytes through the
    field's table of x mod p reduces the whole row at once (simultaneous
    modular reduction, as in Dumas, Fousse and Salvy, "Simultaneous modular
    reduction and Kronecker substitution for small finite fields", J. Symb.
    Comput. 46, 2011).  That path trusts the raw invariant that every entry
    is a residue in [0, p): a larger entry below 256 would carry silently.
    Every other product is one flat pass over the (row, column) pairs, one
    reduce per entry, cut into rows.
    """
    if not ncols:
        return ((),) * len(rows)
    if len(other) <= field._pack:
        residues = field._residues
        packed = [int.from_bytes(bytes(row), "little") for row in other]
        return tuple([
            tuple(sum(map(mul, row, packed)).to_bytes(ncols, "little").translate(residues))
            for row in rows
        ])
    cols = tuple(zip(*other)) if other else ((),) * ncols
    red = field._reduce
    flat = [red(sum(map(mul, row, col))) for row in rows for col in cols]
    return tuple(zip(*[iter(flat)] * ncols))


# -- elimination on raw rows ----------------------------------------------------


def _rref_rows(field: Field, rows, ncols: int) -> tuple:
    """The nonzero rows of the RREF of raw rows of length ncols, as raw
    tuples, and the pivot columns; the rows given are not changed."""
    if field.kind == KIND_FP:
        rows, pivots = _residue_rref(list(rows), ncols, field.p)
        return tuple(map(tuple, rows[:len(pivots)])), tuple(pivots)
    rows, pivots = _integer_rref(_clear_denominators(rows)[0], ncols)
    return tuple(
        tuple(0 if not x else 1 if x == piv else _rational(Fraction(x, piv)) for x in row)
        for row, piv in ((row, row[pc]) for row, pc in zip(rows, pivots))
    ), tuple(pivots)


def _null_space_rows(field: Field, rows, ncols: int) -> tuple:
    """The null basis of raw rows of length ncols, raw, one vector per free
    column, and the free columns: the canonical basis, 1 at its own free
    column, 0 at the others, the same as read off the RREF.

    The unit vectors are restricted one equation at a time.  Each survivor
    owns a column and is supported on it and on eliminated columns below
    it.  An equation's coefficient on each survivor is one dot product; the
    first survivor with a nonzero one is dropped, its column eliminated, and
    cleared from the later survivors' coefficients, so a dependent equation
    changes no survivor; an all-zero one is skipped before its dot
    products.  Over Q the equations are cleared of denominators and the
    survivors stay integer and primitive; over GF(p) they are residues.  At
    the end each survivor is scaled to 1 at its column.
    """
    p = field.p
    if p is None:
        rows = _clear_denominators(rows)[0]
    free = list(range(ncols))
    # a survivor is zero past its own column, and kept only up to it
    survivors = [[0] * f + [1] for f in free]
    for row in rows:
        if not survivors:
            break
        if not any(row):
            continue
        coeffs = [sum(map(mul, row, s)) for s in survivors]
        if p is not None:
            coeffs = [c % p for c in coeffs]
        k = next((k for k, c in enumerate(coeffs) if c), None)
        if k is None:
            continue
        del free[k]
        pivot, a = survivors.pop(k), coeffs[k]
        width = len(pivot)
        if p is not None:
            inv = pow(a, -1, p)
        for j in range(k, len(survivors)):
            c = coeffs[j + 1]
            if not c:
                continue
            # the pivot is the shorter survivor: past its end s only scales
            s = survivors[j]
            if p is not None:
                f = c * inv % p
                survivors[j] = [(x - f * y) % p for x, y in zip(s, pivot)] + s[width:]
                continue
            if c % a:
                g = gcd(a, c)
                af, cf = a // g, c // g
                s = [af * x - cf * y for x, y in zip(s, pivot)] + [af * x for x in s[width:]]
            else:
                # a divides c: no gcd of the two and no scaling
                q = c // a
                s = [x - q * y for x, y in zip(s, pivot)] + s[width:]
            g = gcd(*s)
            survivors[j] = [x // g for x in s] if g > 1 else s
    basis = []
    for s, f in zip(survivors, free):
        piv, pad = s[f], (0,) * (ncols - 1 - f)
        if p is not None:
            inv = pow(piv, -1, p)
            basis.append(tuple([x * inv % p for x in s]) + pad)
        else:
            basis.append(tuple([0 if not x else 1 if x == piv else _rational(Fraction(x, piv))
                                for x in s]) + pad)
    return basis, tuple(free)


def _inverse_rows(field: Field, rows):
    """The raw rows of the inverse of a square matrix's raw rows, or None
    when it is singular: the right half of the RREF of (A | I)."""
    n = len(rows)
    augmented = [tuple(row) + tuple(int(i == j) for j in range(n)) for i, row in enumerate(rows)]
    red, pivots = _rref_rows(field, augmented, 2 * n)
    if pivots[:n] != tuple(range(n)):
        return None
    return tuple(row[n:] for row in red)


def _det_rows(field: Field, rows):
    """The raw determinant of a square matrix's raw rows, left unchanged."""
    if field.kind == KIND_Q:
        rows, scale = _clear_denominators(rows)
        return _rational(Fraction(_bareiss_det(rows), scale))
    return _residue_det(list(rows), field.p)


class _Echelon:
    """Incremental independence of raw vectors: push(v) reduces v
    fraction-free by the rows kept so far (each zero at the pivots of the
    rows before it), keeps the rest when nonzero and says whether it did;
    pop() drops the last row kept.  rows spans every vector pushed."""

    __slots__ = ("_reduce", "_pivots", "rows")

    def __init__(self, field: Field):
        self._reduce, self._pivots, self.rows = field._reduce, [], []

    def push(self, v) -> bool:
        red = self._reduce
        for pc, row in zip(self._pivots, self.rows):
            c = v[pc]
            if c:
                a = row[pc]
                v = [red(a * x - c * y) for x, y in zip(v, row)]
        for pc, c in enumerate(v):
            if c:
                self._pivots.append(pc)
                self.rows.append(v)
                return True
        return False

    def pop(self):
        self._pivots.pop()
        self.rows.pop()


# -- polynomials, roots and the Frobenius form ------------------------------------
# No trailing zero: the zero polynomial is [] and a monic one ends in 1.


def _power(field: Field, x, e: int):
    """x^e of a raw x, e any int (x != 0 when e < 0)."""
    if field.p is None:
        return _rational(Fraction(x) ** e)
    return pow(x, e, field.p)


def _poly_mul(field: Field, f: list, g: list) -> list:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return list(map(field._reduce, out))


def _poly_divmod(field: Field, f: list, g: list) -> tuple:
    """Quotient and remainder of f by a nonzero g."""
    red, m = field._reduce, len(g) - 1
    lead = _power(field, g[-1], -1)
    r = list(f)
    q = [0] * max(len(f) - m, 0)
    for k in range(len(f) - 1 - m, -1, -1):
        c = q[k] = red(r[k + m] * lead)
        if c:
            for j, b in enumerate(g):
                r[k + j] = red(r[k + j] - c * b)
    r = r[:m]
    while r and not r[-1]:
        r.pop()
    return q, r


def _poly_gcd(field: Field, f: list, g: list) -> list:
    """The monic gcd of f and g, not both zero."""
    while g:
        f, g = g, _poly_divmod(field, f, g)[1]
    lead = _power(field, f[-1], -1)
    return [field._reduce(a * lead) for a in f]


def _poly_apply(field: Field, rows, f: list, v) -> list:
    """f(A) v for the raw rows of a square A and a raw vector v, by Horner."""
    red = field._reduce
    w = [0] * len(v)
    for c in reversed(f):
        w = [red(sum(map(mul, row, w)) + c * x) for row, x in zip(rows, v)]
    return w


def _iroot(n: int, k: int) -> int:
    """The integer part of the k-th root of n >= 0, by Newton's method."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _roots(field: Field, g: int, r) -> tuple:
    """Every raw c with c^g = r, for g >= 1 and a raw r != 0, in increasing
    order.

    Over Q c is a ratio of integer g-th roots, at most two of them.  Over
    GF(p), with e = gcd(g, p - 1), the roots exist iff r^((p-1)/e) = 1; they
    are then the e roots of c^e = r^a, where a inverts g/e modulo (p-1)/e,
    which x^e - r^a splits into by Cantor-Zassenhaus.  No step runs over
    the field's elements, so GF(2^31 - 1) costs O(e^2 log p).  A square
    root (e = 2) takes no split: _sqrt finds it in closed form or by
    Tonelli-Shanks.
    """
    if field.p is None:
        num, den = abs(r.numerator), r.denominator
        a, b = _iroot(num, g), _iroot(den, g)
        if a**g != num or b**g != den or (r < 0 and g % 2 == 0):
            return ()
        c = _rational(Fraction(a if r > 0 else -a, b))
        return (c,) if g % 2 else (-c, c)
    p = field.p
    e = gcd(g, p - 1)
    if pow(r, (p - 1) // e, p) != 1:
        return ()
    s = pow(r, pow(g // e, -1, (p - 1) // e), p)
    if e == 2:
        c = _sqrt(p, s)
        return tuple(sorted((c, p - c)))
    return tuple(sorted(_split_roots(field, [p - s] + [0] * (e - 1) + [1])))


def _sqrt(p: int, s: int) -> int:
    """A square root of a nonzero square s modulo an odd prime p:
    s^((p+1)/4) when p = 3 mod 4, and otherwise Tonelli-Shanks, with the
    first non-square found by Euler's criterion."""
    if p % 4 == 3:
        return pow(s, (p + 1) // 4, p)
    # p - 1 = q 2^k with q odd; z generates the 2-Sylow subgroup
    q, k = p - 1, 0
    while not q & 1:
        q, k = q >> 1, k + 1
    z = pow(next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1), q, p)
    c, t, m = pow(s, (q + 1) // 2, p), pow(s, q, p), k
    while t != 1:
        # the least i with t^(2^i) = 1, then c, t corrected by z^(2^(m-i-1))
        i, u = 0, t
        while u != 1:
            u, i = u * u % p, i + 1
        b = pow(z, 1 << (m - i - 1), p)
        z, m = b * b % p, i
        c, t = c * b % p, t * z % p
    return c


def _split_roots(field: Field, f: list) -> list:
    """The roots of a monic f over GF(p), p odd, that is a product of
    distinct linear factors: gcd(f, (t + a)^((p-1)/2) - 1) splits f for the
    first shift a that separates two roots by their quadratic character."""
    if len(f) == 2:
        return [field._reduce(-f[0])]
    p = field.p
    for a in range(p):
        h, base, k = [1], [a, 1], (p - 1) // 2
        while k:
            if k & 1:
                h = _poly_divmod(field, _poly_mul(field, h, base), f)[1]
            base = _poly_divmod(field, _poly_mul(field, base, base), f)[1]
            k >>= 1
        h[0] = field._reduce(h[0] - 1)
        if h == [0]:
            continue  # (t + a)^((p-1)/2) = 1 at every root
        h = _poly_gcd(field, f, h)
        if 1 < len(h) < len(f):
            return _split_roots(field, h) + _split_roots(field, _poly_divmod(field, f, h)[0])
    raise AssertionError("a product of distinct linear factors always splits")


def _krylov(field: Field, rows, v) -> tuple:
    """v, Av, ..., A^(m-1) v for the raw rows of a square A, up to the first
    power that depends on those before it, and the monic minimal polynomial
    of v: the dependency, read off an echelon that records each reduced
    vector's combination of the powers."""
    red = field._reduce
    echelon, vectors, w = [], [], list(v)
    while True:
        x, comb = w, [0] * len(vectors) + [1]
        for pc, row, rc in echelon:
            c = x[pc]
            if c:
                x = [red(a - c * b) for a, b in zip(x, row)]
                comb = [red(a - c * b) for a, b in zip(comb, rc)] + comb[len(rc):]
        pivot = next((i for i, a in enumerate(x) if a), None)
        if pivot is None:
            return vectors, comb
        inv = _power(field, x[pivot], -1)
        echelon.append((pivot, [red(a * inv) for a in x], [red(a * inv) for a in comb]))
        vectors.append(w)
        w = [red(sum(map(mul, row, w))) for row in rows]


def _maximal_vector(field: Field, rows) -> tuple:
    """A vector of a square A's raw rows whose minimal polynomial is A's
    own, with its Krylov vectors and that polynomial.

    A's minimal polynomial is the lcm of the unit vectors' ones, which v
    takes in one by one.  The lcm of mu (of v) and b (of e) is mu' b' with
    mu' | mu, b' | b coprime, found by moving common factors from mu' to b'
    with no factoring; then (mu/mu')(A) v + (b/b')(A) e has minimal
    polynomial mu' b'."""
    n, red = len(rows), field._reduce
    # the sum of the units first: it is cyclic for a cyclic diagonal A
    v = [1] * n
    krylov, mu = _krylov(field, rows, v)
    for e in ([int(i == j) for j in range(n)] for i in range(n)):
        if len(mu) == n + 1:
            break
        if not any(_poly_apply(field, rows, mu, e)):
            continue
        b = _krylov(field, rows, e)[1]
        common = _poly_gcd(field, mu, b)
        if len(common) > 1:
            # coprime mu' | mu and b' | b with mu' b' = lcm(mu, b)
            mu1, b1 = mu, _poly_divmod(field, b, common)[0]
            while len(common := _poly_gcd(field, mu1, b1)) > 1:
                mu1 = _poly_divmod(field, mu1, common)[0]
                b1 = _poly_mul(field, b1, common)
            v = _poly_apply(field, rows, _poly_divmod(field, mu, mu1)[0], v)
            e = _poly_apply(field, rows, _poly_divmod(field, b, b1)[0], e)
            mu, b = mu1, b1
        v = [red(x + y) for x, y in zip(v, e)]
        mu = _poly_mul(field, mu, b)
        krylov = None
    if krylov is None:
        krylov = _krylov(field, rows, v)[0]
    return krylov, mu


def _frobenius_rows(field: Field, rows) -> tuple:
    """The Frobenius (rational canonical) form of a square A given by raw
    rows: (factors, transform).

    factors are A's invariant factors, monic polynomials (raw coefficients,
    lowest degree first, the leading 1 included) each dividing the next.
    transform is the raw rows of an invertible P whose columns are, block by
    block, v, Av, ..., A^(m-1) v for a v whose minimal polynomial is the
    block's factor, of degree m; so P^-1 A P is block diagonal, each block
    the companion matrix of its factor (ones below the diagonal, the last
    column minus the factor's lower coefficients).

    The textbook cyclic-vector construction: a maximal vector v of A spans
    the cyclic subspace Z of the largest factor; a functional phi with
    phi(A^j v) = [j = m - 1] has the A-invariant complement
    {x : phi(A^i x) = 0 for i < m}, and the construction recurses on it.
    """
    red = field._reduce
    a = rows
    embed = None  # the current subspace's basis in the whole space; None at first
    blocks = []
    while a:
        n = len(a)
        krylov, mu = _maximal_vector(field, a)
        blocks.append((mu, krylov if embed is None else _mul_rows(field, krylov, embed, len(rows))))
        m = len(krylov)
        if m == n:
            break
        # phi solves K phi = e_(m-1), K the Krylov rows: the vector of the
        # last column of (K | -e_(m-1)), which is free, K having full rank
        system = [tuple(x) + (red(-int(j == m - 1)),) for j, x in enumerate(krylov)]
        phi = _null_space_rows(field, system, n + 1)[0][-1][:n]
        functionals = []
        for _ in range(m):
            functionals.append(phi)
            phi = _mul_rows(field, (phi,), a, n)[0]
        null, free = _null_space_rows(field, functionals, n)
        # a null vector's coordinates over this basis are its free entries
        images = [[red(sum(map(mul, row, x))) for row in a] for x in null]
        a = [[image[c] for image in images] for c in free]
        embed = null if embed is None else _mul_rows(field, null, embed, len(rows))
    blocks.reverse()
    factors = tuple(tuple(mu) for mu, _ in blocks)
    columns = [col for _, cols in blocks for col in cols]
    return factors, tuple(zip(*columns)) if columns else ()


# -- elimination kernels: plain ints in, plain ints out -------------------------
# Only _rref_rows, _null_space_rows and _det_rows call these.  Each reorders
# its list and replaces rows without changing them, so it can take a matrix's
# raw rows.


def _clear_denominators(rows) -> tuple:
    """Integer rows from rows of canonical rationals, each row scaled by the
    lcm of its denominators, and the product of those scales; a row of ints
    is copied as it is, with no lcm taken."""
    out = []
    scale = 1
    for row in rows:
        if Fraction not in map(type, row):
            out.append(list(row))
            continue
        den = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (den // v.denominator) for v in row])
        scale *= den
    return out, scale


def _integer_rref(rows: list, ncols: int) -> tuple:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Returns the rows and the pivot columns.  Pivot row i ends as a nonzero
    multiple of row i of the RREF, so dividing it by its entry in pivot
    column i gives that row; the rows past the rank end as zero.  Every
    row is kept primitive (the gcd of its entries is 1).
    """
    for i, row in enumerate(rows):
        g = gcd(*row)
        if g > 1:
            rows[i] = [x // g for x in row]
    nrows = len(rows)
    pivots = []
    pr = 0
    for pc in range(ncols):
        # the smallest pivot keeps the multipliers small; the RREF is the same
        best, best_abs = -1, 0
        for r in range(pr, nrows):
            a = rows[r][pc]
            if a and (best < 0 or abs(a) < best_abs):
                best, best_abs = r, abs(a)
                if best_abs == 1:
                    break
        if best < 0:
            continue
        prow = rows[best]
        rows[best] = rows[pr]
        rows[pr] = prow
        piv = prow[pc]
        for r in range(nrows):
            row = rows[r]
            a = row[pc]
            if a and r != pr:
                if a % piv:
                    g = gcd(piv, a)
                    pf, af = piv // g, a // g
                    row = [pf * x - af * y for x, y in zip(row, prow)]
                else:
                    # the pivot divides a: no gcd of the two and no scaling
                    q = a // piv
                    row = [x - q * y for x, y in zip(row, prow)]
                g = gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return rows, pivots


def _residue_rref(rows: list, ncols: int, p: int) -> tuple:
    """Gauss-Jordan elimination of rows of residues mod p, in place.

    Returns the rows, now the RREF, and the pivot columns.
    """
    nrows = len(rows)
    pivots = []
    pr = 0
    for pc in range(ncols):
        for r in range(pr, nrows):
            if rows[r][pc]:
                break
        else:
            continue
        prow = rows[r]
        rows[r] = rows[pr]
        a = prow[pc]
        if a != 1:
            inv = pow(a, -1, p)
            prow = [x * inv % p for x in prow]
        rows[pr] = prow
        for r in range(nrows):
            row = rows[r]
            a = row[pc]
            if a and r != pr:
                rows[r] = [(x - a * y) % p for x, y in zip(row, prow)]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return rows, pivots


def _bareiss_det(rows: list) -> int:
    """Determinant of a square integer matrix by Bareiss elimination, in place.

    Every division is exact (Sylvester's identity), so the entries stay
    integers no larger than minors of the input.
    """
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n):
        for r in range(k, n):
            if rows[r][k]:
                break
        else:
            return 0
        if r != k:
            rows[r], rows[k] = rows[k], rows[r]
            sign = -sign
        prow = rows[k]
        piv = prow[k]
        for i in range(k + 1, n):
            row = rows[i]
            a = row[k]
            rows[i] = [(piv * x - a * y) // prev for x, y in zip(row, prow)]
        prev = piv
    return sign * prev


def _residue_det(rows: list, p: int) -> int:
    """Determinant mod p of a square matrix of residues, in place."""
    n = len(rows)
    det = 1
    for c in range(n):
        for r in range(c, n):
            if rows[r][c]:
                break
        else:
            return 0
        if r != c:
            rows[r], rows[c] = rows[c], rows[r]
            det = -det
        prow = rows[c]
        det = det * prow[c] % p
        inv = pow(prow[c], -1, p)
        for r in range(c + 1, n):
            row = rows[r]
            if row[c]:
                f = row[c] * inv % p
                rows[r] = [(x - f * y) % p for x, y in zip(row, prow)]
    return det


def span_rref(field: Field, vectors) -> list:
    """Canonical (rref) basis of the span; zero rows dropped."""
    m = Matrix(field, list(vectors))
    return [_box(field, row) for row in _span_rows(field, m.raw, m.ncols)[0]]


def _span_rows(field: Field, rows, ncols: int) -> tuple:
    """The nonzero rows of the RREF of raw rows of length ncols, and their
    pivot columns; no rows, no elimination."""
    if not rows:
        return (), ()
    red, pivots = Matrix._of_raw(field, tuple(rows), ncols).rref()
    return red.raw[:len(pivots)], pivots


def _intersect_rows(field: Field, rows_a, rows_b, ncols: int) -> tuple:
    """RREF rows of span(rows_a) ∩ span(rows_b), raw rows of length ncols.

    The null space of the matrix with columns rows_a and -rows_b gives the
    coefficients over rows_a of the common vectors."""
    if not rows_a or not rows_b:
        return ()
    red = field._reduce
    cols = list(rows_a) + [tuple([red(-x) for x in v]) for v in rows_b]
    m = Matrix._of_raw(field, tuple(zip(*cols)), len(cols))
    # coordinate k of sum_i sol_i a_i; zip stops at the coefficients of rows_a
    coords = tuple(zip(*rows_a))
    common = [tuple([red(sum(map(mul, sol, c))) for c in coords]) for sol in m._null_raw()]
    return _span_rows(field, common, ncols)[0]


def affine_points(p: int, x: tuple, null) -> Iterator[tuple]:
    """x + span(null) on residues mod p, every coefficient over 0..p-1, first
    slowest; each point is the last one plus a null vector."""
    if not null:
        yield x
        return
    v, rest = null[0], null[1:]
    for _ in range(p):
        yield from affine_points(p, x, rest)
        x = tuple((y + z) % p for y, z in zip(x, v))


def enumerate_affine(field: Field, particular, basis) -> Iterator[tuple]:
    """All points particular + span(basis) over a finite field, boxed, in
    affine_points' order; exactly p**len(basis) of them."""
    if not field.is_finite:
        raise NotFinite("point enumeration needs a finite field")
    x = tuple(c.value for c in particular)
    null = [tuple(c.value for c in v) for v in basis]
    for point in affine_points(field.p, x, null):
        yield _box(field, point)

"""Coefficient fields (Q and F_p, p odd) and exact sparse field linear algebra."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import ConfigError, InternalCheckError, PreconditionError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Rationals:
    """The field Q; elements are Fractions."""

    name = "Q"
    char = 0

    def __call__(self, x) -> Fraction:
        return Fraction(x)

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """F_p for an odd prime p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise PreconditionError(f"modulus {p} is not prime")
        if p == 2:
            raise PreconditionError(
                "F_2 coefficients are rejected: 2 must be invertible"
            )
        self.p = p
        self.name = f"F{p}"
        self.char = p
        self.zero = 0
        self.one = 1

    def __call__(self, x) -> int:
        if isinstance(x, Fraction):
            return self(x.numerator) * pow(x.denominator % self.p, -1, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


QQ = Rationals()

Field = Rationals | PrimeField


def parse_field(spec: str) -> Field:
    """Parse 'Q' or 'Fp:<p>' (also accepts 'F<p>')."""
    s = spec.strip()
    if s == "Q":
        return QQ
    digits = s[3:] if s.startswith("Fp:") else s[1:] if s.startswith("F") else ""
    if not digits.isdecimal():
        raise ConfigError(f"unrecognized field spec {spec!r}; use 'Q' or 'Fp:<p>'")
    return PrimeField(int(digits))


@dataclass(frozen=True)
class SparseFieldMatrix:
    """Triplet-style sparse matrix over Q or F_p; no stored zeros."""

    field: Field
    nrows: int
    ncols: int
    entries: dict = dc_field(default_factory=dict)  # (row, col) -> nonzero coeff

    @classmethod
    def from_triplets(cls, field, nrows, ncols, triplets):
        entries = {}
        for r, c, v in triplets:
            v = field(v)
            if (r, c) in entries:
                raise ValueError(f"duplicate entry at ({r}, {c})")
            if v != field.zero:
                entries[r, c] = v
        return cls(field, nrows, ncols, entries)

    @classmethod
    def from_dense(cls, field, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                v = field(v)
                if v != field.zero:
                    entries[i, j] = v
        return cls(field, nrows, ncols, entries)

    def to_dense(self):
        out = [[self.field.zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def matvec(self, v):
        f = self.field
        out = [f.zero] * self.nrows
        for (i, j), a in self.entries.items():
            out[i] = f.add(out[i], f.mul(a, v[j]))
        return out

    def compose(self, other: "SparseFieldMatrix") -> "SparseFieldMatrix":
        """self * other."""
        if self.ncols != other.nrows or self.field != other.field:
            raise InternalCheckError(
                f"cannot compose a {self.nrows}x{self.ncols} {self.field} matrix "
                f"with a {other.nrows}x{other.ncols} {other.field} one"
            )
        f = self.field
        acc: dict = {}
        cols_of = {}
        for (i, j), a in other.entries.items():
            cols_of.setdefault(i, []).append((j, a))
        for (i, k), a in self.entries.items():
            for j, b in cols_of.get(k, []):
                key = (i, j)
                acc[key] = f.add(acc.get(key, f.zero), f.mul(a, b))
        entries = {k: v for k, v in acc.items() if v != f.zero}
        return SparseFieldMatrix(f, self.nrows, other.ncols, entries)

    def is_zero(self) -> bool:
        return not self.entries


class LinearSpan:
    """A row space over a field, kept in reduced row echelon form (RREF).

    This is the one elimination routine of the package.  `rows` maps each
    pivot column to its sparse row {col: coeff}: the pivot is the row's least
    column, with coefficient one, and no other row has an entry in a pivot
    column.  The RREF of a row space is unique, so the stored rows do not
    depend on the order in which vectors were added.
    """

    def __init__(self, field):
        self.field = field
        self.rows: dict = {}

    def add(self, vec: dict) -> bool:
        """Add the sparse vector {col: field element} to the span; True if
        the dimension grew."""
        f = self.field
        v = {c: x for c, x in vec.items() if x}
        rows = self.rows
        # a stored row meets no other pivot column, so one pass reduces v
        for p in [c for c in v if c in rows]:
            _axpy(f, v, f.neg(v[p]), rows[p])
        if not v:
            return False
        q = min(v)
        inv = f.inv(v[q])
        v = {c: f.mul(inv, x) for c, x in v.items()}
        for row in rows.values():
            if q in row:
                _axpy(f, row, f.neg(row[q]), v)
        rows[q] = v
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def _axpy(f, y: dict, a, x: dict):
    """y += a * x on sparse vectors, dropping the entries that cancel."""
    zero = f.zero
    for c, xc in x.items():
        s = f.add(y.get(c, zero), f.mul(a, xc))
        if s:
            y[c] = s
        else:
            y.pop(c, None)


def _row_span(m: SparseFieldMatrix, rhs=None) -> LinearSpan:
    """The span of the rows of m (of [m | rhs] when rhs is given).

    Rows go in sparsest first, which keeps the fill-in down; the RREF, and
    so every result read from it, is the same in any order.
    """
    f = m.field
    rows = [{} for _ in range(m.nrows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    if rhs is not None:
        for row, b in zip(rows, rhs):
            row[m.ncols] = f(b)
    span = LinearSpan(f)
    for row in sorted(rows, key=len):
        span.add(row)
    return span


def rank_kernel(m: SparseFieldMatrix):
    """(rank, kernel basis) of a sparse field matrix; kernel vectors exact.

    The kernel has one vector per free (non-pivot) column c, in increasing
    c: coordinate 1 at c, minus the RREF entries of column c at the pivots.
    """
    f = m.field
    span = _row_span(m)
    free = [c for c in range(m.ncols) if c not in span.rows]
    kernel = {c: [f.zero] * m.ncols for c in free}
    for c in free:
        kernel[c][c] = f.one
    for p, row in span.rows.items():
        for c, x in row.items():
            if c != p:
                kernel[c][p] = f.neg(x)
    return span.rank, [tuple(kernel[c]) for c in free]


def rank(m: SparseFieldMatrix) -> int:
    """Rank of a sparse field matrix."""
    return _row_span(m).rank


def solve(m: SparseFieldMatrix, rhs):
    """One solution x of m*x = rhs, or None if inconsistent.

    The solution is zero on the free columns, and on each pivot column it
    is that RREF row's entry in the rhs column.
    """
    f = m.field
    span = _row_span(m, rhs)
    if m.ncols in span.rows:
        return None
    x = [f.zero] * m.ncols
    for p, row in span.rows.items():
        x[p] = row.get(m.ncols, f.zero)
    return tuple(x)


# ---------------------------------------------------------------------------
# Characteristic polynomials and eigenvalues
# ---------------------------------------------------------------------------

def charpoly(field, dense_rows):
    """Monic characteristic polynomial det(xI - A), low degree first.

    Samuelson-Berkowitz recursion over trailing principal submatrices;
    division-free, so valid over F_p for any p.
    """
    n = len(dense_rows)
    f = field
    a = [[f(x) for x in row] for row in dense_rows]
    if n == 0:
        return (f.one,)
    p = [f.one, f.neg(a[n - 1][n - 1])]  # leading coefficient first
    for i in range(n - 2, -1, -1):
        m = n - i
        top = a[i][i]
        row_r = a[i][i + 1:]
        col_c = [a[j][i] for j in range(i + 1, n)]
        block = [a[j][i + 1:] for j in range(i + 1, n)]
        # Toeplitz column: 1, -top, -R*C, -R*M*C, ..., -R*M^(m-2)*C
        t = [f.one, f.neg(top)]
        vec = col_c
        for _ in range(m - 1):
            t.append(f.neg(_dot(f, row_r, vec)))
            vec = [_dot(f, brow, vec) for brow in block]
        new = [f.zero] * (m + 1)
        for r in range(m + 1):
            acc = f.zero
            for c in range(max(0, r - m), min(r, m - 1) + 1):
                acc = f.add(acc, f.mul(t[r - c], p[c]))
            new[r] = acc
        p = new
    return tuple(reversed(p))


def _dot(f, u, v):
    acc = f.zero
    for x, y in zip(u, v):
        acc = f.add(acc, f.mul(x, y))
    return acc


def poly_eval(field, poly, x):
    acc = field.zero
    for c in reversed(poly):
        acc = field.add(field.mul(acc, x), c)
    return acc


def poly_divide_root(field, poly, root):
    """poly / (x - root), assuming root is a root."""
    f = field
    n = len(poly) - 1
    out = [f.zero] * n
    carry = poly[n]
    for i in range(n - 1, -1, -1):
        out[i] = carry
        carry = f.add(poly[i], f.mul(root, carry))
    if carry != f.zero:
        raise InternalCheckError(f"{root} is not a root: the remainder is {carry}")
    return tuple(out)


def eigenvalues(field, poly):
    """Roots in the field with multiplicities, plus the unfactored remainder.

    Returns (sorted [(root, multiplicity)], remainder_poly or None).
    """
    f = field
    roots: dict = {}
    cur = tuple(poly)
    if isinstance(f, PrimeField):
        candidates = list(range(f.p))
    else:
        candidates = _rational_root_candidates(cur)
    progress = True
    while progress and len(cur) > 1:
        progress = False
        for cand in candidates:
            x = f(cand)
            while len(cur) > 1 and poly_eval(f, cur, x) == f.zero:
                roots[x] = roots.get(x, 0) + 1
                cur = poly_divide_root(f, cur, x)
                progress = True
    remainder = cur if len(cur) > 1 else None
    ordered = sorted(roots.items(), key=lambda r: r[0])
    return ordered, remainder


def _rational_root_candidates(poly):
    """Possible rational roots of a rational polynomial (root theorem)."""
    from math import gcd

    lcm = 1
    for c in poly:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in poly]
    while ints and ints[0] == 0:
        ints = ints[1:]
    if not ints:
        return [Fraction(0)]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(m):
        out = []
        d = 1
        while d * d <= m:
            if m % d == 0:
                out.extend([d, m // d])
            d += 1
        return sorted(set(out))

    cands = {Fraction(0)}
    for p in divisors(a0):
        for q in divisors(an):
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    return sorted(cands)

"""Coefficient fields (Q and F_p, p odd) and exact sparse field linear algebra.

A field element is an int in [0, p) over F_p.  Over Q it is an int when it
is integral and a Fraction only when its denominator is not 1; Python's
numeric tower gives 3 and Fraction(3) the same ==, hash and order, so the
int form changes no result and only makes the arithmetic cheaper.  Code
here builds a Fraction only for a denominator that is not 1.  A field has no
arithmetic of its own: elements are combined with Python's operators and the
result goes through one conversion, the call f(x), which takes ints and
Fractions only.  So a + b*c is f(a + b * c) and -a/2 is f(Fraction(-a, 2))
over either field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .errors import ConfigError, InternalCheckError, PreconditionError


# Miller-Rabin with the first 13 primes as bases has no strong pseudoprime
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p below _MR_BOUND; larger p are
    rejected rather than guessed."""
    if p >= _MR_BOUND:
        raise PreconditionError(f"{p} is too large: primality is decided only below {_MR_BOUND}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field Q.  An element is in canonical form: an int when it is
    integral, a Fraction only when its denominator is not 1.  Arithmetic is
    Python's, and the call QQ(x) puts an int or a Fraction in that form, and
    takes nothing else."""

    name = "Q"
    char = 0

    def __call__(self, x) -> int | Fraction:
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, int):
            return int(x)
        raise TypeError(f"Q converts ints and Fractions, not {type(x).__name__}")

    zero = 0
    one = 1

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """F_p for an odd prime p.  An element is an int in [0, p); arithmetic
    is Python's, and the call F(x) reduces an int or a Fraction into [0, p),
    and takes nothing else."""

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
        p = self.p
        if type(x) is int or isinstance(x, int):
            return x % p
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator % p, -1, p) % p
        raise TypeError(f"{self.name} converts ints and Fractions, not {type(x).__name__}")

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


def coeff_str(x) -> str:
    """An exact field element as text: "a" or "a/b" over Q, and over F_p
    the int in [0, p) that represents it."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class SparseFieldMatrix:
    """Triplet-style sparse matrix over Q or F_p; no stored zeros.

    An entry is a nonzero field element: every reader here combines
    entries with Python's operators and converts the result, and
    `LinearSpan` clears ints and Fractions alike.
    """

    field: Field
    nrows: int
    ncols: int
    entries: dict = dc_field(default_factory=dict)  # (row, col) -> nonzero coeff

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
        if len(v) != self.ncols:
            raise ValueError(f"a {self.nrows}x{self.ncols} matrix takes a vector of length "
                             f"{self.ncols}, got {len(v)}")
        out = [0] * self.nrows
        for (i, j), a in self.entries.items():
            out[i] += a * v[j]
        return [self.field(x) for x in out]

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
                acc[key] = acc.get(key, 0) + a * b
        entries = {k: v for k, x in acc.items() if (v := f(x))}
        return SparseFieldMatrix(f, self.nrows, other.ncols, entries)

    def is_zero(self) -> bool:
        return not self.entries


class LinearSpan:
    """A row space over Q or F_p, kept as int multiples of its reduced row
    echelon form (RREF).

    This is the one field elimination routine of the package (the one
    elimination over Z is `intlinalg.hnf`), and it runs on ints only
    (fraction-free, as in Bareiss, Math. Comp. 22, 1968).  `rows` maps
    each pivot column to its sparse int row {col: int}: the pivot is the
    row's least column, and no other row has an entry in a pivot column.
    Over Q a row is primitive (its entries have gcd 1) with a positive
    pivot; over F_p its entries are residues in [0, p) with pivot 1.  So
    each row is a nonzero int multiple of its RREF row, and `entry` reads
    the RREF back as field elements.  The RREF of a row space is unique, so
    the stored rows do not depend on the order in which vectors were added.

    Both fields take the same step, v <- b*v - a*row, which clears v at the
    row's pivot (a is v's entry there and b the pivot, both divided by their
    gcd; b = 1 over F_p).  The field supplies only the row normalisation:
    the content is divided out over Q, and the row is scaled by the inverse
    of its pivot over F_p.
    """

    def __init__(self, field):
        self.field = field
        self.rows: dict = {}
        self._p = field.char  # 0 over Q

    def _clear(self, vec: dict) -> tuple:
        """(w, d): the nonzero ints w = d * vec, d the lcm of the entries'
        denominators over Q; the residues of vec and d = 1 over F_p."""
        p = self._p
        if p:
            return {c: r for c, x in vec.items() if (r := x % p)}, 1
        d = lcm(*(x.denominator for x in vec.values()))
        return {c: x.numerator * (d // x.denominator) for c, x in vec.items() if x}, d

    def _step(self, v: dict, q: int, row: dict) -> int:
        """v <- b*v - a*row in place, a = v[q] and b = row[q] over their gcd,
        so that v is 0 at q; returns b."""
        p = self._p
        a, b = v[q], row[q]
        g = gcd(a, b)
        a, b = a // g, b // g
        if b != 1:
            for c in v:
                v[c] *= b
        for c, x in row.items():
            y = v.get(c, 0) - a * x
            if p:
                y %= p
            if y:
                v[c] = y
            else:
                v.pop(c, None)
        return b

    def _normalize(self, row: dict, pivot: int) -> dict:
        """The row scaled to its stored form: primitive with a positive
        pivot over Q, pivot 1 over F_p."""
        p = self._p
        if p:
            inv = pow(row[pivot], -1, p)
            return row if inv == 1 else {c: x * inv % p for c, x in row.items()}
        g = gcd(*row.values())
        if row[pivot] < 0:
            g = -g
        return row if g == 1 else {c: x // g for c, x in row.items()}

    def _eliminate(self, v: dict) -> int:
        """Clear the int vector v at every pivot, in place; returns the
        scalar that v was multiplied by.  A stored row meets no other pivot
        column, so one pass does it."""
        rows, scale = self.rows, 1
        for q in [c for c in v if c in rows]:
            scale *= self._step(v, q, rows[q])
        return scale

    def reduce(self, vec: dict) -> dict:
        """The sparse vector {col: field element} minus its multiples of the
        stored rows: equal to vec modulo the span, and zero at every pivot."""
        v, d = self._clear(vec)
        d *= self._eliminate(v)
        if self._p or d == 1:
            return v
        return {c: _ratio(x, d) for c, x in v.items()}

    def add(self, vec: dict) -> bool:
        """Add the sparse vector {col: field element} to the span; True if
        the dimension grew."""
        v = self._clear(vec)[0]
        self._eliminate(v)
        if not v:
            return False
        q = min(v)
        v = self._normalize(v, q)
        rows = self.rows
        for pivot, row in rows.items():
            if q in row:
                self._step(row, q, v)
                rows[pivot] = self._normalize(row, pivot)
        rows[q] = v
        return True

    def entry(self, pivot: int, col: int):
        """The RREF entry, a field element, of the row at `pivot` in column
        `col`."""
        row = self.rows[pivot]
        x = row.get(col, 0)
        return x if self._p else _ratio(x, row[pivot])

    def kernel_vectors(self, columns, ncols: int) -> list:
        """The kernel vectors of the span at the free columns `columns`, in
        that order, as tuples of length ncols.

        The one at c is 1 at c and minus the RREF entry of column c at each
        pivot, so it is 0 at every other free column.
        """
        f = self.field
        kernel = {c: [f.zero] * ncols for c in columns}
        for c, vec in kernel.items():
            vec[c] = f.one
        for p, row in self.rows.items():
            for c in row:
                if c in kernel:
                    kernel[c][p] = f(-self.entry(p, c))
        return [tuple(kernel[c]) for c in columns]

    @property
    def rank(self) -> int:
        return len(self.rows)


def row_span(m: SparseFieldMatrix, rhs=None) -> LinearSpan:
    """The span of the rows of m (of [m | rhs] when rhs is given).

    Rows go in sparsest first, which keeps the fill-in down; the RREF, and
    so every result read from it, is the same in any order.
    """
    f = m.field
    rows = [{} for _ in range(m.nrows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    if rhs is not None:
        if len(rhs) != m.nrows:
            raise ValueError(f"a right-hand side of a {m.nrows}x{m.ncols} matrix has "
                             f"{m.nrows} entries, got {len(rhs)}")
        for row, b in zip(rows, rhs):
            row[m.ncols] = f(b)
    span = LinearSpan(f)
    for row in sorted(rows, key=len):
        span.add(row)
    return span


def rank_kernel(m: SparseFieldMatrix):
    """(rank, kernel basis) of a sparse field matrix; kernel vectors exact.

    The kernel has one vector per free (non-pivot) column, in increasing
    column order, read off the RREF by `LinearSpan.kernel_vectors`.
    """
    span = row_span(m)
    free = [c for c in range(m.ncols) if c not in span.rows]
    return span.rank, span.kernel_vectors(free, m.ncols)


def solve(m: SparseFieldMatrix, rhs):
    """One solution x of m*x = rhs, or None if inconsistent.

    The solution is zero on the free columns, and on each pivot column it
    is that RREF row's entry in the rhs column.
    """
    f = m.field
    span = row_span(m, rhs)
    if m.ncols in span.rows:
        return None
    x = [f.zero] * m.ncols
    for p in span.rows:
        x[p] = span.entry(p, m.ncols)
    return tuple(x)


# ---------------------------------------------------------------------------
# Characteristic polynomials and eigenvalues
# ---------------------------------------------------------------------------

def charpoly(field, dense_rows):
    """Monic characteristic polynomial det(xI - A), low degree first.

    The Samuelson-Berkowitz recursion is division-free, so it runs on
    Python ints (`_berkowitz`).  Over F_p the entries are ints in [0, p) and
    the recursion reduces mod p as it goes.  Over Q it runs on B = d*A, d
    the lcm of the entries' denominators: det(xI - A) = d^-n det(dxI - B),
    so coefficient k of det(xI - A) is coefficient k of det(xI - B) divided
    by d^(n-k).  `eigenvalues` clears these denominators again, and finds
    and divides out the roots on ints as well.
    """
    rows = [[field(x) for x in row] for row in dense_rows]
    if isinstance(field, PrimeField):
        return tuple(reversed(_berkowitz(rows, field.p)))
    d = lcm(*(x.denominator for row in rows for x in row))
    lead_first = _berkowitz([_clear(d, row) for row in rows], None)
    # entry k of lead_first is the coefficient of x^(n-k): divide it by d^k
    return tuple(reversed([_ratio(c, d**k) for k, c in enumerate(lead_first)]))


def _berkowitz(a, p: int | None):
    """det(xI - a) of a square int matrix, leading coefficient first;
    reduced into [0, p) when p is given.

    Runs over the trailing principal submatrices a[i:, i:], i = n-1 .. 0.
    With top = a[i][i], R the rest of row i, C the rest of column i and M
    the trailing block a[i+1:, i+1:], the char poly of a[i:, i:] is the
    Toeplitz column 1, -top, -R*C, -R*M*C, .., -R*M^(m-2)*C (m = n - i)
    convolved with the char poly of M.
    """
    n = len(a)
    poly = [1]
    for i in range(n - 1, -1, -1):
        row_r = a[i][i + 1:]
        block = [r[i + 1:] for r in a[i + 1:]]
        vec = [r[i] for r in a[i + 1:]]
        t = [1, -a[i][i]]
        for k in range(n - 1 - i):
            if k:
                vec = [sum(map(mul, r, vec)) for r in block]
                if p:
                    vec = [x % p for x in vec]
            t.append(-sum(map(mul, row_r, vec)))
        acc = [0] * len(t)
        for c, x in enumerate(poly):  # acc = t convolved with poly
            if x:
                for j in range(len(t) - c):
                    acc[c + j] += t[j] * x
        poly = acc
        if p:
            poly = [x % p for x in poly]
    return poly


def eigenvalues(field, poly):
    """Roots in the field with multiplicities, plus the unfactored remainder.

    Returns (sorted [(root, multiplicity)], remainder_poly or None).

    Roots are found and divided out on ints.  Over Q the scan runs on the
    monic int polynomial h(y) = D^n g(y/D) / a_n of `_rational_root_candidates`
    (g = d*f for d the lcm of the denominators, a_n its leading
    coefficient), whose candidates are ints y, each standing for the root
    y/D.  Over F_p it runs on f's residues, and the candidates are the roots
    of gcd(f, x^p - x), the product of f's distinct linear factors
    (`_fp_roots`).  A candidate is tested by an int Horner loop (mod p over
    F_p) and divided out by exact synthetic division (`_deflate`) as often
    as it is a root before the scan moves on.  So one pass finds every
    root: each later polynomial divides the one a candidate was last tested
    on, and a candidate that is not a root of it is not a root of any later
    one.  Over Q the roots y/D and the remainder, which keeps f's leading
    coefficient, are put in canonical form by `_ratio`.
    """
    ints = _int_poly(field, poly)
    if isinstance(field, PrimeField):
        p, d, h, candidates = field.p, 1, ints, _fp_roots(ints, field.p)
    else:
        p, (h, d, candidates) = None, _rational_root_candidates(ints)
    roots = []
    for y in candidates:
        if len(h) < 2:
            break
        mult = 0
        while len(h) > 1 and _horner(h, y, p) == 0:
            mult += 1
            h = _deflate(h, y, p)
        if mult:
            roots.append((y, mult))
    if p:
        return roots, tuple(h) if len(h) > 1 else None
    roots = [(_ratio(y, d), mult) for y, mult in roots]
    if len(h) < 2:
        return roots, None
    # f = lead * D^-m r(Dx) * prod (x - y_i/D), r = the deflated h, of degree m
    lead, m = poly[-1], len(h) - 1
    return roots, tuple(_ratio(lead.numerator * c, lead.denominator * d ** (m - j))
                        for j, c in enumerate(h))


def _horner(h, y: int, p: int | None) -> int:
    """h(y) for the int polynomial h (low degree first); mod p when p is
    given."""
    acc = 0
    for c in reversed(h):
        acc = acc * y + c
    return acc % p if p else acc


def _deflate(h, y: int, p: int | None) -> list:
    """h / (x - y) for the int polynomial h (low degree first) and its int
    root y, by synthetic division on ints, mod p when p is given; the
    quotient keeps h's leading coefficient, zero or not."""
    out = [0] * (len(h) - 1)
    carry = h[-1]
    for i in range(len(h) - 2, -1, -1):
        out[i] = carry
        carry = h[i] + y * carry
        if p:
            carry %= p
    if carry:
        raise InternalCheckError(f"{y} is not a root: the remainder is {carry}")
    return out


def _fp_roots(ints, p: int) -> list:
    """The distinct roots in F_p of a polynomial (ints mod p, low degree
    first), ascending; [0] for the zero polynomial.

    g = gcd(f, x^p - x) is the product of f's distinct linear factors, with
    x^p taken by repeated squaring mod f.  A factor of g with several roots
    is split by gcd(g, (x + a)^((p-1)/2) - 1), which keeps the roots r with
    r + a a nonzero square, for a = 0, 1, ... until one splits it (Cantor
    and Zassenhaus, Math. Comp. 36, 1981, with deterministic shifts).  Two
    roots r != s are split by some a < p: (r + a)/(s + a) is a non-square
    for (p - 1)/2 values of a, and then just one of r + a, s + a is a
    square.
    """
    f = _poly_trim(list(ints))
    if not f:
        return [0]
    x = [0, 1]
    g = _poly_gcd(f, _poly_sub(_poly_powmod(x, p, f, p), x, p), p)
    roots, todo = [], [g]
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)  # g is monic
            continue
        if len(g) < 2:
            continue
        for a in range(p):
            h = _poly_gcd(g, _poly_sub(_poly_powmod([a, 1], (p - 1) // 2, g, p), [1], p), p)
            if 1 < len(h) < len(g):
                todo += [h, _poly_divmod(g, h, p)[0]]
                break
        else:
            raise InternalCheckError(f"no shift splits {g} over F_{p}")
    return sorted(roots)


def _poly_trim(a: list) -> list:
    """a without its zero leading coefficients (low degree first)."""
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_sub(a: list, b: list, p: int) -> list:
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _poly_trim(out)


def _poly_divmod(a: list, b: list, p: int) -> tuple:
    """(quotient, remainder) of trimmed polynomials mod p, b != 0."""
    rem = list(a)
    inv = pow(b[-1], -1, p)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(b) - 1] * inv % p
        quo[i] = c
        if c:
            for j, bj in enumerate(b):
                rem[i + j] = (rem[i + j] - c * bj) % p
    return _poly_trim(quo), _poly_trim(rem[:len(b) - 1])


def _poly_powmod(base: list, e: int, m: list, p: int) -> list:
    """base^e mod m, by repeated squaring."""
    out, base = [1], _poly_divmod(base, m, p)[1]
    while e:
        if e & 1:
            out = _poly_divmod(_poly_mul(out, base, p), m, p)[1]
        e >>= 1
        if e:
            base = _poly_divmod(_poly_mul(base, base, p), m, p)[1]
    return out


def _poly_mul(a: list, b: list, p: int) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


def _poly_gcd(a: list, b: list, p: int) -> list:
    """The monic gcd of two polynomials mod p ([] when both are 0)."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _int_poly(field, poly):
    """The int coefficients of a field polynomial: the elements themselves
    over F_p, the polynomial times the lcm of its denominators over Q."""
    if isinstance(field, PrimeField):
        return [field(c) for c in poly]
    return _clear(lcm(*(c.denominator for c in poly)), poly)


def _ratio(x: int, d: int):
    """The element x/d of Q in canonical form: the int x // d when d divides
    x, else the Fraction."""
    return x // d if x % d == 0 else Fraction(x, d)


def _clear(d: int, values) -> list:
    """The ints d*x for ints and Fractions x whose denominators divide d."""
    return [x.numerator * (d // x.denominator) for x in values]


def _rational_root_candidates(ints):
    """(h, D, candidates) for an int polynomial g, low degree first: each
    rational root of g is y/D for an int root y of h, and candidates lists
    ints, ascending, that include every int root of h.

    With x = y/D, h(y) = D^n g(y/D) / a_n is monic with int coefficients
    for the D built below (a divisor of a_n; D = 1 when g is monic).  A
    rational root x of g gives the int root y = D x of h, so y = 0 or y
    divides the lowest nonzero coefficient of h, and |y| is at most
    Fujiwara's bound B = 2 max_k |h_(n-k)|^(1/k), each term rounded up to
    an int (and h_0 not halved) so that no root is lost.  The divisors are
    trial-divided only up to B.  The zero polynomial is its own h, with
    D = 1 and the one candidate 0.
    """
    if not any(ints):
        return list(ints), 1, [0]
    n, an = len(ints) - 1, ints[-1]
    d = 1
    for i in reversed(range(n)):  # make an divide ints[i] * d^(n-i)
        d *= abs(an) // gcd(ints[i] * d ** (n - i), an)
    h = [c * d ** (n - i) // an for i, c in enumerate(ints)]
    bound = 2 * max((_root_ceil(abs(h[n - k]), k) for k in range(1, n + 1)), default=0)
    low = next(c for c in h if c)
    cands = {0}
    for y in _divisors(abs(low), bound):
        cands.add(y)
        cands.add(-y)
    return h, d, sorted(cands)


def _root_ceil(a: int, k: int) -> int:
    """The least int t >= 0 with t^k >= a."""
    lo, hi = 0, 1 << -(-a.bit_length() // k)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k >= a:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _divisors(m: int, limit: int) -> set:
    """The divisors d <= limit of m >= 1, by trial division up to
    min(limit, sqrt(m))."""
    out = set()
    for d in range(1, min(limit, isqrt(m)) + 1):
        if m % d == 0:
            out.add(d)
            if m // d <= limit:
                out.add(m // d)
    return out

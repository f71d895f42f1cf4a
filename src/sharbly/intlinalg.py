"""Exact integer linear algebra: normal forms, determinants, short vectors.

Everything here works with arbitrary-precision Python ints and nothing
else: no Fractions and no floating point.  Matrices are immutable tuples
of row tuples; vectors are tuples of ints.  There is one unimodular
elimination, the row Hermite normal form `hnf`; `snf` and `reduce_to_e1`
read their results off it.
"""

from __future__ import annotations

from itertools import product
from math import gcd, isqrt
from operator import mul

from .errors import InternalCheckError

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]


def freeze(rows) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    """a * b; ValueError when a row of a does not match b's row count."""
    for row in a:
        if len(row) != len(b):
            raise ValueError(f"a row of length {len(row)} times a matrix of {len(b)} rows")
    cols = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def vec_mat(v: Vec, a: Mat) -> Vec:
    """The row vector v * a; ValueError when len(v) is not a's row count."""
    if len(v) != len(a):
        raise ValueError(f"a vector of length {len(v)} times a matrix of {len(a)} rows")
    return tuple([sum(map(mul, v, col)) for col in zip(*a)])


def mat_neg(a: Mat) -> Mat:
    return tuple(tuple(-x for x in row) for row in a)


def det(a: Mat) -> int:
    """Determinant: the closed form at 2 x 2, else fraction-free
    (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise InternalCheckError("det needs a square matrix")
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minor(a: Mat, i: int, j: int) -> Mat:
    return tuple(
        tuple(row[jj] for jj in range(len(a)) if jj != j)
        for ii, row in enumerate(a)
        if ii != i
    )


def first_column_cofactors(a: Mat) -> Vec:
    """Row 0 of adj(a): the cofactors of a's first column.

    For det a = 1 this is e_1 * a^{-1}, the coset point of a.
    """
    rest = [row[1:] for row in a]
    return tuple((-1) ** j * det(rest[:j] + rest[j + 1:]) for j in range(len(a)))


def adjugate(a: Mat) -> Mat:
    """adj(a) with a * adj(a) = det(a) * I: the closed form at 2 x 2, else
    the transposed cofactors."""
    n = len(a)
    if n == 2:
        (p, q), (r, s) = a
        return ((s, -q), (-r, p))
    cof = [
        [(-1) ** (i + j) * det(_minor(a, i, j)) for j in range(n)] for i in range(n)
    ]
    return tuple(tuple(cof[j][i] for j in range(n)) for i in range(n))


def inverse_unimodular(a: Mat) -> Mat:
    """Inverse of a matrix with det = ±1 (exact, integral)."""
    d = det(a)
    if d not in (1, -1):
        raise ValueError(f"matrix has det {d}, not unimodular")
    adj = adjugate(a)
    if d == 1:
        return adj
    return mat_neg(adj)


def is_symmetric(a: Mat) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and all(
        a[i][j] == a[j][i] for i in range(n) for j in range(i)
    )


def is_positive_definite(a: Mat) -> bool:
    """Symmetric + all leading principal minors > 0."""
    if not is_symmetric(a):
        return False
    n = len(a)
    return all(det(tuple(row[: k + 1] for row in a[: k + 1])) > 0 for k in range(n))


def content(v: Vec) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def sign_normalize(v: Vec) -> Vec:
    """Flip sign so the first nonzero coordinate is positive."""
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return tuple(-y for y in v)
    raise ValueError("zero vector has no sign normalization")


def primitivize(v: Vec) -> Vec:
    """Divide by the content and sign-normalize."""
    g = content(v)
    if g == 0:
        raise ValueError("zero vector")
    return sign_normalize(tuple(x // g for x in v))


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms
# ---------------------------------------------------------------------------

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _elim_block(a: int, b: int) -> tuple[int, int, int, int]:
    """Unimodular (x, y, z, w) with (x*a + y*b, z*a + w*b) = (gcd, 0).

    Guarantees x = 1, y = 0 when a divides b, so repeated elimination makes
    progress instead of cycling through Bezout row swaps.
    """
    if a != 0 and b % a == 0:
        return 1, 0, -(b // a), 1
    if a == 0:
        s = 1 if b >= 0 else -1
        return 0, s, 1, 0
    g, x, y = _xgcd(a, b)
    return x, y, -(b // g), a // g


def hnf(a: Mat) -> tuple[Mat, Mat]:
    """Row Hermite normal form.

    Returns (H, U) with U*a = H, |det U| = 1, H upper echelon with positive
    pivots and entries above each pivot reduced into [0, pivot).
    """
    m = len(a)
    n = len(a[0]) if m else 0
    h = [list(row) for row in a]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def rowop(i1, i2, x, y, z, w):
        # (rows i1, i2) <- (x*r1 + y*r2, z*r1 + w*r2); x*w - y*z = +-1
        h[i1], h[i2] = (
            [x * p + y * q for p, q in zip(h[i1], h[i2])],
            [z * p + w * q for p, q in zip(h[i1], h[i2])],
        )
        u[i1], u[i2] = (
            [x * p + y * q for p, q in zip(u[i1], u[i2])],
            [z * p + w * q for p, q in zip(u[i1], u[i2])],
        )

    row = 0
    for col in range(n):
        # clear below (row, col)
        pivot = None
        for i in range(row, m):
            if h[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != row:
            h[row], h[pivot] = h[pivot], h[row]
            u[row], u[pivot] = u[pivot], u[row]
        for i in range(row + 1, m):
            if h[i][col] == 0:
                continue
            x, y, z, w = _elim_block(h[row][col], h[i][col])
            rowop(row, i, x, y, z, w)
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            u[row] = [-x for x in u[row]]
        for i in range(row):
            q = h[i][col] // h[row][col]
            if q:
                h[i] = [p - q * r for p, r in zip(h[i], h[row])]
                u[i] = [p - q * r for p, r in zip(u[i], u[row])]
        row += 1
        if row == m:
            break
    return tuple(map(tuple, h)), tuple(map(tuple, u))


def snf(a: Mat) -> tuple[int, ...]:
    """Nonzero elementary divisors d1 | d2 | ... of an integer matrix.

    Row HNFs of a and of its transpose alternate until no off-diagonal
    entry is nonzero.  This ends: once a pass meets a nonzero first
    column, the (0, 0) entry is a positive int that can only shrink, as
    each pass makes it the gcd of its column; once it divides its row and
    column, those are cleared and stay clear, because _elim_block(a, b)
    with a | b is (1, 0, -b/a, 1) and the reduce-above steps see zeros.
    The lower right block then runs the same argument.  The |diagonal| is
    put in divisor order by replacing each pair with (gcd, lcm).
    """
    d = a
    while any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
        d = tuple(zip(*hnf(d)[0]))
    divisors = [abs(row[i]) for i, row in enumerate(d) if i < len(row) and row[i]]
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            g = gcd(divisors[i], divisors[j])
            divisors[i], divisors[j] = g, divisors[i] * divisors[j] // g
    return tuple(divisors)


def reduce_to_e1(v: Vec) -> Mat:
    """gamma in SL(n,Z) with v * gamma = e_1, for a primitive v; ValueError
    when there is none (v is not primitive, or v = (-1,)).

    gamma is U^T for the HNF U * v^T = e_1^T of the column v^T, with its
    last column negated when det U = -1; row 0 of gamma^{-1} is then v.
    """
    v = tuple(int(x) for x in v)
    if content(v) != 1:
        raise ValueError(f"{v} is not primitive")
    n = len(v)
    h, u = hnf(tuple((x,) for x in v))
    if h != ((1,),) + ((0,),) * (n - 1):
        raise InternalCheckError(f"the HNF of the column {v} is not e_1")
    if det(u) == -1:  # v * (last column) = 0, so negating it keeps v * gamma = e_1
        if n == 1:  # the last column is the first: SL(1,Z) = {1}
            raise ValueError(f"no gamma in SL(1,Z) has {v} * gamma = e_1")
        u = u[:-1] + (tuple(-x for x in u[-1]),)
    return tuple(zip(*u))


# ---------------------------------------------------------------------------
# Short vector enumeration (the ellipsoid's exact bounding box)
# ---------------------------------------------------------------------------

def quadratic_value(g: Mat, v: Vec) -> int:
    """v * g * v^T for a row vector v."""
    n = len(v)
    return sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n))


def short_vectors(g: Mat, bound: int) -> list[Vec]:
    """All v != 0 with v*g*v^T <= bound, one per +-pair, sign-normalized,
    sorted lexicographically.

    Walks the box |v_i| <= isqrt(bound * adj(g)_ii // det g): the exact
    bounding box of the ellipsoid, whose widest point along e_i is
    v_i^2 = bound * (g^{-1})_ii and (g^{-1})_ii = adj(g)_ii / det g.
    A tuple beats the zero tuple exactly when its first nonzero coordinate
    is positive, and the box is walked in lexicographic order.
    """
    if not is_positive_definite(g):
        raise ValueError("form is not positive definite")
    if bound < 0:
        return []
    n = len(g)
    d = det(g)
    box = [isqrt(bound * det(_minor(g, i, i)) // d) for i in range(n)]
    zero = (0,) * n
    return [
        v
        for v in product(*(range(-r, r + 1) for r in box))
        if v > zero and quadratic_value(g, v) <= bound
    ]

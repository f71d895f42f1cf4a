"""Exact integer linear algebra: normal forms, determinants, short vectors.

Everything here works with arbitrary-precision Python ints (and Fractions
for the few internally rational steps).  Matrices are immutable tuples of
row tuples; vectors are tuples of ints.  No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, isqrt

from .errors import InternalCheckError

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]


def freeze(rows) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(m: int, n: int) -> Mat:
    return tuple(tuple(0 for _ in range(n)) for _ in range(m))


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def vec_mat(v: Vec, a: Mat) -> Vec:
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0])))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def mat_neg(a: Mat) -> Mat:
    return tuple(tuple(-x for x in row) for row in a)


def det(a: Mat) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise InternalCheckError("det needs a square matrix")
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


def adjugate(a: Mat) -> Mat:
    """adj(a) with a * adj(a) = det(a) * I."""
    n = len(a)
    if n == 1:
        return ((1,),)
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
    return freeze(h), freeze(u)


def snf(a: Mat) -> tuple[int, ...]:
    """Nonzero elementary divisors d1 | d2 | ... of an integer matrix."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]

    def find_pivot(k):
        for i in range(k, m):
            for j in range(k, n):
                if d[i][j]:
                    return i, j
        return None

    divisors = []
    k = 0
    while k < min(m, n):
        pos = find_pivot(k)
        if pos is None:
            break
        i0, j0 = pos
        d[k], d[i0] = d[i0], d[k]
        for r in d:
            r[k], r[j0] = r[j0], r[k]
        while True:
            # clear column k
            for i in range(k + 1, m):
                if d[i][k]:
                    x, y, z, w = _elim_block(d[k][k], d[i][k])
                    d[k], d[i] = (
                        [x * s + y * t for s, t in zip(d[k], d[i])],
                        [z * s + w * t for s, t in zip(d[k], d[i])],
                    )
            # clear row k
            changed = False
            for j in range(k + 1, n):
                if d[k][j]:
                    x, y, z, w = _elim_block(d[k][k], d[k][j])
                    for r in d:
                        r[k], r[j] = x * r[k] + y * r[j], z * r[k] + w * r[j]
                    changed = True
            if not changed and all(d[i][k] == 0 for i in range(k + 1, m)):
                break
        # enforce divisibility of the remaining block by d[k][k]
        piv = abs(d[k][k])
        bad = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if d[i][j] % piv:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            d[k] = [s + t for s, t in zip(d[k], d[bad])]
            continue
        divisors.append(piv)
        k += 1
    return tuple(divisors)


def complete_to_sl(v: Vec) -> Mat:
    """An SL(n,Z) matrix whose first row is the primitive vector v."""
    v = tuple(int(x) for x in v)
    if content(v) != 1:
        raise ValueError(f"{v} is not primitive")
    n = len(v)
    if n == 1:
        return ((1,),)
    # Find W in GL(n,Z) with v*W = e1; then W^{-1} has first row v.
    w = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cur = list(v)

    def colop(j1, j2, x, y, z, t):
        for r in [cur, *w]:
            r[j1], r[j2] = x * r[j1] + y * r[j2], z * r[j1] + t * r[j2]

    for j in range(1, n):
        if cur[j] == 0:
            continue
        e1, e2, e3, e4 = _elim_block(cur[0], cur[j])
        colop(0, j, e1, e2, e3, e4)
    if cur[0] == -1:
        cur[0] = 1
        for r in w:
            r[0] = -r[0]
    if cur != [1] + [0] * (n - 1):
        raise InternalCheckError(f"column reduction of {v} did not reach e_1")
    winv = inverse_unimodular(freeze(w))
    if det(winv) == -1:
        winv = winv[:-1] + (tuple(-x for x in winv[-1]),)
    if det(winv) != 1 or winv[0] != v:
        raise InternalCheckError(f"completion of {v} is not in SL(n,Z) with first row {v}")
    return winv


# ---------------------------------------------------------------------------
# Short vector enumeration (Fincke-Pohst with exact rational Cholesky)
# ---------------------------------------------------------------------------

def _rational_cholesky(g: Mat) -> list[list[Fraction]]:
    """q with Q(x) = sum_i q[i][i] * (x_i + sum_{j>i} q[i][j] x_j)^2."""
    n = len(g)
    q = [[Fraction(g[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]
    for i in range(n):
        for j in range(i):
            q[i][j] = Fraction(0)
    return q


def _floor_sqrt(f: Fraction) -> int:
    """floor(sqrt(f)) for f >= 0, exact."""
    if f < 0:
        raise ValueError("negative argument")
    r = isqrt(f.numerator // f.denominator)
    while (r + 1) * (r + 1) <= f:
        r += 1
    while r * r > f:
        r -= 1
    return r


def quadratic_value(g: Mat, v: Vec) -> int:
    """v * g * v^T for a row vector v."""
    n = len(v)
    return sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n))


def short_vectors(g: Mat, bound: int) -> list[Vec]:
    """All v != 0 with v*g*v^T <= bound, one per +-pair, sign-normalized.

    Exhaustive recursive enumeration over the exact rational Cholesky
    decomposition; output sorted lexicographically.
    """
    if not is_positive_definite(g):
        raise ValueError("form is not positive definite")
    if bound < 0:
        return []
    n = len(g)
    q = _rational_cholesky(g)
    found: list[Vec] = []
    x = [0] * n

    def recurse(i: int, remaining: Fraction):
        if i < 0:
            if any(x):
                v = tuple(x)
                found.append(v)
            return
        # q[i][i] * (x_i + r)^2 <= remaining, r = sum_{j>i} q[i][j] x_j
        r = sum((q[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        s = _floor_sqrt(remaining / q[i][i])
        lo = -s - r
        hi = s - r
        lo_i = math.ceil(lo)
        hi_i = math.floor(hi)
        # guard against rounding at the boundary of the exact interval
        while q[i][i] * (lo_i - 1 + r) ** 2 <= remaining:
            lo_i -= 1
        while q[i][i] * (lo_i + r) ** 2 > remaining and lo_i <= hi_i:
            lo_i += 1
        while q[i][i] * (hi_i + 1 + r) ** 2 <= remaining:
            hi_i += 1
        while q[i][i] * (hi_i + r) ** 2 > remaining and hi_i >= lo_i:
            hi_i -= 1
        for xi in range(lo_i, hi_i + 1):
            x[i] = xi
            recurse(i - 1, remaining - q[i][i] * (xi + r) ** 2)
        x[i] = 0

    recurse(n - 1, Fraction(bound))
    out = sorted({sign_normalize(v) for v in found})
    return out

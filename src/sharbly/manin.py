"""Independent classical modular-symbol oracle for n = 2 (weight 2).

Manin symbols over P^1(Z/N) with the standard two- and three-term
relations, and Hecke operators through Merel's matrix family.  This is
deliberately a self-contained implementation (its own P^1 normal form and
relation bookkeeping) so that agreement with the Voronoi pipeline is
evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import PreconditionError
from .fields import QQ, charpoly


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _lift_unit(n: int, d: int, a: int) -> int:
    """Lift a unit a mod d (d | n) to a unit mod n."""
    u, v = 1, n
    g = gcd(v, d)
    while g > 1:
        u *= g
        v //= g
        g = gcd(v, g)
    _, x, y = _xgcd(u, v)
    return (u * x + a * y * v) % n


class P1:
    """P^1(Z/N) with Stein-style canonical representatives."""

    def __init__(self, n_mod: int):
        if n_mod < 1:
            raise PreconditionError("level must be >= 1")
        self.n_mod = n_mod
        pts = set()
        for u in range(n_mod):
            for v in range(n_mod):
                r = self.reduce((u, v))
                if r is not None:
                    pts.add(r)
        if n_mod == 1:
            pts = {(0, 0)}
        self._list = sorted(pts)
        self._index = {p: i for i, p in enumerate(self._list)}

    def __len__(self):
        return len(self._list)

    def __iter__(self):
        return iter(self._list)

    def reduce(self, pair):
        """Canonical form of (u, v), or None when not unimodular mod N."""
        n = self.n_mod
        if n == 1:
            return (0, 0)
        u, v = pair[0] % n, pair[1] % n
        if u == 0:
            return (0, 1) if gcd(v, n) == 1 else None
        g, s, _ = _xgcd(u, n)
        if gcd(g, v) > 1:
            return None
        s = _lift_unit(n, n // g, s % (n // g))
        u, v = g, (s * v) % n
        if g == 1:
            return (1, v)
        v = min((v * t) % n for t in range(1, n, n // g) if gcd(n, t) == 1)
        return (g, v)

    def index(self, pair) -> int:
        r = self.reduce(pair)
        if r is None:
            raise ValueError(f"{pair} is not unimodular mod {self.n_mod}")
        return self._index[r]


SIGMA = ((0, -1), (1, 0))
TAU = ((0, -1), (1, -1))


def _act(pair, mat):
    (a, b), (c, d) = mat
    return (a * pair[0] + c * pair[1], b * pair[0] + d * pair[1])


@dataclass
class ManinSpace:
    """Weight-2 Manin symbol space for Gamma_0(N) over Q."""

    n_mod: int

    def __post_init__(self):
        self.p1 = P1(self.n_mod)
        ngen = len(self.p1)
        rows = []
        for i, x in enumerate(self.p1):
            row = [Fraction(0)] * ngen
            row[i] += 1
            row[self.p1.index(_act(x, SIGMA))] += 1
            rows.append(row)
            row = [Fraction(0)] * ngen
            row[i] += 1
            row[self.p1.index(_act(x, TAU))] += 1
            row[self.p1.index(_act(_act(x, TAU), TAU))] += 1
            rows.append(row)
        pivots, echelon = _rref(rows)
        self.free = [j for j in range(ngen) if j not in pivots]
        # expression of each generator in the free basis
        expr = [[Fraction(0)] * ngen for _ in range(len(self.free))]
        for r, col in enumerate(pivots):
            for out_row, j in enumerate(self.free):
                expr[out_row][col] = -echelon[r][j]
        for out_row, col in enumerate(self.free):
            expr[out_row][col] = Fraction(1)
        self._expr = expr

    def dim(self) -> int:
        return len(self.free)

    def project(self, gen_index: int):
        """Coordinates of a generator in the free quotient basis."""
        return [row[gen_index] for row in self._expr]


def _rref(rows):
    work = [row[:] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return pivots, work[: len(pivots)]


def merel_matrices(n: int):
    """Merel's family X_n of integer matrices of determinant n."""
    out = []
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    out.append(((a, b), (0, d)))
                for c in range(1, d):
                    out.append(((a, 0), (c, d)))
            else:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        out.append(((a, b), (bc // b, d)))
    return out


def manin_dim(n_mod: int) -> int:
    """Dimension of the weight-2 modular symbol space for Gamma_0(N)."""
    return ManinSpace(n_mod).dim()


def manin_hecke(n_mod: int, ell: int):
    """(matrix, characteristic polynomial) of T_ell on the Manin quotient."""
    if n_mod % ell == 0:
        raise PreconditionError(f"T_{ell} at level {n_mod}: ell divides the level")
    space = ManinSpace(n_mod)
    d = space.dim()
    mats = merel_matrices(ell)
    columns = []
    for col, gen_idx in enumerate(space.free):
        x = space.p1._list[gen_idx]
        acc = [Fraction(0)] * d
        for m in mats:
            y = _act(x, m)
            r = space.p1.reduce(y)
            if r is None:
                continue
            for i, v in enumerate(space.project(space.p1._index[r])):
                acc[i] += v
        columns.append(acc)
    matrix = tuple(
        tuple(columns[j][i] for j in range(d)) for i in range(d)
    )
    return matrix, charpoly(QQ, matrix)

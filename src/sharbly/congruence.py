"""Gamma_0(N) in SL(n,Z), the coset space P^{n-1}(Z/N), and orbit splitting.

Conventions: row vectors, right actions everywhere.  Gamma_0(N) is the
subgroup whose *first row* is congruent to (*, 0, ..., 0) mod N, so the
right cosets Gamma_0(N)\\SL(n,Z) are labeled by the projective point of
the first row, and the cell orbit of c * gamma is labeled by the
stabilizer orbit of [e_1 * gamma^{-1}].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd
from operator import mul

from . import intlinalg as la
from .errors import InternalCheckError
from .intlinalg import Mat, Vec
from .voronoi import CellOrbit


class ProjectiveSpace:
    """P^{n-1}(Z/N) with a table-driven normal form.

    A point's canonical representative is its lexicographically least unit
    multiple mod N; `points` lists them sorted, so a point's index orders
    points as the tuples do.  The normal form is one lookup: `_table` is
    indexed by the mixed-radix code sum_i (v_i mod N) N^(n-1-i) of a vector
    and holds the index of its point, or -1 when the vector is not
    unimodular mod N.  Building it walks the N^n vectors once.  The right
    action of a matrix is a permutation of point indices, cached per matrix.
    """

    def __init__(self, n: int, n_mod: int):
        if n_mod < 1:
            raise ValueError("modulus must be >= 1")
        self.n = n
        self.n_mod = n_mod
        units = [u for u in range(n_mod) if gcd(u, n_mod) == 1]
        table = [-1] * n_mod ** n
        points = []
        # Vectors come in code order, which is lexicographic order, so the
        # first unmarked unimodular vector of a class is its least element.
        for code, v in enumerate(product(range(n_mod), repeat=n)):
            if table[code] >= 0:
                continue
            g = 0
            for x in v:
                g = gcd(g, x)
            if gcd(g, n_mod) != 1:
                continue
            for u in units:
                c = 0
                for x in v:
                    c = c * n_mod + u * x % n_mod
                table[c] = len(points)
            points.append(v)
        self.points = tuple(points)
        self._table = table
        self._perms: dict = {}

    def __len__(self) -> int:
        return len(self.points)

    def index(self, vec) -> int:
        """Index of the point of a vector unimodular mod N."""
        if len(vec) != self.n:
            raise ValueError(f"{tuple(vec)} does not have length {self.n}")
        n_mod = self.n_mod
        code = 0
        for x in vec:
            code = code * n_mod + x % n_mod
        i = self._table[code]
        if i < 0:
            raise ValueError(f"{tuple(vec)} is not unimodular mod {n_mod}")
        return i

    def normalize(self, vec) -> Vec:
        """Canonical representative: lexicographically least unit multiple."""
        return self.points[self.index(vec)]

    def perm(self, gamma: Mat) -> tuple:
        """Right action of gamma: points[i] * gamma is points[perm(gamma)[i]]."""
        p = self._perms.get(gamma)
        if p is None:
            n_mod, table = self.n_mod, self._table
            cols = [tuple(x % n_mod for x in col) for col in zip(*gamma)]
            p = []
            for pt in self.points:
                code = 0
                for col in cols:
                    code = code * n_mod + sum(map(mul, pt, col)) % n_mod
                p.append(table[code])
            if min(p) < 0:
                raise ValueError(f"{gamma} is not invertible mod {n_mod}")
            p = self._perms[gamma] = tuple(p)
        return p


@lru_cache(maxsize=16)
def projective_space(n: int, n_mod: int) -> ProjectiveSpace:
    """The shared ProjectiveSpace(n, N), built once per (n, N)."""
    return ProjectiveSpace(n, n_mod)


def proj_normalize(coords, n_mod: int) -> Vec:
    """Canonical representative: lexicographically least unit multiple."""
    return projective_space(len(coords), n_mod).normalize(coords)


def proj_points(n: int, n_mod: int) -> list[Vec]:
    """All of P^{n-1}(Z/N), canonically normalized, sorted."""
    return list(projective_space(n, n_mod).points)


def proj_act(pt: Vec, gamma: Mat, n_mod: int) -> Vec:
    """Right action pt * gamma on P^{n-1}(Z/N)."""
    return proj_normalize(la.vec_mat(pt, gamma), n_mod)


def is_gamma0(gamma: Mat, n_mod: int) -> bool:
    """Membership in Gamma_0(N): SL(n,Z) with first row = (*, 0, .., 0) mod N."""
    if la.det(gamma) != 1:
        return False
    return all(x % n_mod == 0 for x in gamma[0][1:])


def lift_point(pt: Vec, n_mod: int) -> Vec:
    """A primitive integer vector reducing to the projective point pt."""
    if n_mod == 1:
        return (1,) + (0,) * (len(pt) - 1)
    v = list(pt)
    if la.content(tuple(v)) == 1:
        return tuple(v)
    # gcd(v) is coprime to N, so bumping one coordinate by N fixes it
    for i in range(len(v)):
        w = list(v)
        w[i] += n_mod
        if la.content(tuple(w)) == 1:
            return tuple(w)
    raise InternalCheckError(f"no primitive lift for {pt} mod {n_mod}")


def coset_matrix(pt: Vec, n_mod: int) -> Mat:
    """A gamma_p in SL(n,Z) with [e_1 * gamma_p^{-1}] = pt.

    The chosen cell representative translated by gamma_p is the canonical
    lift of the split orbit labeled by pt.
    """
    a = la.complete_to_sl(lift_point(pt, n_mod))
    return la.inverse_unimodular(a)


@dataclass(frozen=True)
class SplitOrbit:
    """One Gamma_0(N)-orbit inside an SL(n,Z) cell orbit."""

    point: Vec  # canonical representative of the stabilizer orbit
    size: int
    stabilizer_order: int  # order of the matrix stabilizer of `point` in S
    orientation_ok: bool


def split_orbits(orbit: CellOrbit, n_mod: int) -> list[SplitOrbit]:
    """Gamma_0(N)-orbits of the cells in an SL-orbit, with orientation data.

    These are orbits of the cell's SL-stabilizer acting on P^{n-1}(Z/N);
    an orbit is orientation_ok iff no stabilizer element fixing its point
    reverses the cell's orientation.
    """
    space = projective_space(len(orbit.representative.vertices[0]), n_mod)
    perms = [space.perm(s) for s in orbit.sl_stabilizer]
    chars = orbit.sl_orientation_chars
    seen = [False] * len(space)
    out = []
    for i, p in enumerate(space.points):  # sorted, so orbit reps come out canonically
        if seen[i]:
            continue
        seen[i] = True
        size = 1
        queue = [i]
        while queue:
            j = queue.pop()
            for perm in perms:
                j2 = perm[j]
                if not seen[j2]:
                    seen[j2] = True
                    size += 1
                    queue.append(j2)
        fixers = [ch for perm, ch in zip(perms, chars) if perm[i] == i]
        out.append(
            SplitOrbit(
                point=p,
                size=size,
                stabilizer_order=len(fixers),
                orientation_ok=all(ch == 1 for ch in fixers),
            )
        )
    return out

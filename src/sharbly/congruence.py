"""Gamma_0(N) in SL(n,Z), the coset space P^{n-1}(Z/N), and orbit splitting.

Conventions: row vectors, right actions everywhere.  Gamma_0(N) is the
subgroup whose *first row* is congruent to (*, 0, ..., 0) mod N, so the
right cosets Gamma_0(N)\\SL(n,Z) are labeled by the projective point of
the first row, and the cell orbit of c * gamma is labeled by the
stabilizer orbit of [e_1 * gamma^{-1}].

`ProjectiveSpace.orbit_labels(rep)` is the one labeller of those orbits;
`split_orbits` (the generators of `homology`), `homology` and `reduction`
read its table.  It acts on P^{n-1}(Z/N) by a generating set of the cell
stabilizer alone (`voronoi.stabilizer_generators`), not by every
stabilizer element.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd

from . import intlinalg as la
from .errors import InternalCheckError
from .intlinalg import Mat, Vec
from .voronoi import CellOrbit, VoronoiCell, cell_stabilizer, stabilizer_generators


class ProjectiveSpace:
    """P^{n-1}(Z/N) with a table-driven normal form.

    A point's canonical representative is its lexicographically least unit
    multiple mod N; `points` lists them sorted, so a point's index orders
    points as the tuples do.  The normal form is one lookup: `_table` is
    indexed by the mixed-radix code sum_i (v_i mod N) N^(n-1-i) of a vector
    and holds the index of its point, or -1 when the vector is not
    unimodular mod N.  Building it walks the N^n vectors once; each new
    point's phi(N) unit multiples are coded at once, one coordinate at a
    time, from a per-residue row of unit multiples, and written in one
    loop.  The right action of a matrix is a permutation of point indices,
    computed column by column on the points' coordinate columns and cached
    per matrix; `orbit_labels` asks for it on stabilizer generators only.
    The Gamma_0(N)-orbit labels of a cell are cached per representative,
    and `integral_complex` is the one slot in which `homology` keeps the
    level's complex over Z, so it lives and is dropped with the space.
    """

    def __init__(self, n: int, n_mod: int):
        if n_mod < 1:
            raise ValueError("modulus must be >= 1")
        self.n = n
        self.n_mod = n_mod
        units = [u for u in range(n_mod) if gcd(u, n_mod) == 1]
        # mults[x]: the residues u * x of x under the units, in unit order
        mults = [[u * x % n_mod for u in units] for x in range(n_mod)]
        table = [-1] * n_mod ** n
        points = []
        # Vectors come in code order, which is lexicographic order, so the
        # first unmarked unimodular vector of a class is its least element.
        for code, v in enumerate(product(range(n_mod), repeat=n)):
            if table[code] >= 0 or gcd(*v, n_mod) != 1:
                continue
            codes = mults[v[0]]
            for x in v[1:]:
                codes = [c * n_mod + y for c, y in zip(codes, mults[x])]
            i = len(points)
            for c in codes:
                table[c] = i
            points.append(v)
        self.points = tuple(points)
        self._coords = tuple(zip(*points))  # the points' coordinate columns
        self._table = table
        self._perms: dict = {}
        self._labels: dict = {}
        # the level's W_* over Z for one cell table (`homology.IntegralComplex`)
        self.integral_complex = None

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
        """Right action of gamma: points[i] * gamma is points[perm(gamma)[i]].

        Computed on all points at once: column j of gamma maps the points'
        coordinate columns to the image column sum_i gamma_ij * xs_i, which
        is folded into the mixed-radix codes that the table looks up.  The
        sum starts from its first term with gamma_ij != 0 mod N, taken as
        xs_i itself when gamma_ij = 1 mod N; later such terms are added
        without a product, and an all-zero column only shifts the codes.
        """
        p = self._perms.get(gamma)
        if p is None:
            n, n_mod = self.n, self.n_mod
            if [len(row) for row in gamma] != [n] * n:
                raise ValueError(f"{gamma} is not {n} x {n}")
            codes = [0] * len(self.points)
            for col in zip(*gamma):
                image = None
                for g, xs in zip(col, self._coords):
                    g %= n_mod
                    if not g:
                        continue
                    if image is None:
                        image = xs if g == 1 else [g * x for x in xs]
                    elif g == 1:
                        image = [y + x for y, x in zip(image, xs)]
                    else:
                        image = [y + g * x for y, x in zip(image, xs)]
                if image is None:
                    codes = [c * n_mod for c in codes]
                else:
                    codes = [c * n_mod + y % n_mod for c, y in zip(codes, image)]
            table = self._table
            p = [table[c] for c in codes]
            if min(p) < 0:
                raise ValueError(f"{gamma} is not invertible mod {n_mod}")
            p = self._perms[gamma] = tuple(p)
        return p

    def orbit_labels(self, rep: VoronoiCell) -> tuple:
        """(least index, character) per point i: the Gamma_0(N)-orbit label
        of the cell rep * h whose coset point is i, cached per rep.

        The label is the least point m that the orbit of i under the SL(n,Z)
        stabilizer S of rep (`cell_stabilizer`) reaches, with the orientation
        character (`voronoi.orientation_char`) of the elements that carry i
        to m.  They form one coset of the fixer of m, so their characters
        agree unless that fixer reverses orientation and kills the orbit;
        then it is 0.

        Only the generators of S (`stabilizer_generators`) act.  Each orbit
        is one breadth-first search from its least point m, in increasing
        index order, and a visited point a gets value(a), the character of
        the search-tree path t_a from m to a (a sign, so also that of its
        inverse, which carries a to m).  Every generator edge a -> b under
        g gives the element t_a g t_b^-1 of the fixer of m, and by
        Schreier's lemma these elements generate it.  The character is a
        homomorphism, so that element's character is
        value(a) * char(g) * value(b), and the fixer reverses orientation
        iff some edge has value(b) != value(a) * char(g).
        """
        labels = self._labels.get(rep)
        if labels is None:
            gens = [(self.perm(g), ch) for g, ch in stabilizer_generators(rep)]
            value = [0] * len(self.points)  # +-1 once visited
            labels = [None] * len(self.points)
            for m in range(len(self.points)):
                if value[m]:
                    continue
                value[m] = 1
                orbit = [m]
                alive = True
                for a in orbit:
                    va = value[a]
                    for perm, ch in gens:
                        b = perm[a]
                        if not value[b]:
                            value[b] = va * ch
                            orbit.append(b)
                        elif value[b] != va * ch:
                            alive = False
                for a in orbit:
                    labels[a] = (m, value[a] if alive else 0)
            labels = self._labels[rep] = tuple(labels)
        return labels


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

    gamma_p is read off the HNF of the column v^T, for the primitive lift v
    of pt: v * gamma_p = e_1.
    The chosen cell representative translated by gamma_p is the canonical
    lift of the split orbit labeled by pt.
    """
    return la.reduce_to_e1(lift_point(pt, n_mod))


@dataclass(frozen=True)
class SplitOrbit:
    """One Gamma_0(N)-orbit inside an SL(n,Z) cell orbit."""

    point: Vec  # canonical representative of the stabilizer orbit
    size: int
    stabilizer_order: int  # order of the matrix stabilizer of `point` in S
    orientation_ok: bool


def split_orbits(orbit: CellOrbit, n_mod: int) -> list[SplitOrbit]:
    """Gamma_0(N)-orbits of the cells in an SL-orbit, with orientation data.

    These are the orbits of the cell's SL-stabilizer S on P^{n-1}(Z/N), read
    off the space's `orbit_labels`: each is named by its least point, its
    stabilizer order is |S| / size, and it is orientation_ok iff its label's
    character is not 0.
    """
    rep = orbit.representative
    space = projective_space(rep.n, n_mod)
    labels = space.orbit_labels(rep)
    sizes = Counter(best for best, _ in labels)
    order = len(cell_stabilizer(rep)[1])
    return [
        SplitOrbit(
            point=space.points[i],
            size=size,
            stabilizer_order=order // size,
            orientation_ok=labels[i][1] != 0,
        )
        for i, size in sorted(sizes.items())
    ]

"""Sharbly elements and chains, modular symbols, and unimodular reduction.

A k-sharbly [v_1, ..., v_{n+k}] is stored in normal form: vectors made
primitive and sign-normalized (the scaling relation), sorted with the
permutation parity folded into a sign (the antisymmetry relation), and
collapsed to the zero marker (None) when a vector repeats or the vectors
fail to span Q^n.  Chains carry exact integer or field coefficients keyed
by the normal-form vector tuple.  `normalize` builds that form from raw
vectors; the boundary and the right action by a nonsingular matrix map
normal-form keys to normal-form keys, so they keep it without rebuilding.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from . import intlinalg as la
from .errors import InternalCheckError
from .intlinalg import Mat, Vec
from .voronoi import VoronoiCell, _perm_sign, is_simplex


@dataclass(frozen=True)
class SharblyElement:
    n: int
    vectors: tuple  # sorted, primitive, sign-normalized
    sign: int  # parity accumulated while normalizing

    @property
    def k(self) -> int:
        return len(self.vectors) - self.n


def normalize(n: int, vectors) -> SharblyElement | None:
    """Normal form of [v_1, ..., v_{n+k}]; None is the zero marker."""
    if len(vectors) < n:
        raise ValueError("a sharbly needs at least n vectors")
    prim = []
    for v in vectors:
        v = tuple(int(x) for x in v)
        if len(v) != n:
            raise ValueError("vector length does not match n")
        if not any(v):
            raise ValueError("zero vector in a sharbly")
        prim.append(la.primitivize(v))
    if len(set(prim)) != len(prim):
        return None  # repeated line: killed since 2 is invertible
    if not _spans(n, prim):
        return None
    return SharblyElement(n, *_sorted_with_sign(prim))


def _spans(n: int, vectors) -> bool:
    """Whether the vectors span Q^n, i.e. some n x n minor is nonzero."""
    return any(la.det(rows) for rows in combinations(vectors, n))


def _sorted_with_sign(prim) -> tuple[tuple, int]:
    """(the vectors sorted, the sign of the sorting permutation)."""
    order = sorted(range(len(prim)), key=prim.__getitem__)
    return tuple(prim[i] for i in order), _perm_sign(order)


def key_image(key: tuple, g: Mat) -> tuple[tuple, int]:
    """(image, sign) with [key] * g = sign * [image], both in normal form,
    for a normal-form key and a nonsingular integer matrix g.

    g maps distinct lines to distinct lines and a spanning set to a
    spanning one, so each image vector needs only `primitivize` and the
    image a sort; the caller owns the check that det g != 0.
    """
    return _sorted_with_sign([la.primitivize(la.vec_mat(v, g)) for v in key])


@dataclass
class SharblyChain:
    """Formal sum of normal-form sharblies with exact coefficients.

    Every key of `coeffs` is in normal form; `boundary` and `act` keep it
    without re-normalizing.
    """

    n: int
    k: int
    coeffs: dict = dc_field(default_factory=dict)  # vectors tuple -> coeff

    def copy(self) -> "SharblyChain":
        return SharblyChain(self.n, self.k, dict(self.coeffs))

    def add_term(self, vectors, coeff) -> "SharblyChain":
        """Add coeff * [vectors] (normalizing); mutates and returns self."""
        if not coeff:
            return self
        elem = normalize(self.n, vectors)
        if elem is None:
            return self
        return self.add_key(elem.vectors, coeff * elem.sign)

    def add_key(self, key: tuple, coeff) -> "SharblyChain":
        """Add coeff * [key] for a key already in normal form; mutates and
        returns self."""
        new = self.coeffs.get(key, 0) + coeff
        if new:
            self.coeffs[key] = new
        else:
            self.coeffs.pop(key, None)
        return self

    def add_chain(self, other: "SharblyChain", scale=1) -> "SharblyChain":
        if (self.n, self.k) != (other.n, other.k):
            raise InternalCheckError(
                f"cannot add a (n={other.n}, k={other.k}) chain to a "
                f"(n={self.n}, k={self.k}) one"
            )
        for key, c in other.coeffs.items():
            self.add_key(key, c * scale)
        return self

    def scaled(self, scale) -> "SharblyChain":
        out = SharblyChain(self.n, self.k)
        if scale:
            out.coeffs = {k: c * scale for k, c in self.coeffs.items()}
        return out

    def act(self, g: Mat) -> "SharblyChain":
        """Right action: every vector multiplied by g.

        A nonsingular g maps normal-form keys to normal-form keys through
        `key_image`; a singular g raises ValueError.
        """
        if not la.det(g):
            raise ValueError("the right action needs a nonsingular matrix")
        out = SharblyChain(self.n, self.k)
        for key, c in self.coeffs.items():
            image, sign = key_image(key, g)
            out.add_key(image, c * sign)
        return out

    def reduced(self, field) -> "SharblyChain":
        """Coefficients mapped through the field, zeros dropped."""
        out = SharblyChain(self.n, self.k)
        for key, c in self.coeffs.items():
            v = field(c)
            if v != field.zero:
                out.coeffs[key] = v
        return out

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, SharblyChain)
            and (self.n, self.k) == (other.n, other.k)
            and self.coeffs == other.coeffs
        )


def chain_of(n: int, vectors, coeff=1) -> SharblyChain:
    k = len(vectors) - n
    return SharblyChain(n, k).add_term(vectors, coeff)


def boundary(chain: SharblyChain) -> SharblyChain:
    """d[v_0, ..., v_m] = sum_i (-1)^i [..., v_i deleted, ...], linearly.

    A face of a normal-form key is sorted, primitive and repeat-free
    already, so only the faces that fail to span Q^n are dropped.
    """
    if chain.k < 1:
        raise ValueError("boundary out of degree 0 is not defined here")
    out = SharblyChain(chain.n, chain.k - 1)
    for key, c in chain.coeffs.items():
        for i in range(len(key)):
            face = key[:i] + key[i + 1:]
            if _spans(chain.n, face):
                out.add_key(face, -c if i % 2 else c)
    return out


def theta(cell: VoronoiCell) -> SharblyElement:
    """theta_k: a simplex Voronoi cell to the sharbly on its vertices."""
    if not is_simplex(cell):
        raise ValueError("theta is defined on simplex cells only")
    return SharblyElement(cell.n, cell.vertices, 1)


# ---------------------------------------------------------------------------
# Reduction of modular symbols to unimodular symbols
# ---------------------------------------------------------------------------

def _reducing_vector(rows: Mat, exclude=frozenset()) -> Vec | None:
    """Auxiliary vector v with every replacement determinant < |det rows|.

    Replacing row j of `rows` by v gives the determinant u_j of u = v * adj,
    adj the adjugate.  So the candidates u run over the row lattice of adj,
    {u : u * rows = 0 mod d} with d = |det rows|, and the admissible ones lie
    in the box max_j |u_j| <= d - 1 (a nonzero one exists by Minkowski when
    d > 1).  With the row HNF  U * adj = H,  H upper triangular with positive
    diagonal, each u is c * H for one integer c, and v = c * U with no
    division.  The walk fixes c_0, c_1, ... in turn, each in the range
    |acc_j + c_j * H_jj| <= t, where acc_j = sum_{i<j} c_i H_ij, for
    t = 1, 2, 4, ... capped at d - 1, until some v is admissible.

    The winner is the least (max_j |u_j|, sign_normalize(v)) with
    primitivize(v) not in `exclude`.  Every v with a smaller key lies in the
    same box, so the choice does not depend on t.  None when everything is
    excluded.
    """
    d = abs(la.det(rows))
    if d == 0:
        raise ValueError("singular rows have no reducing vector")
    h, u = la.hnf(la.adjugate(rows))
    best, t = None, 0
    while best is None and t < d - 1:
        t = min(max(2 * t, 1), d - 1)
        best = _least_in_box(h, u, t, exclude)
    if best is None:
        if exclude:
            return None
        raise InternalCheckError("no reducing vector found; |det| must be > 1")
    return best[1]


def _least_in_box(h: Mat, u: Mat, t: int, exclude) -> tuple[int, Vec] | None:
    """Least (max_j |(c*h)_j|, sign_normalize(c*u)) over c != 0 with every
    |(c*h)_j| <= t and primitivize(c*u) not in `exclude`, or None.

    h is upper triangular with positive diagonal.  Only c whose first nonzero
    entry is positive are walked, since c and -c give the same key; the box
    shrinks to the best key's first entry once one is found.
    """
    n = len(h)
    c = [0] * n
    best = None

    def walk(j: int, acc: list, worst: int, lead: bool):
        nonlocal best
        if j == n:
            if lead:
                return  # c = 0
            v = la.sign_normalize(la.vec_mat(c, u))
            if exclude and la.primitivize(v) in exclude:
                return
            if best is None or (worst, v) < best:
                best = (worst, v)
            return
        bound = t if best is None else best[0]
        hj = h[j][j]
        lo = 0 if lead else -((bound + acc[j]) // hj)
        for cj in range(lo, (bound - acc[j]) // hj + 1):
            c[j] = cj
            nxt = [a + cj * x for a, x in zip(acc, h[j])] if cj else acc
            walk(j + 1, nxt, max(worst, abs(nxt[j])), lead and not cj)
        c[j] = 0

    walk(0, [0] * n, 0, True)
    return best


def ar_reduce(x: Mat) -> SharblyChain:
    """Rewrite the modular symbol of x as an integer chain of unimodular ones.

    Each level replaces one row of the normal form by a reducing vector,
    using the relation [x_1..x_n] = sum_j [x_1, .., v at j, .., x_n]; every
    replacement symbol has strictly smaller |det|, so the recursion
    terminates on unimodular symbols representing the same class.
    """
    x = la.freeze(x)
    n = len(x)
    if any(len(row) != n for row in x):
        raise ValueError("modular symbols come from square matrices")
    if la.det(x) == 0:
        raise ValueError("singular matrix has no modular symbol")
    elem = normalize(n, x)
    if elem is None:
        raise InternalCheckError("a nonsingular matrix normalized to the zero sharbly")
    key = elem.vectors
    if abs(la.det(key)) == 1:  # the normal form's rows are primitive, x's need not be
        return SharblyChain(n, 0, {key: elem.sign})
    v = _reducing_vector(key)
    out = SharblyChain(n, 0)
    for j in range(n):
        replaced = key[:j] + (v,) + key[j + 1:]
        if la.det(replaced):
            out.add_chain(ar_reduce(replaced), elem.sign)
    return out

"""Sharbly elements and chains, modular symbols, and unimodular reduction.

A k-sharbly [v_1, ..., v_{n+k}] is stored in normal form: vectors made
primitive and sign-normalized (the scaling relation), sorted with the
permutation parity folded into a sign (the antisymmetry relation), and
collapsed to the zero marker (None) when a vector repeats or the vectors
fail to span Q^n.  Chains carry exact integer or field coefficients keyed
by the normal-form vector tuple.
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
    if not any(la.det(rows) for rows in combinations(prim, n)):
        return None  # does not span Q^n: every n x n minor vanishes
    order = sorted(range(len(prim)), key=lambda i: prim[i])
    sign = _perm_sign(order)
    return SharblyElement(n, tuple(prim[i] for i in order), sign)


@dataclass
class SharblyChain:
    """Formal sum of normal-form sharblies with exact coefficients."""

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
        key = elem.vectors
        new = self.coeffs.get(key, 0) + coeff * elem.sign
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
            new = self.coeffs.get(key, 0) + c * scale
            if new:
                self.coeffs[key] = new
            else:
                self.coeffs.pop(key, None)
        return self

    def scaled(self, scale) -> "SharblyChain":
        out = SharblyChain(self.n, self.k)
        if scale:
            out.coeffs = {k: c * scale for k, c in self.coeffs.items()}
        return out

    def act(self, g: Mat) -> "SharblyChain":
        """Right action: every vector multiplied by g, renormalized."""
        out = SharblyChain(self.n, self.k)
        for key, c in self.coeffs.items():
            out.add_term([la.vec_mat(v, g) for v in key], c)
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
    """d[v_0, ..., v_m] = sum_i (-1)^i [..., v_i deleted, ...], linearly."""
    if chain.k < 1:
        raise ValueError("boundary out of degree 0 is not defined here")
    out = SharblyChain(chain.n, chain.k - 1)
    for key, c in chain.coeffs.items():
        for i in range(len(key)):
            out.add_term(key[:i] + key[i + 1:], c * (-1) ** i)
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

    Candidates are integer vectors whose coordinates w.r.t. the rows are all
    less than 1 in absolute value (nonempty by Minkowski); the one minimizing
    the largest replacement determinant wins, ties broken lexicographically.
    Vectors in `exclude` (as +- classes) are skipped; None when everything
    is excluded.
    """
    n = len(rows)
    d = abs(la.det(rows))
    adj = la.adjugate(rows)
    gram = la.mat_mul(adj, la.transpose(adj))
    cands = la.short_vectors(gram, n * (d - 1) ** 2)
    best = None
    for v in cands:
        if la.primitivize(v) in exclude:
            continue
        repl = la.vec_mat(v, adj)  # j-th entry = det(rows with row j -> v)
        worst = max(abs(x) for x in repl)
        if worst >= d:
            continue
        if best is None or (worst, v) < best:
            best = (worst, v)
    if best is None:
        if exclude:
            return None
        raise InternalCheckError("no reducing vector found; |det| must be > 1")
    return best[1]


_AR_CACHE: dict = {}


def ar_reduce(x: Mat) -> SharblyChain:
    """Rewrite the modular symbol of x as an integer chain of unimodular ones.

    Each level replaces one row by a reducing vector, using the relation
    [x_1..x_n] = sum_j [x_1, .., v at j, .., x_n]; every replacement symbol
    has strictly smaller |det|, so the recursion terminates on unimodular
    symbols representing the same class.
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
    return _reduce_elem(elem.n, elem.vectors).scaled(elem.sign)


def _reduce_elem(n: int, key) -> SharblyChain:
    cached = _AR_CACHE.get(key)
    if cached is not None:
        return cached
    rows = la.freeze(key)
    if abs(la.det(rows)) == 1:
        out = SharblyChain(n, 0, {key: 1})
    else:
        v = _reducing_vector(rows)
        out = SharblyChain(n, 0)
        for j in range(n):
            replaced = key[:j] + (v,) + key[j + 1:]
            sub = normalize(n, replaced)
            if sub is None:
                continue
            out.add_chain(_reduce_elem(n, sub.vectors), sub.sign)
    _AR_CACHE[key] = out
    return out


def ar_reduce_chain(chain: SharblyChain) -> SharblyChain:
    """ar_reduce applied to every term of a degree-0 chain."""
    if chain.k != 0:
        raise InternalCheckError(f"ar_reduce_chain needs a degree-0 chain, got k = {chain.k}")
    out = SharblyChain(chain.n, 0)
    for key, c in chain.coeffs.items():
        out.add_chain(ar_reduce(key), c)
    return out

"""Hecke operators T(l, k) on the Voronoi homology of Gamma_0(N).

The right SL(n,Z)-cosets tiling the double coset of diag(1, .., 1, l, .., l)
correspond to the k-dimensional subspaces of F_l^n, one Schubert cell per
set S of k pivot rows.  Each is represented by its lower-triangular Hermite
form: diagonal l on S and 1 elsewhere, any entry in [0, l) at (i, j) with
j < i, i in S and j not in S, and 0 everywhere else.  Their number is the
Gaussian binomial, which `hecke_cosets` checks once per process.  On H_0
the operator is read off one level-free list of pairs (c, h),
`_h0_translates`, built from one unimodular reduction of each V * s; the
Voronoi and sharbly complexes compute the same homology, so any reduction
gives the same class in H_0.  At n = 2 the list plays the role of Merel's
Heilbronn matrices.  Its terms are read at their coset points in the
unimodular orbit's label table (`w0_orbit`, `w0_transport`), a shortcut
that only this module takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from . import congruence as cg
from . import intlinalg as la
from . import sharbly as sh
from .errors import InternalCheckError, PreconditionError
from .fields import Field, _is_prime, charpoly, eigenvalues
from .homology import GammaComplex, chain_to_w, express_cycle, homology, theta_lift


@dataclass(frozen=True)
class HeckeOperator:
    n: int
    ell: int
    power: int  # the k of T(l, k)
    cosets: tuple  # right-coset representatives s_i, det = l^k

    def degree(self) -> int:
        return len(self.cosets)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise InternalCheckError(f"Gaussian binomial [{n} {k}]_{q} is not an integer")
    return num // den


@lru_cache(maxsize=None)
def hecke_cosets(n: int, ell: int, k: int) -> HeckeOperator:
    """Representatives s_i with Gamma s Gamma = union of s_i Gamma.

    They depend on no level, so the (frozen) operator is cached per
    process; a bad argument raises PreconditionError on every call."""
    if not _is_prime(ell):
        raise PreconditionError(f"Hecke prime required, got {ell}")
    if not 1 <= k <= n:
        raise PreconditionError(f"T(l, k) needs 1 <= k <= n, got k = {k}")
    reps = []
    for rows in combinations(range(n), k):
        slots = [(i, j) for i in rows for j in range(i) if j not in rows]
        for fill in product(range(ell), repeat=len(slots)):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = ell if i in rows else 1
            for (i, j), v in zip(slots, fill):
                m[i][j] = v
            reps.append(la.freeze(m))
    reps.sort()
    op = HeckeOperator(n, ell, k, tuple(reps))
    if op.degree() != gaussian_binomial(n, k, ell):
        raise InternalCheckError(
            "coset count disagrees with the Gaussian binomial"
        )
    return op


# ---------------------------------------------------------------------------
# theta(x) * T and its degree-0 read-back
# ---------------------------------------------------------------------------

def theta_s(cx: GammaComplex, k: int, op: HeckeOperator, x_vec) -> tuple:
    """(theta(x), theta(x) * s summed over the cosets s of op) as plain chains."""
    x_chain = theta_lift(cx, k, x_vec)
    s_chain = sh.SharblyChain(cx.n, k)
    for s in op.cosets:
        s_chain.add_chain(x_chain.act(s))
    return x_chain, s_chain


def symbol_chain_to_w0(cx: GammaComplex, chain: sh.SharblyChain):
    """Coordinates in W_0 of a chain of unimodular symbols, read by
    `chain_to_w`, which shares no code with the label-table shortcut."""
    # A name of its own so that bench/tracer.py can time the degree-0 read-back.
    return chain_to_w(cx, 0, chain)


# ---------------------------------------------------------------------------
# Eigen reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenReport:
    n: int
    level: int
    field: Field
    ell: int
    power: int
    degree: int  # homology degree
    dimension: int
    matrix: tuple  # rows over the homology basis
    charpoly: tuple  # low degree first, monic
    eigen: tuple  # ((value, multiplicity), ...)
    remainder: tuple | None  # unfactored part of the char poly, if any


def _eigen_report(cx: GammaComplex, ell: int, power: int, degree: int, columns):
    matrix = tuple(zip(*columns))
    cp = charpoly(cx.field, matrix)
    roots, rem = eigenvalues(cx.field, cp)
    return EigenReport(
        n=cx.n,
        level=cx.level,
        field=cx.field,
        ell=ell,
        power=power,
        degree=degree,
        dimension=len(matrix),
        matrix=matrix,
        charpoly=cp,
        eigen=tuple(roots),
        remainder=rem,
    )


def w0_orbit(cx: GammaComplex) -> tuple:
    """(V, label table) of the single unimodular cell orbit, whose
    representative has vertex matrix V; W_0 is built on that orbit."""
    orbits = cx.table.orbits[cx.n - 1]
    if len(orbits) != 1:
        raise InternalCheckError("expected a single unimodular cell orbit")
    return orbits[0].representative.vertices, cx.labels[cx.n - 1, 0]


def w0_transport(v, k):
    """adj(K') * V = det V * gamma^{-1} for unimodular V and K, where K' =
    V * gamma is K with its last row negated when det K != det V (the same
    symbol); row 0 is K's coset point e_1 * gamma^{-1} up to the unit det V,
    and the transport sign is +1 because V * gamma = K' row for row.
    """
    d = la.det(k)
    if abs(d) != 1:
        raise ValueError(f"chain term {k} is not a Voronoi cell sharbly")
    if d != la.det(v):
        k = k[:-1] + (tuple(-x for x in k[-1]),)
    return la.mat_mul(la.adjugate(k), v)


@lru_cache(maxsize=None)
def _h0_translates(rep, op: HeckeOperator) -> tuple:
    """(c, h) with T(e_q) = sum c * e(q * h) in W_0 at every level prime to l.

    The point q is the symbol [V * gamma_q], V = rep, gamma_q = `coset_matrix(q)`.
    gamma_q * s_j = s_i * g with g in SL(n,Z), j -> i a permutation, so a term
    K * g of ar_reduce(V * s_i) * g sits at q * s_i * `w0_transport`(V, K), the
    s_j being lower triangular.  The list does not depend on the level, so
    one process builds it once per (rep, op).
    """
    return tuple((c, la.mat_mul(s, w0_transport(rep, k))) for s in op.cosets
                 for k, c in sh.ar_reduce(la.mat_mul(rep, s)).coeffs.items())


def hecke_matrix_on_h0(cx: GammaComplex, op: HeckeOperator) -> list:
    """Columns of the operator on H_0.  H_0 = W_0 / im d_1 takes no kernel, so
    each rep is the unit vector of a generator q; its column, the int vector
    sum c * char * e(label(q * h)) over `_h0_translates`, is converted once
    by `express_cycle`."""
    if cx.level % op.ell == 0:
        raise PreconditionError(f"gcd(l, N) = 1 required: l = {op.ell} divides N = {cx.level}")
    h0 = homology(cx, 0)
    space = cg.projective_space(cx.n, cx.level)
    rep, labels = w0_orbit(cx)
    translates = _h0_translates(rep, op)
    columns = []
    for rep_vec in h0.homology_reps:
        _, q = cx.bases[0][rep_vec.index(cx.field.one)]
        image = [0] * cx.rank(0)
        for c, h in translates:
            pos, char = labels[space.index(la.vec_mat(q, h))]
            if char:
                image[pos] += c * char
        columns.append(express_cycle(h0, image))
    return columns


def _complex_for(n: int, level: int, field: Field, cx: GammaComplex) -> GammaComplex:
    """cx, checked to be the complex of (n, level, field)."""
    if (cx.n, cx.level, cx.field) != (n, level, field):
        raise ValueError(f"cx is the complex of n = {cx.n}, N = {cx.level} over {cx.field.name}, "
                         f"not of n = {n}, N = {level} over {field.name}")
    return cx


def hecke_on_h0(n: int, level: int, field: Field, ell: int, power: int, *,
                cx: GammaComplex) -> EigenReport:
    """T(l, k) acting on H_0 of the degree-0 Voronoi coinvariants."""
    op = hecke_cosets(n, ell, power)
    cx = _complex_for(n, level, field, cx)
    return _eigen_report(cx, ell, power, 0, hecke_matrix_on_h0(cx, op))

"""Hecke operators T(l, k) on the Voronoi homology of Gamma_0(N).

Coset representatives are the lower-triangular Hermite forms of
determinant l^k whose elementary divisors are (1, .., 1, l, .., l); these
tile the double coset of diag(1, .., 1, l, .., l) by right SL(n,Z)-cosets,
which is the decomposition the chain-level action needs.  The action on
H_0 goes through reduction of modular symbols to unimodular ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import congruence as cg
from . import intlinalg as la
from . import sharbly as sh
from .errors import InternalCheckError, PreconditionError
from .fields import Field, _is_prime, charpoly, eigenvalues
from .homology import GammaComplex, build_complex, express_cycle, homology
from .intlinalg import Mat
from .voronoi import VoronoiCell


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


def hecke_cosets(n: int, ell: int, k: int) -> HeckeOperator:
    """Representatives s_i with Gamma s Gamma = union of s_i Gamma."""
    if not _is_prime(ell):
        raise PreconditionError(f"Hecke prime required, got {ell}")
    if not 1 <= k <= n:
        raise PreconditionError(f"T(l, k) needs 1 <= k <= n, got k = {k}")
    target_snf = tuple([1] * (n - k) + [ell] * k)
    reps = []
    for diag in product(*([[ell ** e for e in range(k + 1)]] * n)):
        prod_d = 1
        for d in diag:
            prod_d *= d
        if prod_d != ell ** k:
            continue
        ranges = [range(diag[i]) for i in range(n)]
        # lower-triangular Hermite form: row i reduced mod its diagonal
        below = [[(i, j) for j in range(i)] for i in range(n)]
        slots = [s for row in below for s in row]
        for fill in product(*[range(diag[i]) for (i, j) in slots]):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = diag[i]
            for (i, j), v in zip(slots, fill):
                m[i][j] = v
            mat = la.freeze(m)
            if la.snf(mat) == target_snf:
                reps.append(mat)
    reps.sort()
    op = HeckeOperator(n, ell, k, tuple(reps))
    if op.degree() != gaussian_binomial(n, k, ell):
        raise InternalCheckError(
            "coset count disagrees with the Gaussian binomial"
        )
    return op


def coset_of(op: HeckeOperator, mat: Mat) -> int:
    """Index i with mat in s_i * SL(n,Z); raises if in none."""
    hits = []
    for i, s in enumerate(op.cosets):
        adj = la.adjugate(s)
        d = la.det(s)
        prod = la.mat_mul(adj, mat)
        if all(x % d == 0 for row in prod for x in row):
            g = tuple(tuple(x // d for x in row) for row in prod)
            if la.det(g) == 1:
                hits.append(i)
    if len(hits) != 1:
        raise InternalCheckError(f"matrix lies in {len(hits)} cosets, not 1")
    return hits[0]


# ---------------------------------------------------------------------------
# Unimodular symbol chains -> degree-0 coordinates
# ---------------------------------------------------------------------------

def _unimodular_witness(rep: VoronoiCell, cell: VoronoiCell) -> Mat:
    """gamma in SL(n,Z) with rep * gamma = cell, both unimodular cells."""
    a0 = la.freeze(rep.vertices)
    ac = [list(v) for v in cell.vertices]
    gamma = la.mat_mul(la.inverse_unimodular(a0), la.freeze(ac))
    if la.det(gamma) == -1:
        ac[-1] = [-x for x in ac[-1]]
        gamma = la.mat_mul(la.inverse_unimodular(a0), la.freeze(ac))
    if la.det(gamma) != 1:
        raise InternalCheckError("no SL(n,Z) witness between unimodular cells")
    return gamma


def symbol_chain_to_w0(cx: GammaComplex, chain: sh.SharblyChain):
    """Coordinates in W_0 of a chain of unimodular symbols."""
    from .homology import _canonical_label
    from .voronoi import _orientation_transport_sign

    if chain.k != 0:
        raise InternalCheckError(f"expected a chain of symbols, got degree {chain.k}")
    f = cx.field
    n = cx.n
    d = n - 1
    orbits = cx.table.orbits[d]
    space = cg.projective_space(n, cx.level)
    index = cx.basis_index(0)
    out = [f.zero] * cx.rank(0)
    for key, c in chain.coeffs.items():
        cell = VoronoiCell(n, key)
        if abs(la.det(la.freeze(key))) != 1:
            raise ValueError("chain contains a non-unimodular symbol")
        orb = orbits[0]
        if len(orbits) != 1:
            raise InternalCheckError("expected a single unimodular cell orbit")
        gamma = _unimodular_witness(orb.representative, cell)
        q = cg.proj_normalize(la.inverse_unimodular(gamma)[0], cx.level)
        p_canon, chars = _canonical_label(space, orb, q)
        rec = cx.splits[d, orb.index][p_canon]
        if not rec.orientation_ok:
            continue
        if len(chars) != 1:
            raise InternalCheckError("ambiguous transport on a surviving orbit")
        eta = _orientation_transport_sign(orb.representative, gamma, cell)
        coeff = f(c * eta * chars.pop())
        pos = index[orb.index, p_canon]
        out[pos] = f.add(out[pos], coeff)
    return out


def w0_symbol_matrix(cx: GammaComplex, gen) -> Mat:
    """The unimodular n x n matrix realizing a W_0 basis generator."""
    o_idx, point = gen
    rep = cx.table.orbits[cx.n - 1][o_idx].representative
    gamma_p = cg.coset_matrix(point, cx.level)
    return la.mat_mul(la.freeze(rep.vertices), gamma_p)


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


def _eigen_report(cx: GammaComplex, ell: int, power: int, degree: int, matrix):
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
        matrix=tuple(tuple(row) for row in matrix),
        charpoly=cp,
        eigen=tuple(roots),
        remainder=rem,
    )


def hecke_matrix_on_h0(cx: GammaComplex, op: HeckeOperator) -> tuple:
    """Matrix of the operator on H_0, columns = images of basis classes."""
    if cx.level % op.ell == 0:
        raise PreconditionError(
            f"gcd(l, N) = 1 required: l = {op.ell} divides N = {cx.level}"
        )
    f = cx.field
    h0 = homology(cx, 0)
    dim = h0.dimension
    base_mats = [w0_symbol_matrix(cx, gen) for gen in cx.bases[0]]
    columns = []
    for rep_vec in h0.homology_reps:
        image = [f.zero] * cx.rank(0)
        for pos, lam in enumerate(rep_vec):
            if lam == f.zero:
                continue
            x_mat = base_mats[pos]
            for s in op.cosets:
                y = la.mat_mul(x_mat, s)
                reduced = sh.ar_reduce(y)
                coords = symbol_chain_to_w0(cx, reduced)
                image = [f.add(a, f.mul(lam, b)) for a, b in zip(image, coords)]
        columns.append(express_cycle(h0, image))
    return tuple(
        tuple(columns[j][i] for j in range(dim)) for i in range(dim)
    )


def hecke_on_h0(n: int, level: int, field: Field, ell: int, power: int,
                cx: GammaComplex | None = None) -> EigenReport:
    """T(l, k) acting on H_0 of the degree-0 Voronoi coinvariants."""
    op = hecke_cosets(n, ell, power)
    if cx is None:
        cx = build_complex(n, level, field)
    matrix = hecke_matrix_on_h0(cx, op)
    return _eigen_report(cx, ell, power, 0, matrix)

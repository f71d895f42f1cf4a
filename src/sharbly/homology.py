"""The coinvariant complex W_* over Gamma_0(N) and its homology.

Degree k holds the dimension-(k + n - 1) cell orbits split into
Gamma_0(N)-orbits; generators whose stabilizer reverses orientation die
(coefficients always invert 2), and the boundary matrices come from the
facet records of the cell table transported through the coset labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import congruence as cg
from . import intlinalg as la
from . import sharbly as sh
from .errors import InternalCheckError, PreconditionError
from .fields import Field, LinearSpan, PrimeField, SparseFieldMatrix, rank_kernel, solve
from .voronoi import (
    CellComplexTable, VoronoiCell, _orientation_transport_sign, enumerate_cells, equivalent_cells,
)


@dataclass(frozen=True)
class GammaComplex:
    n: int
    level: int
    field: Field
    table: CellComplexTable
    bases: dict  # degree k -> tuple of (orbit_index, point)
    boundaries: dict  # degree k (>= 1) -> SparseFieldMatrix, degree k -> k-1
    splits: dict  # (dim, orbit_index) -> {point: SplitOrbit}
    # degree k -> HomologyResult, filled by `homology`
    homology_memo: dict = dc_field(default_factory=dict, compare=False, repr=False)

    @property
    def max_degree(self) -> int:
        return self.n * (self.n - 1) // 2

    def basis_index(self, k: int):
        return {gen: i for i, gen in enumerate(self.bases[k])}

    def rank(self, k: int) -> int:
        return len(self.bases[k])


def _canonical_label(space, orbit, point, recs):
    """(canonical point, transport character) of `point`, or None if killed.

    The canonical point of a split orbit is its least point, which has the
    least index; the character is that of a stabilizer element taking
    `point` there.  `recs` maps points to the orbit's split records; a
    split orbit killed by orientation gives None.  On a surviving orbit
    every stabilizer element reaching the canonical point has the same
    character, and that is checked.
    """
    i = space.index(point)
    best = None
    chars = set()
    for s, ch in zip(orbit.sl_stabilizer, orbit.sl_orientation_chars):
        j = space.perm(s)[i]
        if best is None or j < best:
            best = j
            chars = {ch}
        elif j == best:
            chars.add(ch)
    p_canon = space.points[best]
    if not recs[p_canon].orientation_ok:
        return None
    if len(chars) != 1:
        raise InternalCheckError("ambiguous transport character on a surviving orbit")
    return p_canon, chars.pop()


def build_complex(n: int, level: int, field: Field, table=None) -> GammaComplex:
    """Assemble W_* tensored down to Gamma_0(N)-coinvariants over `field`."""
    if n not in (2, 3):
        raise PreconditionError(f"homology is supported for n in {{2, 3}}, got {n}")
    if level < 1:
        raise PreconditionError("level must be >= 1")
    if table is None:
        table = enumerate_cells(n)
    if table.n != n:
        raise ValueError("cell table has the wrong rank")

    # split every orbit and enforce the coefficient hypotheses
    splits = {}
    for d in sorted(table.orbits):
        for orb in table.orbits[d]:
            recs = cg.split_orbits(orb, level)
            splits[d, orb.index] = {r.point: r for r in recs}
            if isinstance(field, PrimeField):
                for r in recs:
                    if r.stabilizer_order % field.p == 0:
                        raise PreconditionError(
                            f"p = {field.p} divides a split-orbit stabilizer "
                            f"order {r.stabilizer_order} (dim {d}, orbit "
                            f"{orb.index}, point {r.point}); the coinvariant "
                            "complex would not compute Voronoi homology"
                        )

    max_k = n * (n - 1) // 2
    bases = {}
    for k in range(max_k + 1):
        d = k + n - 1
        basis = []
        for orb in table.orbits[d]:
            for r in splits[d, orb.index].values():
                if r.orientation_ok:
                    basis.append((orb.index, r.point))
        bases[k] = tuple(sorted(basis))

    space = cg.projective_space(n, level)
    boundaries = {}
    for k in range(1, max_k + 1):
        d = k + n - 1
        row_index = {gen: i for i, gen in enumerate(bases[k - 1])}
        entries = {}
        # each facet transports the coset label p to p * gamma^{-1}
        facet_inverses = {
            orb.index: [la.inverse_unimodular(fr.gamma) for fr in orb.facets]
            for orb in table.orbits[d]
        }
        for col, (o_idx, p) in enumerate(bases[k]):
            orb = table.orbits[d][o_idx]
            for fr, gamma_inv in zip(orb.facets, facet_inverses[o_idx]):
                target = table.orbits[d - 1][fr.orbit]
                q = cg.proj_act(p, gamma_inv, level)
                label = _canonical_label(space, target, q, splits[d - 1, fr.orbit])
                if label is None:
                    continue
                p_canon, char = label
                coeff = fr.sign * char
                key = (row_index[fr.orbit, p_canon], col)
                entries[key] = entries.get(key, 0) + coeff
        triplets = [(r, c, v) for (r, c), v in entries.items() if v]
        boundaries[k] = SparseFieldMatrix.from_triplets(
            field, len(bases[k - 1]), len(bases[k]), triplets
        )

    complex_ = GammaComplex(n, level, field, table, bases, boundaries, splits)
    _check_dd_zero(complex_)
    return complex_


def _check_dd_zero(cx: GammaComplex):
    for k in range(2, cx.max_degree + 1):
        prod = cx.boundaries[k - 1].compose(cx.boundaries[k])
        if not prod.is_zero():
            raise InternalCheckError(
                f"d_{k-1} o d_{k} != 0 in the (n={cx.n}, N={cx.level}) complex"
            )


@dataclass(frozen=True)
class HomologyResult:
    degree: int
    dimension: int
    homology_reps: tuple  # cycles over bases[k] whose classes are a basis of H_k
    _complex: GammaComplex


def homology(cx: GammaComplex, k: int) -> HomologyResult:
    """H_k of the coinvariant complex, with an explicit representative basis.

    Computed once per (complex, k); later calls return the same result.
    """
    if not 0 <= k <= cx.max_degree:
        raise ValueError(f"degree {k} out of range 0..{cx.max_degree}")
    result = cx.homology_memo.get(k)
    if result is None:
        result = cx.homology_memo[k] = _compute_homology(cx, k)
    return result


def _compute_homology(cx: GammaComplex, k: int) -> HomologyResult:
    """The basis vectors of ker d_k whose classes are independent modulo
    im d_{k+1}, in basis order.

    The elimination runs in coordinates on ker d_k: each vector of the
    `rank_kernel` basis is 1 at its own free column, which is its last
    nonzero entry, and 0 at the other free columns, so a cycle's
    coordinates are its entries at the free columns.  im d_{k+1} lies in
    ker d_k because build_complex checks d o d = 0.
    """
    f = cx.field
    if k == 0:
        kernel = [
            tuple(f.one if i == j else f.zero for j in range(cx.rank(0)))
            for i in range(cx.rank(0))
        ]
    else:
        kernel = rank_kernel(cx.boundaries[k])[1]
    free = [max(i for i, x in enumerate(vec) if x != f.zero) for vec in kernel]
    is_free = set(free)
    span = LinearSpan(f)
    for col in _image_columns(cx, k):
        span.add({i: x for i, x in col.items() if i in is_free})
    reps = tuple(vec for vec, c in zip(kernel, free) if span.add({c: f.one}))
    return HomologyResult(k, len(reps), reps, cx)


def _image_columns(cx: GammaComplex, k: int):
    """The columns of d_{k+1} as sparse {row: coeff} dicts."""
    if k + 1 > cx.max_degree:
        return []
    mat = cx.boundaries[k + 1]
    cols = [{} for _ in range(mat.ncols)]
    for (r, c), v in mat.entries.items():
        cols[c][r] = v
    return cols


def betti_numbers(cx: GammaComplex) -> dict:
    return {k: homology(cx, k).dimension for k in range(cx.max_degree + 1)}


def is_cycle(cx: GammaComplex, k: int, vec) -> bool:
    if k == 0:
        return True
    image = cx.boundaries[k].matvec(vec)
    return all(x == cx.field.zero for x in image)


def express_cycle(result: HomologyResult, vec, want_witness: bool = False):
    """Coordinates of a cycle in the homology basis of `result`.

    The input must be an exact cycle; the reconstruction differs from the
    input by an explicit boundary (returned as a degree-(k+1) preimage when
    want_witness is set).
    """
    cx = result._complex
    k = result.degree
    f = cx.field
    vec = [f(x) for x in vec]
    if not is_cycle(cx, k, vec):
        bad = cx.boundaries[k].matvec(vec)
        raise ValueError(f"input is not a cycle; boundary = {bad}")
    image_cols = _image_columns(cx, k)
    reps = list(result.homology_reps)
    ncols = len(image_cols) + len(reps)
    triplets = []
    for j, col in enumerate(image_cols):
        for i, x in col.items():
            triplets.append((i, j, x))
    for j, rep in enumerate(reps):
        for i, x in enumerate(rep):
            if x != f.zero:
                triplets.append((i, len(image_cols) + j, x))
    mat = SparseFieldMatrix.from_triplets(f, cx.rank(k), ncols, triplets)
    sol = solve(mat, vec)
    if sol is None:
        raise InternalCheckError("cycle not in image + homology span")
    coords = tuple(sol[len(image_cols):])
    if not want_witness:
        return coords
    witness = tuple(sol[: len(image_cols)])  # coefficients over bases[k+1]
    return coords, witness


# ---------------------------------------------------------------------------
# Lifts between W_k coordinates and plain sharbly chains
# ---------------------------------------------------------------------------

def theta_lift(cx: GammaComplex, k: int, vec) -> sh.SharblyChain:
    """Plain sharbly chain lifting a W_k coordinate vector."""
    out = sh.SharblyChain(cx.n, k)
    orbits = cx.table.orbits[k + cx.n - 1]
    for (o_idx, point), coeff in zip(cx.bases[k], vec):
        if coeff == cx.field.zero:
            continue
        gamma_p = cg.coset_matrix(point, cx.level)
        rep = orbits[o_idx].representative
        out.add_term([la.vec_mat(v, gamma_p) for v in rep.vertices], coeff)
    return out


def _locate(cx: GammaComplex, d: int, cell: VoronoiCell):
    """(orbit, gamma) with orbit.representative * gamma = cell, or None when
    `cell` is no Voronoi cell of dimension d.

    A cell on n vertices is a unimodular simplex, of the single orbit in
    dimension n - 1, and its gamma is read off the vertex matrices.
    """
    orbits = cx.table.orbits[d]
    if len(cell.vertices) != cx.n:
        for orb in orbits:
            gamma = equivalent_cells(orb.representative, cell)
            if gamma is not None:
                return orb, gamma
        return None
    if len(orbits) != 1:
        raise InternalCheckError("expected a single unimodular cell orbit")
    rows = [list(v) for v in cell.vertices]
    if abs(la.det(la.freeze(rows))) != 1:
        return None
    rep_inv = la.inverse_unimodular(la.freeze(orbits[0].representative.vertices))
    gamma = la.mat_mul(rep_inv, la.freeze(rows))
    if la.det(gamma) == -1:  # a vertex is a line: flip the last one's sign
        rows[-1] = [-x for x in rows[-1]]
        gamma = la.mat_mul(rep_inv, la.freeze(rows))
    if la.det(gamma) != 1:
        raise InternalCheckError("no SL(n,Z) witness between unimodular cells")
    return orbits[0], gamma


def _cell_coordinate(cx: GammaComplex, orb, gamma, cell: VoronoiCell):
    """(W_k generator, sign) of the cell orb.representative * gamma = cell,
    or None when its split orbit is killed by orientation."""
    space = cg.projective_space(cx.n, cx.level)
    q = la.inverse_unimodular(gamma)[0]
    label = _canonical_label(space, orb, q, cx.splits[orb.dim, orb.index])
    if label is None:
        return None
    p_canon, char = label
    eta = _orientation_transport_sign(orb.representative, gamma, cell)
    return (orb.index, p_canon), char * eta


def chain_to_w(cx: GammaComplex, k: int, chain: sh.SharblyChain):
    """Coordinates in W_k of a Voronoi-supported plain chain.

    Every term must be the sharbly of an actual Voronoi cell; terms whose
    split orbit is killed by orientation contribute zero.
    """
    f = cx.field
    d = k + cx.n - 1
    index = cx.basis_index(k)
    out = [f.zero] * cx.rank(k)
    for key, c in chain.coeffs.items():
        cell = VoronoiCell(cx.n, key)
        hit = _locate(cx, d, cell)
        if hit is None:
            raise ValueError(f"chain term {key} is not a Voronoi cell sharbly")
        term = _cell_coordinate(cx, *hit, cell)
        if term is not None:
            gen, sign = term
            pos = index[gen]
            out[pos] = f.add(out[pos], f(c * sign))
    return out


def is_voronoi_supported(cx: GammaComplex, chain: sh.SharblyChain) -> bool:
    d = chain.k + cx.n - 1
    return all(_locate(cx, d, VoronoiCell(cx.n, key)) is not None for key in chain.coeffs)


# ---------------------------------------------------------------------------
# JSON cache (complex-n{n}-N{N}-{field}.json)
# ---------------------------------------------------------------------------

def _coeff_to_str(field: Field, x) -> str:
    if isinstance(field, PrimeField):
        return str(int(x))
    fr = Fraction(x)
    return f"{fr.numerator}/{fr.denominator}" if fr.denominator != 1 else str(fr.numerator)


def complex_cache_name(n: int, level: int, field: Field) -> str:
    return f"complex-n{n}-N{level}-{field.name}.json"


def complex_to_json(cx: GammaComplex) -> str:
    doc = {
        "n": cx.n,
        "level": cx.level,
        "field": cx.field.name,
        "bases": {
            str(k): [[o, list(p)] for o, p in cx.bases[k]]
            for k in sorted(cx.bases)
        },
        "boundaries": {
            str(k): [
                [r, c, _coeff_to_str(cx.field, v)]
                for (r, c), v in sorted(cx.boundaries[k].entries.items())
            ]
            for k in sorted(cx.boundaries)
        },
        "betti": {str(k): homology(cx, k).dimension for k in range(cx.max_degree + 1)},
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"

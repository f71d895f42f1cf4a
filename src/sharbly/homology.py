"""The coinvariant complex W_* over Gamma_0(N) and its homology.

Degree k holds the dimension-(k + n - 1) cell orbits split into
Gamma_0(N)-orbits; generators whose stabilizer reverses orientation die
(coefficients always invert 2), and the boundary matrices come from the
facet records of the cell table transported through the coset labels.

W_* is an integral object: it is built over Z once per (cell table,
level), as an `IntegralComplex` of bases, labels, split-orbit stabilizer
orders and sparse int boundaries on which d o d = 0 is checked, and kept
on the level's shared `congruence.projective_space`.  The coefficient
field enters only in `build_complex`, which checks the F_p stabilizer
hypothesis and reads the checked ints over the field: as they are over
Q, as their nonzero residues over F_p.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from . import congruence as cg
from . import intlinalg as la
from . import sharbly as sh
from .errors import InternalCheckError, PreconditionError
from .fields import Field, LinearSpan, PrimeField, SparseFieldMatrix, coeff_str, row_span, solve
from .voronoi import (
    CellComplexTable, CellOrbit, VoronoiCell, _orientation_transport_sign, equivalent_cells,
)


@dataclass(frozen=True)
class IntegralComplex:
    """W_* of one (cell table, level) over Z, with d o d = 0 checked."""

    table: CellComplexTable  # held, so the identity that keys the slot stays unique
    bases: dict  # degree k -> tuple of (orbit_index, point)
    # (dim, orbit_index) -> per point of P^{n-1}(Z/N), (position in bases[k] or None, char)
    labels: dict
    # stabilizer order -> (dim, orbit_index, point) of the first split orbit
    # with it, by degree, orbit and point; so the first key that p divides
    # names the first split orbit whose order p divides
    stabilizer_orders: dict
    boundaries: dict  # degree k (>= 1) -> (nrows, ncols, {(row, col): nonzero int})


@dataclass(frozen=True)
class GammaComplex:
    n: int
    level: int
    field: Field
    table: CellComplexTable
    bases: dict  # degree k -> tuple of (orbit_index, point)
    # (dim, orbit_index) -> per point of P^{n-1}(Z/N), (position in bases[k] or None, char)
    labels: dict
    boundaries: dict  # degree k (>= 1) -> SparseFieldMatrix, degree k -> k-1
    # degree k -> HomologyResult, filled by `homology`
    homology_memo: dict = dc_field(default_factory=dict, compare=False, repr=False)

    @property
    def max_degree(self) -> int:
        return self.n * (self.n - 1) // 2

    def rank(self, k: int) -> int:
        return len(self.bases[k])


def build_complex(n: int, level: int, field: Field, *, table: CellComplexTable) -> GammaComplex:
    """W_* tensored down to Gamma_0(N)-coinvariants over `field`, from the
    cell table `table`.

    The level's `IntegralComplex` is built once per (cell table, level)
    by `_integral_complex` and shared by every field.  Each call checks
    that p divides no split-orbit stabilizer order over F_p, naming the
    first such orbit in basis order, and reads the checked int
    boundaries over `field`: the ints themselves over Q (`LinearSpan`,
    `matvec` and `coeff_str` take ints as Q elements), their nonzero
    residues over F_p.  The bases and labels are the integral complex's
    own.
    """
    if n not in (2, 3):
        raise PreconditionError(f"homology is supported for n in {{2, 3}}, got {n}")
    if level < 1:
        raise PreconditionError("level must be >= 1")
    if table.n != n:
        raise ValueError("cell table has the wrong rank")

    ic = _integral_complex(table, level)
    if isinstance(field, PrimeField):
        p = field.p
        for order, (d, o_idx, point) in ic.stabilizer_orders.items():
            if order % p == 0:
                raise PreconditionError(
                    f"p = {p} divides a split-orbit stabilizer "
                    f"order {order} (dim {d}, orbit {o_idx}, point "
                    f"{point}); the coinvariant complex would "
                    "not compute Voronoi homology"
                )
        boundaries = {
            k: SparseFieldMatrix(field, nrows, ncols,
                                 {rc: r for rc, x in ints.items() if (r := x % p)})
            for k, (nrows, ncols, ints) in ic.boundaries.items()
        }
    else:
        boundaries = {
            k: SparseFieldMatrix(field, nrows, ncols, ints)
            for k, (nrows, ncols, ints) in ic.boundaries.items()
        }
    return GammaComplex(n, level, field, table, ic.bases, ic.labels, boundaries)


def _integral_complex(table: CellComplexTable, level: int) -> IntegralComplex:
    """The level's IntegralComplex for `table`, from the one slot on
    `projective_space(n, level)` when it holds this very table object,
    else built and put there.

    The slot is keyed by the table's identity, not its value: an equal
    table from a fresh `enumerate_cells` (the CLI's table for another cache
    directory) is built again, and the slot lives as long as the space does.

    The generators and stabilizer orders are read from each cell orbit's
    `congruence.split_orbits`, and the boundary entries from its label
    table, the level's `ProjectiveSpace.orbit_labels` of its
    representative with each live least point replaced by its position
    in bases[k].  Each d_k is summed as a sparse int matrix, entries that
    cancel to 0 are dropped, and d o d = 0 is checked on those ints,
    which proves it over Q and every F_p.
    """
    n = table.n
    space = cg.projective_space(n, level)
    ic = space.integral_complex
    if ic is not None and ic.table is table:
        return ic
    max_k = n * (n - 1) // 2
    bases, labels, orders = {}, {}, {}
    for k in range(max_k + 1):
        d = k + n - 1
        basis = []
        for orb in table.orbits[d]:
            position = {}
            for split in cg.split_orbits(orb, level):
                orders.setdefault(split.stabilizer_order, (d, orb.index, split.point))
                if split.orientation_ok:
                    position[space.index(split.point)] = len(basis)
                    basis.append((orb.index, split.point))
            labels[d, orb.index] = tuple(
                (position[best], char) if char else (None, 0)
                for best, char in space.orbit_labels(orb.representative)
            )
        bases[k] = tuple(basis)

    ints = {}  # degree k -> d_k as {(row, col): nonzero int}
    for k in range(1, max_k + 1):
        d = k + n - 1
        entries = {}
        facets = {
            orb.index: tuple(zip(orb.facets, _facet_inverses(orb))) for orb in table.orbits[d]
        }
        for col, (o_idx, p) in enumerate(bases[k]):
            for fr, gamma_inv in facets[o_idx]:
                i = space.index(cg.proj_act(p, gamma_inv, level))
                row, char = labels[d - 1, fr.orbit][i]
                if char:
                    entries[row, col] = entries.get((row, col), 0) + fr.sign * char
        ints[k] = {rc: x for rc, x in entries.items() if x}
    _check_dd_zero(n, level, ints)

    boundaries = {k: (len(bases[k - 1]), len(bases[k]), m) for k, m in ints.items()}
    ic = space.integral_complex = IntegralComplex(table, bases, labels, orders, boundaries)
    return ic


@lru_cache(maxsize=None)
def _facet_inverses(orb: CellOrbit) -> tuple:
    """gamma^{-1} of each facet record of `orb`, in order: a facet
    transports the coset label p to p * gamma^{-1}.  They depend on no
    level and no field."""
    return tuple(la.inverse_unimodular(fr.gamma) for fr in orb.facets)


def _check_dd_zero(n: int, level: int, ints: dict):
    """d_{k-1} o d_k = 0 on the int boundaries {(row, col): int}.  A zero
    product over Z is zero over Q and over every F_p."""
    for k in range(2, len(ints) + 1):
        rows_of: dict = {}  # row i of d_k -> [(col, d_k[i, col])]
        for (i, j), b in ints[k].items():
            rows_of.setdefault(i, []).append((j, b))
        prod: dict = {}
        for (i, m), a in ints[k - 1].items():
            for j, b in rows_of.get(m, ()):
                prod[i, j] = prod.get((i, j), 0) + a * b
        if any(prod.values()):
            raise InternalCheckError(f"d_{k-1} o d_{k} != 0 in the (n={n}, N={level}) complex")


@dataclass(frozen=True)
class HomologyResult:
    """H_k in the basis of the reps `_compute_homology` picks, and the
    free columns of d_{k+1}, which degree k + 1 starts from.

    Each rep is kept with its position, at which its class modulo
    im d_{k+1} is the unit vector; `express_cycle` reads a cycle's
    coordinates there.  `homology_reps` is derived from those pairs, so
    no other basis can be swapped in.
    """

    degree: int
    dimension: int
    _complex: GammaComplex
    _reps: tuple  # (position, cycle over bases[k]) per basis class of H_k
    _position: dict = dc_field(compare=False, repr=False)  # free column -> position
    _image: LinearSpan = dc_field(compare=False, repr=False)  # im d_{k+1} in positions
    _free_above: tuple = dc_field(compare=False, repr=False)  # d_{k+1}'s rejected columns

    @property
    def homology_reps(self) -> tuple:
        return tuple(rep for _, rep in self._reps)


def homology(cx: GammaComplex, k: int) -> HomologyResult:
    """H_k of the coinvariant complex, with an explicit representative basis.

    Computed once per (complex, k); later calls return the same result.
    """
    _check_degree(cx, k)
    result = cx.homology_memo.get(k)
    if result is None:
        result = cx.homology_memo[k] = _compute_homology(cx, k)
    return result


def _compute_homology(cx: GammaComplex, k: int) -> HomologyResult:
    """The basis vectors of ker d_k whose classes are independent modulo
    im d_{k+1}, in basis order and each with its position, the span of
    im d_{k+1} in positions, and the columns of d_{k+1} it rejected.

    ker d_k has one basis vector per free column c of the RREF of d_k, 1
    at c and 0 at the other free columns, so a cycle's coordinates are its
    entries at the free columns.  Degree k - 1 hands them up (at k = 0 all
    columns are free): its pass adds the columns of d_k in order, in free
    coordinates injective on ker d_{k-1}, which holds im d_k (build_complex
    checks d o d = 0), so it rejects those that depend on earlier ones:
    the free columns, as RREF pivots are the first column basis.  The free
    columns c_0 < ... < c_{f-1} sit at positions f-1, ..., 0, reversed, so
    that a `LinearSpan` pivot (a row's least position) is the last free
    column of an image vector: the kernel vector at c is independent of
    im d_{k+1} and of the vectors before it iff its position is no image
    pivot.  Its class, reduced against the image, is then the unit vector
    at its position.  d_k is row-reduced only if such a column is kept,
    and then only on its pivot and kept columns: a kept column depends
    only on the pivot columns before it, so it has the same pivots and
    the same RREF column without the other free columns.
    """
    f = cx.field
    ncols = cx.rank(k)
    free = homology(cx, k - 1)._free_above if k else range(ncols)
    top = len(free) - 1
    position = {c: top - j for j, c in enumerate(free)}
    cols: list = []  # the columns of d_{k+1}, in positions
    if k < cx.max_degree:
        cols = [{} for _ in range(cx.rank(k + 1))]
        for (i, c), x in cx.boundaries[k + 1].entries.items():
            if i in position:
                cols[c][position[i]] = x
    image = LinearSpan(f)
    free_above = tuple(c for c, col in enumerate(cols) if not image.add(col))
    kept = [c for c in free if position[c] not in image.rows]
    cycles = LinearSpan(f)
    if k and kept:
        d_k = cx.boundaries[k]
        dropped = set(free).difference(kept)
        cycles = row_span(SparseFieldMatrix(f, d_k.nrows, ncols, {
            rc: x for rc, x in d_k.entries.items() if rc[1] not in dropped}))
    reps = tuple(zip((position[c] for c in kept), cycles.kernel_vectors(kept, ncols)))
    return HomologyResult(k, len(reps), cx, reps, position, image, free_above)


def betti_numbers(cx: GammaComplex) -> dict:
    """dim H_k for every k, checked against the Euler characteristic of W_*."""
    betti = {k: homology(cx, k).dimension for k in range(cx.max_degree + 1)}
    if sum((-1) ** k * (cx.rank(k) - b) for k, b in betti.items()):
        raise InternalCheckError(f"Betti numbers {betti} miss the Euler characteristic of W_*")
    return betti


def is_cycle(cx: GammaComplex, k: int, vec) -> bool:
    _check_degree(cx, k)
    _check_length(cx, k, vec)
    if k == 0:
        return True
    image = cx.boundaries[k].matvec(vec)
    return all(x == cx.field.zero for x in image)


def express_cycle(result: HomologyResult, vec, want_witness: bool = False):
    """Coordinates of a cycle in the basis `result.homology_reps`.

    A cycle's class is its entries at the free columns, in positions,
    reduced against im d_{k+1}.  That leaves entries only at the rep
    positions, where each rep's class is the unit vector (see
    `_compute_homology`), so the coordinates are read there.  The input
    must be an exact cycle; it differs from the combination of reps by a
    boundary, and with want_witness its preimage on the first column
    basis of d_{k+1} is returned too.
    """
    cx = result._complex
    k = result.degree
    f = cx.field
    _check_length(cx, k, vec)
    if k or want_witness:  # is_cycle (k >= 1) and the witness solve read every entry
        vec = [f(x) for x in vec]
        if not is_cycle(cx, k, vec):
            bad = cx.boundaries[k].matvec(vec)
            raise ValueError(f"input is not a cycle; boundary = {bad}")
    # reduce clears ints as they are; anything else (a Fraction) is converted
    rest = result._image.reduce({p: x if type(x) is int else f(x)
                                 for i, p in result._position.items() if (x := vec[i])})
    coords = tuple(rest.pop(p, f.zero) for p, _ in result._reps)
    if rest:
        raise InternalCheckError("cycle not in image + homology span")
    if not want_witness:
        return coords
    if k == cx.max_degree:
        return coords, ()
    for c, rep in zip(coords, result.homology_reps):
        vec = [f(x - c * y) for x, y in zip(vec, rep)]
    witness = solve(cx.boundaries[k + 1], vec)  # coefficients over bases[k+1]
    if witness is None:
        raise InternalCheckError("cycle minus its homology part is not a boundary")
    return coords, witness


# ---------------------------------------------------------------------------
# Lifts between W_k coordinates and plain sharbly chains
# ---------------------------------------------------------------------------

def _check_degree(cx: GammaComplex, k: int):
    if not 0 <= k <= cx.max_degree:
        raise ValueError(f"degree {k} out of range 0..{cx.max_degree}")


def _check_length(cx: GammaComplex, k: int, vec):
    if len(vec) != cx.rank(k):
        raise ValueError(f"a W_{k} coordinate vector has {cx.rank(k)} entries, got {len(vec)}")


def theta_lift(cx: GammaComplex, k: int, vec) -> sh.SharblyChain:
    """Plain sharbly chain lifting a W_k coordinate vector.

    A generator is rep * gamma_p with gamma_p in SL(n,Z); the vertices of
    a non-degenerate cell are a normal-form key, so `sh.key_image` maps it.
    """
    _check_degree(cx, k)
    _check_length(cx, k, vec)
    out = sh.SharblyChain(cx.n, k)
    orbits = cx.table.orbits[k + cx.n - 1]
    for (o_idx, point), coeff in zip(cx.bases[k], vec):
        if coeff == cx.field.zero:
            continue
        gamma_p = cg.coset_matrix(point, cx.level)
        key, sign = sh.key_image(orbits[o_idx].representative.vertices, gamma_p)
        out.add_key(key, coeff * sign)
    return out


def _locate(cx: GammaComplex, d: int, cell: VoronoiCell):
    """(orbit, gamma) with orbit.representative * gamma = cell, or None when
    `cell` is no Voronoi cell of dimension d.

    Each representative of dimension d is tried with `equivalent_cells`,
    which caches every pair per process, so a cell located again costs no
    search.
    """
    for orb in cx.table.orbits[d]:
        gamma = equivalent_cells(orb.representative, cell)
        if gamma is not None:
            return orb, gamma
    return None


def _cell_coordinate(cx: GammaComplex, orb, gamma, cell: VoronoiCell):
    """(position in bases[k], sign) of the W_k generator of the cell
    orb.representative * gamma = cell, or None when its split orbit is
    killed by orientation."""
    space = cg.projective_space(cx.n, cx.level)
    pos, char = cx.labels[orb.dim, orb.index][space.index(la.first_column_cofactors(gamma))]
    if not char:
        return None
    return pos, char * _orientation_transport_sign(orb.representative, gamma, cell)


def chain_to_w(cx: GammaComplex, k: int, chain: sh.SharblyChain):
    """Coordinates in W_k of a Voronoi-supported plain chain.

    Every term must be the sharbly of an actual Voronoi cell; terms whose
    split orbit is killed by orientation contribute zero.  Each cell is
    read by `_locate` and `_cell_coordinate`, in every degree alike.
    """
    _check_degree(cx, k)
    if (chain.n, chain.k) != (cx.n, k):
        raise ValueError(
            f"expected a degree-{k} chain at n = {cx.n}, got degree {chain.k} at n = {chain.n}"
        )
    out = [0] * cx.rank(k)
    d = k + cx.n - 1
    for key, c in chain.coeffs.items():
        cell = VoronoiCell(cx.n, key)
        hit = _locate(cx, d, cell)
        if hit is None:
            raise ValueError(f"chain term {key} is not a Voronoi cell sharbly")
        term = _cell_coordinate(cx, *hit, cell)
        if term is not None:
            pos, sign = term
            out[pos] += c * sign
    return [cx.field(x) for x in out]


def is_voronoi_supported(cx: GammaComplex, chain: sh.SharblyChain) -> bool:
    d = chain.k + cx.n - 1
    return all(_locate(cx, d, VoronoiCell(cx.n, key)) is not None for key in chain.coeffs)


# ---------------------------------------------------------------------------
# JSON cache (complex-n{n}-N{N}-{field}.json)
# ---------------------------------------------------------------------------

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
                [r, c, coeff_str(v)]
                for (r, c), v in sorted(cx.boundaries[k].entries.items())
            ]
            for k in sorted(cx.boundaries)
        },
        "betti": {str(k): b for k, b in betti_numbers(cx).items()},
    }
    # compact separators keep json on its C encoder, which indent=1 would bypass
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

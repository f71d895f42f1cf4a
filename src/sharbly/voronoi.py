"""Voronoi cell complex of X_n^* modulo SL(n,Z).

Perfect forms are enumerated by Voronoi's neighbor walk starting from the
A_n form; the cell complex is generated top-down from the perfect cones,
with SL(n,Z)-orbit classification, stabilizers, orientations and signed
facet records.  For n <= 3 every cell is a simplex and the whole table is
a handful of orbits; n = 4 (one non-simplex top cell) is reachable through
the exact cone-facet backend but is gated off by default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import mul

from . import intlinalg as la
from .errors import InternalCheckError, UnsupportedError
from .intlinalg import Mat, Vec


# ---------------------------------------------------------------------------
# Symmetric-space coordinates and ranks, pivots and kernels on the HNF
# ---------------------------------------------------------------------------

def sym_coords(v: Vec) -> tuple:
    """The rank-1 form v^T v, flattened over index pairs i <= j."""
    n = len(v)
    return tuple(v[i] * v[j] for i in range(n) for j in range(i, n))


def _rank_of_rows(rows) -> int:
    """Rank over Q of a list of integer row vectors.

    With r = min(#rows, #columns), a nonzero leading r x r minor already
    means rank r; only when it vanishes is the rank counted as the nonzero
    rows of the HNF.
    """
    r = min(len(rows), len(rows[0])) if rows else 0
    if la.det([row[:r] for row in rows[:r]]):
        return r
    return sum(1 for row in la.hnf(rows)[0] if any(row))


def _independent_rows(rows):
    """(pivots, kernel) of a nonempty list of integer row vectors, read off
    the HNF U * rows^T = H of the transpose.

    The pivot columns of H are the indices of the rows that grow the span
    of the rows before them, in order; the rows of U below the rank span
    the right kernel of `rows` over Z (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4).
    """
    h, u = la.hnf(tuple(zip(*rows)))
    pivots = tuple(next(j for j, x in enumerate(row) if x) for row in h if any(row))
    return pivots, u[len(pivots):]


def _cone_facets(gens):
    """Facets of the cone spanned by the rows `gens`, of full rank D: a dict
    from the indices of the generators on each facet to an inward normal.

    A normal spans the kernel of D - 1 generators; a kernel of dimension one
    already means they have rank D - 1, so no separate rank test is needed.
    """
    facets = {}
    for subset in combinations(range(len(gens)), len(gens[0]) - 1):
        kernel = _independent_rows([gens[i] for i in subset])[1]
        if len(kernel) != 1:
            continue
        normal = kernel[0]
        values = [sum(a * b for a, b in zip(g, normal)) for g in gens]
        if all(x <= 0 for x in values):
            normal = tuple(-x for x in normal)
        elif not all(x >= 0 for x in values):
            continue
        facets.setdefault(tuple(i for i, x in enumerate(values) if x == 0), normal)
    return facets


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VoronoiCell:
    """sigma(v_1, ..., v_m), stored as the sorted sign-normalized vertex set."""

    n: int
    vertices: tuple  # sorted tuple of primitive sign-normalized row vectors

    @classmethod
    def from_vectors(cls, n: int, vectors) -> "VoronoiCell":
        verts = sorted({la.primitivize(tuple(v)) for v in vectors})
        return cls(n, tuple(verts))

    def __len__(self):
        return len(self.vertices)


@lru_cache(maxsize=None)
def cell_dim(cell: VoronoiCell) -> int:
    """Dimension of the cell in X_n^* (projectivized cone dimension)."""
    return _rank_of_rows([sym_coords(v) for v in cell.vertices]) - 1


@lru_cache(maxsize=None)
def is_degenerate(cell: VoronoiCell) -> bool:
    """True iff the vertices do not span Q^n (the cell lies in the boundary)."""
    return _rank_of_rows(cell.vertices) < cell.n


@lru_cache(maxsize=None)
def is_simplex(cell: VoronoiCell) -> bool:
    return cell_dim(cell) + 1 == len(cell.vertices)


@lru_cache(maxsize=None)
def barycenter_form(cell: VoronoiCell) -> Mat:
    """Sum of v^T v over the vertices; positive definite iff non-degenerate."""
    n = cell.n
    g = [[0] * n for _ in range(n)]
    for v in cell.vertices:
        for i in range(n):
            for j in range(n):
                g[i][j] += v[i] * v[j]
    return la.freeze(g)


@lru_cache(maxsize=None)
def _adj_and_det(cell: VoronoiCell):
    g = barycenter_form(cell)
    return la.adjugate(g), la.det(g)


@lru_cache(maxsize=None)
def _pairing_table(cell: VoronoiCell) -> Mat:
    """P[i][j] = v_i * adj(g) * v_j^T for the vertices v of the cell and
    g = `barycenter_form(cell)`; symmetric, since adj(g) is."""
    adj, _ = _adj_and_det(cell)
    rows = [la.vec_mat(v, adj) for v in cell.vertices]
    return tuple(tuple(sum(map(mul, row, w)) for w in cell.vertices) for row in rows)


@lru_cache(maxsize=None)
def cell_signature(cell: VoronoiCell):
    """GL(n,Z)-invariant fingerprint used to pre-filter equivalence tests.

    A gamma in GL(n,Z) with {+-c} * gamma = {+-c'} carries g(c) to
    gamma^T g(c) gamma = g(c'), so it keeps det g and, vertex by vertex,
    the pairing table up to the signs s_i s_j: its diagonal and the
    |off-diagonal| entries are invariants.  That is why the signature
    also pre-filters `cell_stabilizer`'s det -1 maps.
    """
    _, d = _adj_and_det(cell)
    p = _pairing_table(cell)
    m = len(p)
    diag = sorted(p[i][i] for i in range(m))
    off = sorted(abs(p[i][j]) for i in range(m) for j in range(i))
    return (cell.n, m, cell_dim(cell), d, tuple(diag), tuple(off))


@lru_cache(maxsize=None)
def _frame(cell: VoronoiCell):
    """(pivots, adj(S), det S): the indices of the first n vertices forming
    a basis of Q^n, and the adjugate and determinant of their matrix S."""
    pivots = _independent_rows(cell.vertices)[0]
    if len(pivots) < cell.n:
        raise ValueError("degenerate cell has no vertex basis")
    s = la.freeze([cell.vertices[i] for i in pivots])
    return pivots, la.adjugate(s), la.det(s)


def _vertex_maps(src: VoronoiCell, dst: VoronoiCell, dets, limit=None):
    """All gamma with {+-src} * gamma = {+-dst} setwise and det gamma in dets.

    Backtracks over signed images s * w_i of src's pivot vertices (`_frame`),
    destination vertices in sorted order and s = +1 before -1.  Any such
    gamma keeps the pairing table up to the signs, so a candidate is pruned
    by comparing s_u * s * P_dst[i_u][i] with P_src at the pivots
    (`_pairing_table` of each cell, cached).  A full choice of images gives
    gamma = S^-1 * (images), kept when it is integral, its det is in dets
    and it carries the vertex set of src onto that of dst.

    For that last test only the non-pivot vertices are mapped.  A gamma
    with det in dets is invertible and carries each pivot onto the
    destination vertex picked for it, so src's vertices go to distinct
    lines; the signature gives |src| = |dst|, so the vertex sets agree iff
    every non-pivot image lies in dst.
    """
    if cell_signature(src) != cell_signature(dst):
        return
    pivots, adj_s, det_s = _frame(src)
    p_src = _pairing_table(src)
    p_dst = _pairing_table(dst)
    n = src.n
    want = [[p_src[a][b] for b in pivots] for a in pivots]
    candidates = [
        [(i, s) for i in range(len(p_dst)) if p_dst[i][i] == want[t][t] for s in (1, -1)]
        for t in range(n)
    ]
    rest = [v for i, v in enumerate(src.vertices) if i not in pivots]
    dst_set = set(dst.vertices)
    emitted = 0
    picked: list = []  # (destination index, sign) per pivot chosen so far

    def extend(t):
        nonlocal emitted
        if limit is not None and emitted >= limit:
            return
        if t == n:
            images = [tuple(s * x for x in dst.vertices[i]) for i, s in picked]
            num = la.mat_mul(adj_s, images)
            if any(x % det_s for row in num for x in row):
                return
            gamma = tuple(tuple(x // det_s for x in row) for row in num)
            if la.det(gamma) not in dets:
                return
            if any(la.sign_normalize(la.vec_mat(v, gamma)) not in dst_set for v in rest):
                return
            emitted += 1
            yield gamma
            return
        for i, s in candidates[t]:
            if any(s_u * s * p_dst[i_u][i] != want[u][t] for u, (i_u, s_u) in enumerate(picked)):
                continue
            picked.append((i, s))
            yield from extend(t + 1)
            picked.pop()

    yield from extend(0)


@lru_cache(maxsize=None)
def equivalent_cells(c1: VoronoiCell, c2: VoronoiCell, dets=(1,)):
    """A witness gamma (det in dets) with c1 * gamma = c2, or None: the first
    map of `_vertex_maps`.  It depends on the cells alone, so it is cached
    per process, and a pair asked for again is not searched again."""
    if c1.n != c2.n or len(c1) != len(c2) or cell_dim(c1) != cell_dim(c2):
        return None
    for gamma in _vertex_maps(c1, c2, dets=dets, limit=1):
        return gamma
    return None


@lru_cache(maxsize=None)
def cell_stabilizer(cell: VoronoiCell):
    """(gl_elements, sl_elements) of GL(n,Z) preserving the +-vertex set."""
    if is_degenerate(cell):
        raise ValueError("stabilizer computed for non-degenerate cells only")
    gl = tuple(sorted(_vertex_maps(cell, cell, dets=(1, -1))))
    sl = tuple(g for g in gl if la.det(g) == 1)
    return gl, sl


@lru_cache(maxsize=None)
def orientation_basis(cell: VoronoiCell) -> tuple:
    """First dim+1 sorted vertices whose rank-1 forms are independent."""
    idx = _independent_rows([sym_coords(v) for v in cell.vertices])[0]
    if len(idx) != cell_dim(cell) + 1:
        raise InternalCheckError("cell rank dropped while extracting a basis")
    return tuple(cell.vertices[i] for i in idx)


@lru_cache(maxsize=None)
def _orientation_minor(cell: VoronoiCell):
    """(J, det B_J, K) for the rank-1 forms B of cell's orientation basis:
    the first columns J on which they are independent, the determinant of
    B restricted to J, and a basis K of the right kernel of B.  A form lies
    in the span of B iff K annihilates it."""
    basis = [sym_coords(v) for v in orientation_basis(cell)]
    cols = _independent_rows(list(zip(*basis)))[0]
    minor = la.det([[row[j] for j in cols] for row in basis])
    return cols, minor, _independent_rows(basis)[1]


def orientation_char(cell: VoronoiCell, gamma: Mat) -> int:
    """Sign of the action of a vertex-set-preserving gamma on orientation."""
    return _orientation_transport_sign(cell, gamma, cell)


def _orientation_transport_sign(rep: VoronoiCell, gamma: Mat, facet: VoronoiCell) -> int:
    """Sign eta with or(rep) * gamma = eta * or(facet)."""
    if is_simplex(rep):
        order = {v: i for i, v in enumerate(facet.vertices)}
        perm = [order.get(la.sign_normalize(la.vec_mat(v, gamma))) for v in rep.vertices]
        if None in perm or len(perm) != len(order):
            raise InternalCheckError(f"{rep.vertices} * {gamma} is not +-{facet.vertices}")
        return _perm_sign(perm)
    images = [sym_coords(la.vec_mat(v, gamma)) for v in orientation_basis(rep)]
    return _sign_in_basis(facet, images, "transported orientation left the facet span")


def _geometric_incidence_sign(cell: VoronoiCell, facet: VoronoiCell) -> int:
    """Sign of facet inside the boundary of cell, canonical orientations.

    +1 iff (w, or-basis(facet)) matches or-basis(cell), with w the sum of
    rank-1 forms of the cell vertices off the facet.  For a simplex this is
    the usual alternating sign of the vertex deletion.
    """
    off = [v for v in cell.vertices if v not in set(facet.vertices)]
    if not off:
        raise InternalCheckError("facet equals the cell")
    w = [sum(col) for col in zip(*(sym_coords(v) for v in off))]
    rows = [w] + [sym_coords(v) for v in orientation_basis(facet)]
    return _sign_in_basis(cell, rows, "facet does not lie in the cell span")


def _sign_in_basis(cell: VoronoiCell, rows, failure: str) -> int:
    """Sign of the determinant of the coordinates C of `rows` in the rank-1
    forms B of cell's orientation basis; InternalCheckError(failure) when a
    row lies outside their span.

    rows = C * B, so on the columns J of `_orientation_minor` the minors
    satisfy det rows_J = det C * det B_J, and no coordinate is solved for.
    """
    cols, minor, kernel = _orientation_minor(cell)
    if any(sum(map(mul, row, k)) for row in rows for k in kernel):
        raise InternalCheckError(failure)
    d = la.det([[row[j] for j in cols] for row in rows]) * minor
    return (d > 0) - (d < 0)


# ---------------------------------------------------------------------------
# Perfect forms and the Voronoi neighbor walk
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerfectForm:
    gram: Mat
    minimum: int
    min_vectors: tuple  # sign-normalized, one per +- pair, sorted


def minimal_vectors(q: Mat):
    """(minimum, minimizers up to sign) of a positive definite form."""
    bound = min(q[i][i] for i in range(len(q)))
    vs = la.short_vectors(q, bound)
    minimum = min(la.quadratic_value(q, v) for v in vs)
    return minimum, tuple(v for v in vs if la.quadratic_value(q, v) == minimum)


def perfection_rank(p: PerfectForm) -> int:
    return _rank_of_rows([sym_coords(v) for v in p.min_vectors])


def _primitive_integer_sym(rows) -> Mat:
    """Divide an integer symmetric matrix by the gcd of its entries."""
    g = gcd(*(x for row in rows for x in row))
    return la.freeze([[x // g for x in row] for row in rows])


def _facet_normals(p: PerfectForm):
    """Primitive symmetric R vanishing on a facet of Dom(p), >= 0 on Min(p).

    This also handles the non-simplicial domain of D4.
    """
    n = len(p.gram)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    normals = set()
    for u in _cone_facets([sym_coords(v) for v in p.min_vectors]).values():
        # v R v^T = sym_coords(v) . u with u_ii = R_ii and u_ij = 2 R_ij
        r2 = [[0] * n for _ in range(n)]
        for (i, j), coeff in zip(pairs, u):
            r2[i][j] = r2[j][i] = 2 * coeff if i == j else coeff
        normals.add(_primitive_integer_sym(r2))
    return sorted(normals)


def _neighbor_form(p: PerfectForm, direction: Mat) -> PerfectForm:
    """Walk P + t * R across a facet to the contiguous perfect form.

    For t = a/b in lowest terms the walk works with the int form
    b * P + a * R, which has the short vectors of P + t * R at bound b * m.
    """
    n = len(p.gram)
    m = p.minimum

    def rval(v):
        return la.quadratic_value(direction, v)

    def pval(v):
        return la.quadratic_value(p.gram, v)

    t_bad = None  # some t where P + t*R stopped being positive definite
    t = Fraction(1)
    while True:
        a, b = t.numerator, t.denominator
        q = la.freeze([[b * p.gram[i][j] + a * direction[i][j] for j in range(n)] for i in range(n)])
        if not la.is_positive_definite(q):
            t_bad = t
            t = t / 2
            continue
        shorts = la.short_vectors(q, m * b)
        below = [v for v in shorts if la.quadratic_value(q, v) < m * b]
        if below:
            t = min(Fraction(m - pval(v), rval(v)) for v in below)
            if t <= 0:  # a minimal vector of P loses value along the direction
                raise InternalCheckError("direction is not an inward facet normal")
            continue
        if any(la.quadratic_value(q, v) == m * b and pval(v) != m for v in shorts):
            g = _primitive_integer_sym(q)
            return PerfectForm(g, *minimal_vectors(g))
        t = 2 * t if t_bad is None else (t + t_bad) / 2


def _forms_equivalent_gl(p: PerfectForm, q: PerfectForm) -> bool:
    """GL(n,Z)-equivalence of perfect forms, decided on their top cells."""
    if (p.minimum, len(p.min_vectors)) != (q.minimum, len(q.min_vectors)):
        return False
    c1 = VoronoiCell.from_vectors(len(p.gram), p.min_vectors)
    c2 = VoronoiCell.from_vectors(len(q.gram), q.min_vectors)
    return equivalent_cells(c1, c2, dets=(1, -1)) is not None


def perfect_forms(n: int) -> list[PerfectForm]:
    """One perfect form per GL(n,Z)-equivalence class, by neighbor walk."""
    if not 2 <= n <= 4:
        raise UnsupportedError(
            f"perfect form enumeration supports 2 <= n <= 4, got {n}"
        )
    sym_dim = n * (n + 1) // 2
    a_n = tuple(tuple(2 if i == j else 1 for j in range(n)) for i in range(n))
    start = PerfectForm(a_n, *minimal_vectors(a_n))
    if perfection_rank(start) != sym_dim:
        raise InternalCheckError("starting form is not perfect")
    known = [start]
    queue = [start]
    while queue:
        p = queue.pop(0)
        for direction in _facet_normals(p):
            q = _neighbor_form(p, direction)
            if perfection_rank(q) != sym_dim:
                raise InternalCheckError("walk produced a non-perfect form")
            if not any(_forms_equivalent_gl(q, k) for k in known):
                known.append(q)
                queue.append(q)
    return sorted(known, key=lambda f: (f.minimum, f.gram))


# ---------------------------------------------------------------------------
# The cell complex table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FacetRecord:
    orbit: int  # index into the (d-1)-dimensional orbit list
    gamma: Mat  # representative_of(orbit) * gamma = the facet, as +-sets
    sign: int


@dataclass(frozen=True)
class CellOrbit:
    """One SL(n,Z)-orbit of cells.  Its stabilizers, and the generators with
    their orientation characters, are read from the representative, by
    `cell_stabilizer` and `stabilizer_generators`, which cache them per
    cell."""

    dim: int
    index: int
    representative: VoronoiCell
    facets: tuple  # FacetRecords


@dataclass(frozen=True)
class CellComplexTable:
    n: int
    orbits: dict  # dim -> tuple of CellOrbit

    def top_dim(self) -> int:
        return self.n * (self.n + 1) // 2 - 1


def _facet_cells(cell: VoronoiCell):
    """Non-degenerate facets of a cell with their incidence signs."""
    out = []
    if is_simplex(cell):
        verts = cell.vertices
        for i in range(len(verts)):
            f = VoronoiCell(cell.n, verts[:i] + verts[i + 1:])
            if not is_degenerate(f):
                out.append((f, (-1) ** i))
        return out
    # non-simplex: the facets of the cone on the columns J of its orientation
    # minor, a projection that is one-to-one on the cone's span
    cols = _orientation_minor(cell)[0]
    gens = [[row[j] for j in cols] for row in map(sym_coords, cell.vertices)]
    for on_facet in sorted(_cone_facets(gens)):
        f = VoronoiCell(cell.n, tuple(cell.vertices[i] for i in on_facet))
        if not is_degenerate(f):
            out.append((f, _geometric_incidence_sign(cell, f)))
    return out


def _facet_record(facet, incidence, orbit, gamma, reps) -> FacetRecord:
    """The record of `facet` = reps[orbit] * gamma, where `incidence` is the
    facet's sign in its cell and `reps` the orbit representatives below."""
    eta = _orientation_transport_sign(reps[orbit], gamma, facet)
    return FacetRecord(orbit, gamma, incidence * eta)


def generating_subset(elements) -> tuple:
    """Indices of a generating set of the finite matrix group `elements`.

    Walks the elements in order and keeps one when it is not in the group
    generated by those kept before it.  That group H is closed under the
    earlier generators, so a new generator g grows it incrementally: first
    H * g, then each element added times every kept generator, which
    closes it as a set.  Raises InternalCheckError unless the kept elements
    generate exactly the set of `elements`.
    """
    group = {la.identity(len(elements[0]))}
    kept = []
    gens = []
    for i, g in enumerate(elements):
        if g in group:
            continue
        kept.append(i)
        gens.append(g)
        new = [b for b in (la.mat_mul(a, g) for a in group) if b not in group]
        group.update(new)
        for a in new:
            for s in gens:
                b = la.mat_mul(a, s)
                if b not in group:
                    group.add(b)
                    new.append(b)
    if group != set(elements):
        raise InternalCheckError(
            f"{len(kept)} kept elements generate a group of order {len(group)}, "
            f"not the {len(set(elements))} given"
        )
    return tuple(kept)


@lru_cache(maxsize=None)
def stabilizer_generators(rep: VoronoiCell) -> tuple:
    """(gamma, character) for a generating set of rep's SL(n,Z) stabilizer:
    the `generating_subset` of `cell_stabilizer(rep)[1]`, each element with
    its `orientation_char`, which is computed for these generators only.
    It does not depend on a level."""
    sl = cell_stabilizer(rep)[1]
    return tuple((sl[i], orientation_char(rep, sl[i])) for i in generating_subset(sl))


def enumerate_cells(n: int, nonsimplex_backend: bool = False) -> CellComplexTable:
    """All non-degenerate cell orbits in dimensions n-1 .. n(n+1)/2 - 1."""
    if n == 4 and not nonsimplex_backend:
        raise UnsupportedError(
            "n = 4 has a non-simplex top cell; pass nonsimplex_backend=True "
            "to enable the exact cone-facet backend (experimental)"
        )
    if n not in (2, 3, 4):
        raise UnsupportedError(f"cell enumeration supports n in {{2, 3}} (4 gated), got {n}")

    top_dim = n * (n + 1) // 2 - 1
    reps: dict[int, list[VoronoiCell]] = {d: [] for d in range(n - 1, top_dim + 1)}

    def classify(d, cell):
        for index, rep in enumerate(reps[d]):
            gamma = equivalent_cells(rep, cell)
            if gamma is not None:
                return index, gamma
        reps[d].append(cell)
        return len(reps[d]) - 1, la.identity(n)

    for form in perfect_forms(n):
        cell = VoronoiCell.from_vectors(n, form.min_vectors)
        if cell_dim(cell) != top_dim:
            raise InternalCheckError("perfect cone has the wrong dimension")
        classify(top_dim, cell)

    # every facet of an (n-1)-cell is degenerate, so classify never looks below it
    orbits = {}
    for d in range(top_dim, n - 2, -1):
        orbits[d] = []
        for index, rep in enumerate(reps[d]):
            if n <= 3 and not is_simplex(rep):
                raise InternalCheckError(f"non-simplex cell for n = {n}")
            facets = [
                _facet_record(f, incidence, *classify(d - 1, f), reps[d - 1])
                for f, incidence in _facet_cells(rep)
            ]
            orbits[d].append(CellOrbit(d, index, rep, tuple(facets)))
    return CellComplexTable(n, {d: tuple(orbits[d]) for d in sorted(orbits)})


# ---------------------------------------------------------------------------
# JSON export (cells-n{n}.json)
# ---------------------------------------------------------------------------

def cells_to_json(table: CellComplexTable) -> str:
    doc = {
        "n": table.n,
        "dimensions": {
            str(d): [
                {
                    "vertices": [list(v) for v in orb.representative.vertices],
                    "stabilizer_order": len(cell_stabilizer(orb.representative)[0]),
                    "sl_stabilizer_order": len(cell_stabilizer(orb.representative)[1]),
                    "facets": [
                        {
                            "orbit": fr.orbit,
                            "gamma": [list(row) for row in fr.gamma],
                            "sign": fr.sign,
                        }
                        for fr in orb.facets
                    ],
                }
                for orb in table.orbits[d]
            ]
            for d in sorted(table.orbits)
        },
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def cells_from_json(text: str) -> CellComplexTable:
    """`enumerate_cells(n)` for the n of `text`, which must be 2 or 3 and
    `text` exactly `cells_to_json` of that table; any other text raises
    ValueError.  The CLI computes its table and only writes the file."""
    doc = json.loads(text)
    n = doc.get("n") if isinstance(doc, dict) else None
    if type(n) is not int or n not in (2, 3):
        raise ValueError(f"cell table n = {n!r} is not the int 2 or 3")
    table = enumerate_cells(n)
    if cells_to_json(table) != text:
        raise ValueError(f"text is not the n = {n} cell table as cells_to_json writes it")
    return table

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
from math import gcd, lcm

from . import intlinalg as la
from .errors import InternalCheckError, UnsupportedError
from .fields import QQ, LinearSpan, SparseFieldMatrix, rank, rank_kernel, solve
from .intlinalg import Mat, Vec


# ---------------------------------------------------------------------------
# Symmetric-space coordinates and exact rational helpers
# ---------------------------------------------------------------------------

def sym_coords(v: Vec) -> tuple:
    """The rank-1 form v^T v, flattened over index pairs i <= j."""
    n = len(v)
    return tuple(v[i] * v[j] for i in range(n) for j in range(i, n))


def _rank_of_rows(rows) -> int:
    """Rank over Q of a list of integer row vectors."""
    return rank(SparseFieldMatrix.from_dense(QQ, rows))


def _first_independent(rows, count: int):
    """Indices of the first `count` rows independent over Q, taken greedily:
    a row is kept when it grows the span of the rows kept before it.  None
    when the rows span less than `count` dimensions."""
    span = LinearSpan(QQ)
    picked = []
    for i, row in enumerate(rows):
        if span.add(dict(enumerate(row))):
            picked.append(i)
            if len(picked) == count:
                return tuple(picked)
    return None


def _solve_in_basis(basis_rows, targets):
    """Coordinates of each target row in the Q-span of the independent
    basis_rows, or None if some target lies outside it."""
    mat = SparseFieldMatrix.from_dense(QQ, list(zip(*basis_rows)))
    coords = [solve(mat, t) for t in targets]
    return None if None in coords else coords


def _kernel_of_rows(rows):
    """Basis of the right kernel of a rational row matrix."""
    return rank_kernel(SparseFieldMatrix.from_dense(QQ, rows))[1]


def _det_sign(rows) -> int:
    """Sign of the determinant of a square rational matrix.

    Scaling a row by the positive lcm of its denominators keeps the sign.
    """
    ints = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        ints.append([int(x * den) for x in row])
    d = la.det(la.freeze(ints))
    return (d > 0) - (d < 0)


def _is_posdef_fraction(g_rows) -> bool:
    n = len(g_rows)
    return all(
        _det_sign([row[: k + 1] for row in g_rows[: k + 1]]) > 0
        for k in range(n)
    )


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
    return _rank_of_rows(list(cell.vertices)) < cell.n


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


def _pair_product(cell, adj, i, j):
    vi, vj = cell.vertices[i], cell.vertices[j]
    return sum(vi[a] * adj[a][b] * vj[b] for a in range(cell.n) for b in range(cell.n))


@lru_cache(maxsize=None)
def cell_signature(cell: VoronoiCell):
    """SL-invariant fingerprint used to pre-filter equivalence tests."""
    adj, d = _adj_and_det(cell)
    m = len(cell.vertices)
    diag = sorted(_pair_product(cell, adj, i, i) for i in range(m))
    off = sorted(abs(_pair_product(cell, adj, i, j)) for i in range(m) for j in range(i))
    return (cell.n, m, cell_dim(cell), d, tuple(diag), tuple(off))


@lru_cache(maxsize=None)
def _pivot_indices(cell: VoronoiCell) -> tuple:
    """Indices of the first n vertices forming a basis of Q^n."""
    idx = _first_independent(cell.vertices, cell.n)
    if idx is None:
        raise ValueError("degenerate cell has no vertex basis")
    return idx


def _vertex_maps(src: VoronoiCell, dst: VoronoiCell, dets, limit=None):
    """All gamma with {+-src} * gamma = {+-dst} setwise and det gamma in dets.

    Backtracks over signed images of a vertex basis of src, pruning with the
    barycenter-adjugate pairing, which any such gamma must preserve.
    """
    if cell_signature(src) != cell_signature(dst):
        return
    n = src.n
    adj_s, _ = _adj_and_det(src)
    adj_d, _ = _adj_and_det(dst)
    pivots = _pivot_indices(src)
    signed = [tuple(s * x for x in v) for v in dst.vertices for s in (1, -1)]
    src_prod = [[_pair_product(src, adj_s, i, j) for j in pivots] for i in pivots]

    def dprod(u, w):
        return sum(u[a] * adj_d[a][b] * w[b] for a in range(n) for b in range(n))

    dst_set = set(dst.vertices)
    s_mat = la.freeze([src.vertices[i] for i in pivots])
    det_s = la.det(s_mat)
    adj_sm = la.adjugate(s_mat)
    emitted = 0
    picked: list = []

    def extend(t):
        nonlocal emitted
        if limit is not None and emitted >= limit:
            return
        if t == n:
            num = la.mat_mul(adj_sm, la.freeze(picked))
            if any(x % det_s for row in num for x in row):
                return
            gamma = tuple(tuple(x // det_s for x in row) for row in num)
            if la.det(gamma) not in dets:
                return
            image = {la.sign_normalize(la.vec_mat(v, gamma)) for v in src.vertices}
            if image != dst_set:
                return
            emitted += 1
            yield gamma
            return
        for w in signed:
            if dprod(w, w) != src_prod[t][t]:
                continue
            if any(dprod(picked[u], w) != src_prod[u][t] for u in range(t)):
                continue
            picked.append(w)
            yield from extend(t + 1)
            picked.pop()

    yield from extend(0)


def equivalent_cells(c1: VoronoiCell, c2: VoronoiCell, dets=(1,)):
    """A witness gamma (det in dets) with c1 * gamma = c2, or None."""
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
    idx = _first_independent([sym_coords(v) for v in cell.vertices], cell_dim(cell) + 1)
    if idx is None:
        raise InternalCheckError("cell rank dropped while extracting a basis")
    return tuple(cell.vertices[i] for i in idx)


def orientation_char(cell: VoronoiCell, gamma: Mat) -> int:
    """Sign of the action of a vertex-set-preserving gamma on orientation."""
    return _orientation_transport_sign(cell, gamma, cell)


def _orientation_transport_sign(rep: VoronoiCell, gamma: Mat, facet: VoronoiCell) -> int:
    """Sign eta with or(rep) * gamma = eta * or(facet)."""
    if is_simplex(rep):
        order = {v: i for i, v in enumerate(facet.vertices)}
        perm = [order[la.sign_normalize(la.vec_mat(v, gamma))] for v in rep.vertices]
        return _perm_sign(perm)
    basis_imgs = [sym_coords(la.vec_mat(v, gamma)) for v in orientation_basis(rep)]
    facet_basis = [sym_coords(v) for v in orientation_basis(facet)]
    coords = _solve_in_basis(facet_basis, basis_imgs)
    if coords is None:
        raise InternalCheckError("transported orientation left the facet span")
    return _det_sign(coords)


def _geometric_incidence_sign(cell: VoronoiCell, facet: VoronoiCell) -> int:
    """Sign of facet inside the boundary of cell, canonical orientations.

    +1 iff (w, or-basis(facet)) matches or-basis(cell), with w the sum of
    rank-1 forms of the cell vertices off the facet.  For a simplex this is
    the usual alternating sign of the vertex deletion.
    """
    cell_basis = [sym_coords(v) for v in orientation_basis(cell)]
    facet_basis = [sym_coords(v) for v in orientation_basis(facet)]
    off = [v for v in cell.vertices if v not in set(facet.vertices)]
    if not off:
        raise InternalCheckError("facet equals the cell")
    w = [sum(col) for col in zip(*(sym_coords(v) for v in off))]
    coords = _solve_in_basis(cell_basis, [w] + facet_basis)
    if coords is None:
        raise InternalCheckError("facet does not lie in the cell span")
    return _det_sign(coords)


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
    if not la.is_positive_definite(q):
        raise ValueError("form is not positive definite")
    bound = min(q[i][i] for i in range(len(q)))
    vs = la.short_vectors(q, bound)
    minimum = min(la.quadratic_value(q, v) for v in vs)
    return minimum, tuple(v for v in vs if la.quadratic_value(q, v) == minimum)


def _perfect_form_from_gram(g: Mat) -> PerfectForm:
    minimum, vecs = minimal_vectors(g)
    return PerfectForm(g, minimum, vecs)


def perfection_rank(p: PerfectForm) -> int:
    return _rank_of_rows([sym_coords(v) for v in p.min_vectors])


def _a_n_gram(n: int) -> Mat:
    return tuple(tuple(2 if i == j else 1 for j in range(n)) for i in range(n))


def _primitive_integer_sym(rows_fr) -> Mat:
    """Scale a rational symmetric matrix to a primitive integer one."""
    den = 1
    for row in rows_fr:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    ints = [[int(x * den) for x in row] for row in rows_fr]
    g = 0
    for row in ints:
        for x in row:
            g = gcd(g, x)
    return la.freeze([[x // g for x in row] for row in ints])


def _facet_normals(p: PerfectForm):
    """Primitive symmetric R vanishing on a facet of Dom(p), >= 0 on Min(p).

    Facets are found as rank-(D-1) subsets of the minimal vectors, D being
    the dimension of the space of symmetric matrices; this also handles the
    non-simplicial domain of D4.
    """
    n = len(p.gram)
    sym_dim = n * (n + 1) // 2
    gens = [sym_coords(v) for v in p.min_vectors]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    normals = {}
    for subset in combinations(range(len(gens)), sym_dim - 1):
        rows = [gens[i] for i in subset]
        if _rank_of_rows(rows) != sym_dim - 1:
            continue
        # v R v^T = sym_coords(v) . u with u_ii = R_ii and u_ij = 2 R_ij
        kernel = _kernel_of_rows(rows)
        if len(kernel) != 1:
            continue
        u = kernel[0]
        values = [sum(a * b for a, b in zip(g_, u)) for g_ in gens]
        if all(x <= 0 for x in values):
            u = [-x for x in u]
            values = [-x for x in values]
        elif not all(x >= 0 for x in values):
            continue
        r_rows = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), coeff in zip(pairs, u):
            if i == j:
                r_rows[i][i] = Fraction(coeff)
            else:
                r_rows[i][j] = r_rows[j][i] = Fraction(coeff, 2)
        normals[_primitive_integer_sym(r_rows)] = True
    return sorted(normals)


def _rational_short_vectors(g_rows, bound: Fraction):
    """Vectors v != 0 (up to sign) with v*G*v^T <= bound, G rational."""
    den = 1
    for row in g_rows:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    bden = bound.denominator
    scale = den * bden // gcd(den, bden)
    g_int = la.freeze([[int(x * scale) for x in row] for row in g_rows])
    return la.short_vectors(g_int, int(bound * scale))


def _neighbor_form(p: PerfectForm, direction: Mat) -> PerfectForm:
    """Walk P + t * R across a facet to the contiguous perfect form."""
    n = len(p.gram)
    m = p.minimum

    def at(t: Fraction):
        return [
            [Fraction(p.gram[i][j]) + t * direction[i][j] for j in range(n)]
            for i in range(n)
        ]

    def rval(v):
        return la.quadratic_value(direction, v)

    def pval(v):
        return la.quadratic_value(p.gram, v)

    t_bad = None  # some t where P + t*R stopped being positive definite
    t = Fraction(1)
    while True:
        q_rows = at(t)
        if not _is_posdef_fraction(q_rows):
            t_bad = t
            t = t / 2
            continue
        shorts = _rational_short_vectors(q_rows, Fraction(m))
        below = [v for v in shorts if Fraction(pval(v)) + t * rval(v) < m]
        if below:
            t = min(Fraction(m - pval(v), rval(v)) for v in below)
            continue
        new_vecs = [
            v for v in shorts
            if Fraction(pval(v)) + t * rval(v) == m and pval(v) != m
        ]
        if new_vecs:
            return _perfect_form_from_gram(_primitive_integer_sym(q_rows))
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
    start = _perfect_form_from_gram(_a_n_gram(n))
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
    dim: int
    index: int
    representative: VoronoiCell
    gl_stabilizer: tuple
    sl_stabilizer: tuple
    sl_orientation_chars: tuple  # aligned with sl_stabilizer
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
    # non-simplex: exact facet enumeration of the cone within its span
    gens = [sym_coords(v) for v in cell.vertices]
    basis = [sym_coords(v) for v in orientation_basis(cell)]
    coords_all = _solve_in_basis(basis, gens)
    d_rank = cell_dim(cell) + 1
    facet_vertex_sets = set()
    for subset in combinations(range(len(gens)), d_rank - 1):
        sub_rows = [coords_all[i] for i in subset]
        kern = _kernel_of_rows(sub_rows)
        if len(kern) != 1:
            continue
        phi = kern[0]
        values = [sum(a * b for a, b in zip(row, phi)) for row in coords_all]
        if all(x <= 0 for x in values):
            values = [-x for x in values]
        elif not all(x >= 0 for x in values):
            continue
        facet_vertex_sets.add(
            tuple(v for v, x in zip(cell.vertices, values) if x == 0)
        )
    for verts in sorted(facet_vertex_sets):
        f = VoronoiCell(cell.n, verts)
        if not is_degenerate(f):
            out.append((f, _geometric_incidence_sign(cell, f)))
    return out


class _OrbitBuilder:
    def __init__(self, dim, index, representative):
        self.dim = dim
        self.index = index
        self.representative = representative
        gl, sl = cell_stabilizer(representative)
        self.gl_stabilizer = gl
        self.sl_stabilizer = sl
        self.sl_orientation_chars = tuple(
            orientation_char(representative, g) for g in sl
        )
        self.facets = []

    def freeze(self) -> CellOrbit:
        return CellOrbit(
            dim=self.dim,
            index=self.index,
            representative=self.representative,
            gl_stabilizer=self.gl_stabilizer,
            sl_stabilizer=self.sl_stabilizer,
            sl_orientation_chars=self.sl_orientation_chars,
            facets=tuple(self.facets),
        )


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
    builders: dict[int, list[_OrbitBuilder]] = {d: [] for d in range(n - 1, top_dim + 1)}

    def classify(d, cell):
        for orb in builders[d]:
            gamma = equivalent_cells(orb.representative, cell)
            if gamma is not None:
                return orb.index, gamma
        orb = _OrbitBuilder(d, len(builders[d]), cell)
        builders[d].append(orb)
        return orb.index, la.identity(n)

    for form in perfect_forms(n):
        cell = VoronoiCell.from_vectors(n, form.min_vectors)
        if cell_dim(cell) != top_dim:
            raise InternalCheckError("perfect cone has the wrong dimension")
        classify(top_dim, cell)

    for d in range(top_dim, n - 1, -1):
        for orb in list(builders[d]):
            if n <= 3 and not is_simplex(orb.representative):
                raise InternalCheckError(f"non-simplex cell for n = {n}")
            for f, geom_sign in _facet_cells(orb.representative):
                target_idx, gamma = classify(d - 1, f)
                target = builders[d - 1][target_idx]
                eta = _orientation_transport_sign(target.representative, gamma, f)
                orb.facets.append(FacetRecord(target_idx, gamma, geom_sign * eta))

    return CellComplexTable(
        n, {d: tuple(b.freeze() for b in builders[d]) for d in builders}
    )


# ---------------------------------------------------------------------------
# JSON cache (cells-n{n}.json)
# ---------------------------------------------------------------------------

def cells_to_json(table: CellComplexTable) -> str:
    doc = {
        "n": table.n,
        "dimensions": {
            str(d): [
                {
                    "vertices": [list(v) for v in orb.representative.vertices],
                    "stabilizer_order": len(orb.gl_stabilizer),
                    "sl_stabilizer_order": len(orb.sl_stabilizer),
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
    doc = json.loads(text)
    n = doc["n"]
    orbits = {}
    for d_str, orbs in doc["dimensions"].items():
        d = int(d_str)
        rebuilt = []
        for idx, rec in enumerate(orbs):
            cell = VoronoiCell(n, tuple(tuple(v) for v in rec["vertices"]))
            gl, sl = cell_stabilizer(cell)
            if len(gl) != rec["stabilizer_order"] or len(sl) != rec["sl_stabilizer_order"]:
                raise InternalCheckError(
                    "cached stabilizer orders disagree with recomputation"
                )
            rebuilt.append(
                CellOrbit(
                    dim=d,
                    index=idx,
                    representative=cell,
                    gl_stabilizer=gl,
                    sl_stabilizer=sl,
                    sl_orientation_chars=tuple(
                        orientation_char(cell, g) for g in sl
                    ),
                    facets=tuple(
                        FacetRecord(f["orbit"], la.freeze(f["gamma"]), f["sign"])
                        for f in rec["facets"]
                    ),
                )
            )
        orbits[d] = tuple(rebuilt)
    return CellComplexTable(n, orbits)

import hashlib
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sharbly import intlinalg as la
from sharbly import reduction as rd
from sharbly import sharbly as sh
from sharbly import voronoi as vo
from sharbly.errors import InternalCheckError, UnsupportedError
from sharbly.fields import QQ, LinearSpan
from sharbly.hecke import hecke_cosets, theta_s
from sharbly.homology import build_complex, homology


class TestMinimalVectors:
    def test_identity(self):
        assert vo.minimal_vectors(la.identity(2)) == (1, ((0, 1), (1, 0)))

    def test_hexagonal(self):
        m, vecs = vo.minimal_vectors(la.freeze([[2, 1], [1, 2]]))
        assert m == 2
        assert set(vecs) == {(1, 0), (0, 1), (1, -1)}

    def test_a3(self):
        m, vecs = vo.minimal_vectors(
            la.freeze([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        )
        assert m == 2 and len(vecs) == 6

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            vo.minimal_vectors(la.freeze([[1, 0], [0, -1]]))


class TestPermSign:
    def test_matches_the_inversion_parity(self):
        for n in range(6):
            for perm in itertools.permutations(range(n)):
                inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
                want = -1 if inversions % 2 else 1
                assert vo._perm_sign(perm) == want, perm
                assert vo._perm_sign(list(perm)) == want, perm


class TestPerfectForms:
    def test_n2_single_class(self):
        forms = vo.perfect_forms(2)
        assert len(forms) == 1
        assert forms[0].gram == ((2, 1), (1, 2))

    def test_n3_single_class(self):
        forms = vo.perfect_forms(3)
        assert len(forms) == 1
        assert forms[0].gram == ((2, 1, 1), (1, 2, 1), (1, 1, 2))
        assert len(forms[0].min_vectors) == 6

    def test_n4_two_classes(self):
        forms = vo.perfect_forms(4)
        assert len(forms) == 2
        assert sorted(len(f.min_vectors) for f in forms) == [10, 12]

    def test_out_of_range(self):
        with pytest.raises(UnsupportedError):
            vo.perfect_forms(5)

    def test_perfection(self):
        for n in (2, 3):
            for f in vo.perfect_forms(n):
                assert vo.perfection_rank(f) == n * (n + 1) // 2
                for v in f.min_vectors:
                    assert la.quadratic_value(f.gram, v) == f.minimum


def _table_digest(table) -> str:
    return hashlib.sha256(vo.cells_to_json(table).encode()).hexdigest()


class TestFacetNormals:
    @pytest.mark.parametrize("n, count", [(2, 3), (3, 6)])
    def test_inward_and_vanishing_on_a_facet(self, n, count):
        # A_n has n(n+1)/2 minimal vectors up to sign, so its domain is a
        # simplicial cone: one facet per minimal vector left out
        gram = la.freeze([[2 if i == j else 1 for j in range(n)] for i in range(n)])
        p = vo.PerfectForm(gram, *vo.minimal_vectors(gram))
        normals = vo._facet_normals(p)
        assert len(normals) == count
        for r in normals:
            values = [la.quadratic_value(r, v) for v in p.min_vectors]
            assert min(values) == 0 and values.count(0) == count - 1

    def test_outward_direction_raises(self):
        # an outward normal drives the step search of the neighbor walk to
        # t = 0; a child process with a timeout turns a hang into a failure
        code = (
            "from sharbly import voronoi as vo\n"
            "from sharbly.errors import InternalCheckError\n"
            "p = vo.perfect_forms(2)[0]\n"
            "try:\n"
            "    outward = tuple(tuple(-x for x in row) for row in vo._facet_normals(p)[0])\n"
            "    vo._neighbor_form(p, outward)\n"
            "except InternalCheckError as exc:\n"
            "    print(exc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(vo.__file__).parents[1])},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "direction is not an inward facet normal"


class TestCellTable:
    def test_tables_are_pinned(self, table2, table3):
        assert _table_digest(table2).startswith("c5f317acf2d0ab68")
        assert _table_digest(table3).startswith("fb0c9d6a1b23aa60")

    def test_n2_counts(self, table2):
        assert {d: len(v) for d, v in table2.orbits.items()} == {1: 1, 2: 1}

    def test_n3_codim_top_single_orbit(self, table3):
        assert len(table3.orbits[2]) == 1

    def test_all_simplices(self, table2, table3):
        for tab in (table2, table3):
            for d, orbs in tab.orbits.items():
                for o in orbs:
                    assert vo.cell_dim(o.representative) == d
                    assert len(o.representative.vertices) == d + 1

    def test_facet_records_are_exact(self, table3):
        for d, orbs in table3.orbits.items():
            for o in orbs:
                facets = vo._facet_cells(o.representative)
                assert len(facets) == len(o.facets)
                for fr in o.facets:
                    target = table3.orbits[d - 1][fr.orbit].representative
                    image = {
                        la.sign_normalize(la.vec_mat(v, fr.gamma))
                        for v in target.vertices
                    }
                    assert any(image == set(f.vertices) for f, _ in facets)
                    assert fr.sign in (-1, 1)
                    assert la.det(fr.gamma) == 1

    def test_barycenter_dual_recovers_top_cells(self, table2, table3):
        # the adjugate of the vertex barycenter is a form minimized exactly
        # by the vertices of a top cell (trace-pairing duality)
        for tab in (table2, table3):
            top = tab.top_dim()
            for o in tab.orbits[top]:
                cell = o.representative
                g = la.adjugate(vo.barycenter_form(cell))
                _, vecs = vo.minimal_vectors(g)
                assert set(cell.vertices) == set(vecs)

    def test_json_round_trip(self, table3):
        text = vo.cells_to_json(table3)
        back = vo.cells_from_json(text)
        for d in table3.orbits:
            for a, b in zip(table3.orbits[d], back.orbits[d]):
                assert a.representative == b.representative
                assert a.facets == b.facets
                assert [
                    vo.orientation_char(a.representative, g)
                    for g in vo.cell_stabilizer(a.representative)[1]
                ] == [
                    vo.orientation_char(b.representative, g)
                    for g in vo.cell_stabilizer(b.representative)[1]
                ]
        assert vo.cells_to_json(back) == text



def _canonical(doc) -> str:
    """`doc` serialized as `cells_to_json` writes, so a rejection is due to
    its content and not its formatting."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


class TestCellsFromJson:
    # the table is computed; a text is accepted only when it is, byte for
    # byte, cells_to_json of the computed table

    @pytest.mark.parametrize("n", [2, 3])
    def test_the_unedited_doc_reserialized_is_accepted(self, n, table2, table3):
        table = {2: table2, 3: table3}[n]
        back = vo.cells_from_json(_canonical(json.loads(vo.cells_to_json(table))))
        assert back.orbits == table.orbits

    @pytest.mark.parametrize("text", ["{", "{}", '{"n": 2, "dimensions": []}', "[2]"],
                             ids=["unparsable", "empty-object", "list-dimensions", "list"])
    def test_unparsable_or_wrong_shape(self, text):
        with pytest.raises(ValueError):
            vo.cells_from_json(text)

    @pytest.mark.parametrize("n", [2, 4, 1, "3", 3.0, True],
                             ids=["other-n", "n4", "n1", "n-string", "n-float", "n-bool"])
    def test_other_n(self, n, table3):
        # the n = 3 records under another n, or n = 3 as a non-int
        doc = json.loads(vo.cells_to_json(table3))
        doc["n"] = n
        with pytest.raises(ValueError):
            vo.cells_from_json(_canonical(doc))

    @pytest.mark.parametrize("edit", [
        ("2", "sign", 5),
        ("2", "gamma", [[1, 1], [0, 1]]),
        ("2", "orbit", 7),
        ("2", "gamma", [[2, 0], [0, 1]]),
        ("2", "stabilizer_order", 5),
        ("1", "vertices", [[1, -1], [1, 0, 0]]),
        ("2", "gamma", [[1.5, 0], [0, 1]]),
        ("2", "gamma", [["1", 0], [0, 1]]),
        ("2", "gamma", [[True, 0], [0, 1]]),
        ("2", "sign", 1.0),
        ("1", "stabilizer_order", 8.0),
    ], ids=["sign", "gamma-off-facet", "orbit-out-of-range", "gamma-det-2", "stabilizer-order",
            "vertex-of-3-ints", "gamma-float", "gamma-string", "gamma-bool", "sign-float",
            "stabilizer-order-float"])
    def test_corrupted_field(self, table2, edit):
        # one field of an orbit of the given dimension or of its first facet
        # record; read unchecked, the first two give H0=2, H1=0 at N = 11,
        # and a float, string or bool that int() maps to the right value
        # gives the right table
        dim, key, value = edit
        doc = json.loads(vo.cells_to_json(table2))
        orbit = doc["dimensions"][dim][0]
        (orbit if key in orbit else orbit["facets"][0])[key] = value
        with pytest.raises(ValueError):
            vo.cells_from_json(_canonical(doc))

    @pytest.mark.parametrize("edit", ["duplicate", "missing", "empty"])
    def test_incomplete_or_redundant(self, table3, edit):
        # read unchecked, a second copy of the top cell gives H3=6 (not 1)
        # at N = 5, and a missing top dimension raises KeyError
        doc = json.loads(vo.cells_to_json(table3))
        top = doc["dimensions"]["5"]
        if edit == "duplicate":
            top.append(top[0])
        elif edit == "missing":
            del doc["dimensions"]["5"]
        else:
            top.clear()
        with pytest.raises(ValueError):
            vo.cells_from_json(_canonical(doc))


def brute_force_stabilizer(cell, bound=2):
    """Independent check: scan all integer matrices with small entries."""
    n = cell.n
    out = []
    for entries in itertools.product(range(-bound, bound + 1), repeat=n * n):
        g = la.freeze([entries[i * n:(i + 1) * n] for i in range(n)])
        if abs(la.det(g)) != 1:
            continue
        image = {la.sign_normalize(la.vec_mat(v, g)) for v in cell.vertices}
        if image == set(cell.vertices):
            out.append(g)
    return out


class TestStabilizers:
    def test_edge_stabilizer_order_8(self):
        cell = vo.VoronoiCell.from_vectors(2, [(1, 0), (0, 1)])
        gl, sl = vo.cell_stabilizer(cell)
        assert len(gl) == 8 and len(sl) == 4
        assert set(gl) == set(brute_force_stabilizer(cell))

    def test_triangle_stabilizer(self):
        cell = vo.VoronoiCell.from_vectors(2, [(1, 0), (0, 1), (1, 1)])
        gl, sl = vo.cell_stabilizer(cell)
        assert len(gl) == 12 and len(sl) == 6
        assert set(gl) == set(brute_force_stabilizer(cell))
        # SL part is cyclic of order 6 with trivial orientation character
        chars = [vo.orientation_char(cell, g) for g in sl]
        assert chars == [1] * 6
        orders = sorted(_element_order(g) for g in sl)
        assert orders == [1, 2, 3, 3, 6, 6]

    def test_characters_multiplicative(self):
        cell = vo.VoronoiCell.from_vectors(2, [(1, 0), (0, 1)])
        gl, _ = vo.cell_stabilizer(cell)
        for a in gl:
            for b in gl:
                assert vo.orientation_char(cell, la.mat_mul(a, b)) == (
                    vo.orientation_char(cell, a) * vo.orientation_char(cell, b)
                )

    def test_generators_generate_each_stabilizer(self, table2, table3):
        # closure of the generators under products, computed here, must be
        # exactly the stabilizer; the counts are per orbit, in table order
        counts = {}
        for table in (table2, table3):
            for orbs in table.orbits.values():
                for orb in orbs:
                    rep = orb.representative
                    sl = vo.cell_stabilizer(rep)[1]
                    gens = vo.stabilizer_generators(rep)
                    assert [ch for _g, ch in gens] == [
                        vo.orientation_char(rep, g) for g, _ch in gens
                    ]
                    group = {la.identity(rep.n)}
                    frontier = list(group)
                    while frontier:
                        frontier = [
                            b for b in {la.mat_mul(a, g) for a in frontier for g, _ch in gens}
                            if b not in group
                        ]
                        group.update(frontier)
                    assert group == set(sl)
                    counts.setdefault(table.n, []).append(len(gens))
        assert counts == {2: [2, 2], 3: [3, 3, 3, 2, 3]}

    def test_characters_multiplicative_on_every_stabilizer(self, table2, table3):
        # orbit labelling follows generator paths, which needs the
        # orientation character to be a homomorphism on each SL stabilizer
        for table in (table2, table3):
            for orbs in table.orbits.values():
                for orb in orbs:
                    rep = orb.representative
                    sl = vo.cell_stabilizer(rep)[1]
                    char = {g: vo.orientation_char(rep, g) for g in sl}
                    for a in sl:
                        for b in sl:
                            assert char[la.mat_mul(a, b)] == char[a] * char[b]

    def test_generating_subset_keeps_the_reference_indices(self, table2, table3, table4):
        for table in (table2, table3, table4):
            for orbs in table.orbits.values():
                for orb in orbs:
                    sl = vo.cell_stabilizer(orb.representative)[1]
                    assert vo.generating_subset(sl) == reclosing_generating_subset(sl)

    def test_generating_subset_rejects_a_non_group(self, table3):
        sl = vo.cell_stabilizer(table3.orbits[3][0].representative)[1]
        assert vo.generating_subset(sl)
        for drop in (0, len(sl) // 2, len(sl) - 1):
            with pytest.raises(InternalCheckError):
                vo.generating_subset(sl[:drop] + sl[drop + 1:])


def reclosing_generating_subset(elements) -> tuple:
    """`vo.generating_subset` as it was first written: after each new
    generator the whole group found so far is closed again under every
    kept generator."""
    group = {la.identity(len(elements[0]))}
    kept = []
    for i, g in enumerate(elements):
        if g in group:
            continue
        kept.append(i)
        gens = [elements[j] for j in kept]
        queue = list(group)
        for a in queue:
            for s in gens:
                b = la.mat_mul(a, s)
                if b not in group:
                    group.add(b)
                    queue.append(b)
    assert group == set(elements)
    return tuple(kept)


def _element_order(g):
    acc = g
    n = 1
    ident = la.identity(len(g))
    while acc != ident:
        acc = la.mat_mul(acc, g)
        n += 1
        assert n <= 24
    return n


class TestEquivalence:
    def test_self(self, table2):
        c = table2.orbits[1][0].representative
        assert vo.equivalent_cells(c, c) is not None

    def test_translate(self, table3):
        rng = random.Random(5)
        for d, orbs in table3.orbits.items():
            for o in orbs:
                g = _random_sl(rng, 3)
                moved = vo.VoronoiCell.from_vectors(
                    3, [la.vec_mat(v, g) for v in o.representative.vertices]
                )
                w = vo.equivalent_cells(o.representative, moved)
                assert w is not None
                assert {
                    la.sign_normalize(la.vec_mat(v, w))
                    for v in o.representative.vertices
                } == set(moved.vertices)

    def test_spec_witness(self):
        c1 = vo.VoronoiCell.from_vectors(2, [(1, 0), (0, 1)])
        c2 = vo.VoronoiCell.from_vectors(2, [(1, 1), (0, 1)])
        gamma = ((1, 1), (0, 1))
        assert la.vec_mat((1, 0), gamma) == (1, 1)
        assert la.vec_mat((0, 1), gamma) == (0, 1)
        w = vo.equivalent_cells(c1, c2)
        assert w is not None and la.det(w) == 1

    def test_equivalence_relation(self, table3):
        # two genuinely distinct orbits in dimension 3 plus random translates
        rng = random.Random(11)
        cells = []
        for orb in table3.orbits[3]:
            cells.append(orb.representative)
            for _ in range(2):
                g = _random_sl(rng, 3)
                cells.append(
                    vo.VoronoiCell.from_vectors(
                        3, [la.vec_mat(v, g) for v in orb.representative.vertices]
                    )
                )
        related = {}
        for i, a in enumerate(cells):
            assert vo.equivalent_cells(a, a) is not None  # reflexive
            for j, b in enumerate(cells):
                related[i, j] = vo.equivalent_cells(a, b) is not None
        for i in range(len(cells)):
            for j in range(len(cells)):
                assert related[i, j] == related[j, i]  # symmetric
                for k in range(len(cells)):
                    if related[i, j] and related[j, k]:
                        assert related[i, k]  # transitive
        # and the two orbits really are distinct
        assert not related[0, 3]


def naive_vertex_maps(src, dst, dets):
    """Reference for `vo._vertex_maps`, with no pruning.

    Tries every ordered n-tuple of signed destination vertices as the images
    of src's first vertex basis (the lexicographically first n vertices with
    nonzero det), vertices in sorted order and +1 before -1, and keeps the
    gamma = S^-1 * images that is integral, has det in dets and carries the
    vertex set of src onto that of dst.
    """
    n = src.n
    pivots = next(
        idx for idx in itertools.combinations(range(len(src.vertices)), n)
        if la.det([src.vertices[i] for i in idx]) != 0
    )
    s_mat = la.freeze([src.vertices[i] for i in pivots])
    det_s = la.det(s_mat)
    signed = [tuple(s * x for x in v) for v in dst.vertices for s in (1, -1)]
    out = []
    for images in itertools.product(signed, repeat=n):
        num = la.mat_mul(la.adjugate(s_mat), images)
        if any(x % det_s for row in num for x in row):
            continue
        gamma = tuple(tuple(x // det_s for x in row) for row in num)
        if la.det(gamma) not in dets:
            continue
        if {la.sign_normalize(la.vec_mat(v, gamma)) for v in src.vertices} == set(dst.vertices):
            out.append(gamma)
    return out


def old_signature(cell):
    """`vo.cell_signature` as the sum over n x n terms it was first written as."""
    g = [[sum(v[a] * v[b] for v in cell.vertices) for b in range(cell.n)] for a in range(cell.n)]
    adj = la.adjugate(la.freeze(g))

    def pair(i, j):
        vi, vj = cell.vertices[i], cell.vertices[j]
        return sum(vi[a] * adj[a][b] * vj[b] for a in range(cell.n) for b in range(cell.n))

    m = len(cell.vertices)
    diag = sorted(pair(i, i) for i in range(m))
    off = sorted(abs(pair(i, j)) for i in range(m) for j in range(i))
    return (cell.n, m, vo.cell_dim(cell), la.det(la.freeze(g)), tuple(diag), tuple(off))


@pytest.fixture(scope="module")
def table_pairs(table2, table3):
    """Every ordered pair of same-dimension representatives, n = 2 and 3."""
    return [
        (a.representative, b.representative)
        for table in (table2, table3)
        for orbs in table.orbits.values()
        for a in orbs
        for b in orbs
    ]


@pytest.fixture(scope="module")
def placed_pairs(table2):
    """Every (rep, key) pair the support system's `_place` tries at
    N in {11, 15, 17}, over two growth rounds of a T(2,1) witness search."""
    pairs = []
    real = rd._class_map

    def record(rep, cell):
        pairs.append((rep, cell))
        return real(rep, cell)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rd, "_class_map", record)
        for level in (11, 15, 17):
            cx = build_complex(2, level, QQ, table=table2)
            x = homology(cx, 1).homology_reps[0]
            x_chain, s_chain = theta_s(cx, 1, hecke_cosets(2, 2, 1), x)
            system = rd._SupportSystem(cx, [x_chain, s_chain], with_w1=True)
            for _round in range(2):
                system.grow()
    return list(dict.fromkeys(pairs))


class TestVertexMaps:
    @pytest.mark.parametrize("dets", [(1,), (1, -1)])
    def test_table_pairs_match_the_unpruned_reference(self, table_pairs, dets):
        found = 0
        for src, dst in table_pairs:
            maps = list(vo._vertex_maps(src, dst, dets=dets))
            assert maps == naive_vertex_maps(src, dst, dets)
            found += bool(maps)
        assert found == sum(src == dst for src, dst in table_pairs)  # self pairs only

    @pytest.mark.parametrize("dets", [(1,), (1, -1)])
    def test_placed_pairs_match_the_unpruned_reference(self, placed_pairs, dets):
        found = 0
        for rep, key in placed_pairs:
            maps = list(vo._vertex_maps(rep, key, dets=dets))
            assert maps == naive_vertex_maps(rep, key, dets)
            if dets == (1,) and maps:
                assert vo.equivalent_cells(rep, key) == maps[0]
            found += bool(maps)
        assert found

    @pytest.mark.parametrize("n, verts", [
        (2, [(0, 1), (1, 0), (1, 2), (2, -1)]),
        (3, [(0, 1, -1), (1, -1, 0), (1, 1, 1), (1, 2, -1), (2, -1, -2)]),
    ])
    def test_non_pivot_vertices_decide(self, n, verts):
        # vertex sets that are no Voronoi cells: some integral gamma carries
        # the pivots onto vertices with the same pairings, but another
        # vertex off the set, so the non-pivot test must reject it
        cell = vo.VoronoiCell.from_vectors(n, verts)
        for dets in ((1,), (1, -1)):
            assert list(vo._vertex_maps(cell, cell, dets=dets)) == naive_vertex_maps(cell, cell, dets)

    def test_pairing_table_is_the_defining_sum(self, table_pairs, placed_pairs):
        for cell in {c for pair in table_pairs + placed_pairs for c in pair}:
            g = vo.barycenter_form(cell)
            adj = la.adjugate(g)
            p, d = vo._pairing_table(cell)
            assert la.mat_mul(g, adj) == tuple(
                tuple(d if a == b else 0 for b in range(cell.n)) for a in range(cell.n)
            )
            for i, vi in enumerate(cell.vertices):
                for j, vj in enumerate(cell.vertices):
                    assert p[i][j] == sum(
                        vi[a] * adj[a][b] * vj[b] for a in range(cell.n) for b in range(cell.n)
                    )
                    assert p[i][j] == p[j][i]
            assert vo.cell_signature(cell) == old_signature(cell)

    def test_signature_is_gl_invariant(self, table3):
        rng = random.Random(3)
        flip = ((-1, 0, 0), (0, 1, 0), (0, 0, 1))
        for orbs in table3.orbits.values():
            for orb in orbs:
                rep = orb.representative
                g = la.mat_mul(flip, _random_sl(rng, 3))
                moved = vo.VoronoiCell.from_vectors(3, [la.vec_mat(v, g) for v in rep.vertices])
                assert vo.cell_signature(moved) == vo.cell_signature(rep)


def _random_sl(rng, n):
    g = la.identity(n)
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        rows = [list(r) for r in g]
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        g = la.freeze(rows)
    assert la.det(g) == 1
    return g


def _dd_zero_on_representatives(table):
    """d o d = 0 for facet records, evaluated on actual oriented cells.

    The first boundary is read off the facet records (sign against the
    canonical orientation of the actual facet); the second uses the
    alternating deletion rule, dropping degenerate faces.  Everything must
    cancel exactly, which pins down every incidence sign and transport.
    """
    for d, orbs in table.orbits.items():
        if d - 1 not in table.orbits:
            continue
        for orb in orbs:
            acc = {}
            for fr in orb.facets:
                target = table.orbits[d - 1][fr.orbit].representative
                facet = vo.VoronoiCell.from_vectors(
                    table.n, [la.vec_mat(v, fr.gamma) for v in target.vertices]
                )
                eta = vo._orientation_transport_sign(target, fr.gamma, facet)
                coeff = fr.sign * eta  # on the canonical orientation of facet
                for i in range(len(facet.vertices)):
                    sub = facet.vertices[:i] + facet.vertices[i + 1:]
                    cell = vo.VoronoiCell(table.n, sub)
                    if vo.is_degenerate(cell):
                        continue
                    acc[sub] = acc.get(sub, 0) + coeff * (-1) ** i
            assert all(v == 0 for v in acc.values()), (d, orb.index, acc)


class TestFacetSigns:
    def test_dd_zero_n2(self, table2):
        _dd_zero_on_representatives(table2)

    def test_dd_zero_n3(self, table3):
        _dd_zero_on_representatives(table3)

    def test_transport_sign_is_the_sharbly_sign(self, table2, table3):
        # [v_1 * gamma, ..., v_m * gamma] in sharbly normal form carries the
        # sign of the transport of src onto the cell it lands on
        rng = random.Random(20260)
        for table in (table2, table3):
            cells = [orb.representative for orbs in table.orbits.values() for orb in orbs]
            for _ in range(150):
                cell, move, gamma = rng.choice(cells), _random_sl(rng, table.n), _random_sl(rng, table.n)
                src = vo.VoronoiCell.from_vectors(table.n, [la.vec_mat(v, move) for v in cell.vertices])
                moved = [la.vec_mat(v, gamma) for v in src.vertices]
                dst = vo.VoronoiCell.from_vectors(table.n, moved)
                sign = vo._orientation_transport_sign(src, gamma, dst)
                assert sh.normalize(table.n, moved).sign == sign

    def test_transport_off_the_target_is_caught(self, table2, table3):
        for table in (table2, table3):
            src = table.orbits[table.top_dim()][0].representative
            rows = [list(row) for row in la.identity(table.n)]
            rows[0][1] = 1
            gamma = la.freeze(rows)
            assert {la.sign_normalize(la.vec_mat(v, gamma)) for v in src.vertices} != set(src.vertices)
            with pytest.raises(InternalCheckError, match="is not"):
                vo._orientation_transport_sign(src, gamma, src)


class TestN4:
    def test_gated_without_backend(self):
        with pytest.raises(UnsupportedError):
            vo.enumerate_cells(4)

    def test_full_table_with_backend(self):
        tab = vo.enumerate_cells(4, nonsimplex_backend=True)
        counts = {d: len(v) for d, v in sorted(tab.orbits.items())}
        assert counts[3] == 1  # one orbit of (n-1)-cells
        non_simplex = [
            o
            for orbs in tab.orbits.values()
            for o in orbs
            if not vo.is_simplex(o.representative)
        ]
        assert len(non_simplex) == 1
        top = non_simplex[0]
        assert top.dim == tab.top_dim()
        assert len(vo.cell_stabilizer(top.representative)[0]) == 1152  # automorphisms of the D4 lattice
        assert _table_digest(tab).startswith("298cfc16906df95d")
        # the geometric incidence signs around the non-simplex cell cancel
        _dd_zero_on_representatives(tab)


def greedy_pivots(rows):
    """Indices of the rows that grow the Q-span of the rows before them."""
    span = LinearSpan(QQ)
    return tuple(i for i, row in enumerate(rows) if span.add(dict(enumerate(row))))


def span_rank(rows) -> int:
    span = LinearSpan(QQ)
    for row in rows:
        span.add(dict(enumerate(row)))
    return span.rank


def fraction_sign_in_basis(cell, rows) -> int:
    """Sign of det C for rows = C * B, B the rank-1 forms of cell's
    orientation basis, by the coordinate solve it was first written as:
    the RREF of the columns [B | rows] holds C, whose determinant is then
    taken by Fraction elimination."""
    basis = [vo.sym_coords(v) for v in vo.orientation_basis(cell)]
    r = len(basis)
    span = LinearSpan(QQ)
    for col in zip(*basis, *rows):
        span.add(dict(enumerate(col)))
    assert all(p < r for p in span.rows), "a row lies outside the span"
    m = [[Fraction(span.entry(i, r + k)) for i in range(r)] for k in range(len(rows))]
    sign = 1
    for k in range(r):
        pivot = next((i for i in range(k, r) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        if m[k][k] < 0:
            sign = -sign
        for i in range(k + 1, r):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return sign


@pytest.fixture(scope="module")
def table4():
    return vo.enumerate_cells(4, nonsimplex_backend=True)


@pytest.fixture(scope="module")
def geometry_rows(table2, table3, table4):
    """(rows, ncols): the vertex rows and rank-1 forms of every table
    representative at n = 2, 3 and 4, the minimal vectors of every perfect
    form, and seeded random matrices with entries in -4..4, among them
    zero, repeated and negated rows."""
    cases = []
    for table in (table2, table3, table4):
        for orbs in table.orbits.values():
            for orb in orbs:
                verts = orb.representative.vertices
                cases.append((list(verts), table.n))
                cases.append(([vo.sym_coords(v) for v in verts], table.n * (table.n + 1) // 2))
    for n in (2, 3, 4):
        for form in vo.perfect_forms(n):
            cases.append((list(form.min_vectors), n))
    rng = random.Random(36)
    for _ in range(400):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
        rows = []
        for _ in range(nrows):
            kind = rng.random()
            if rows and kind < 0.2:
                rows.append(tuple(-x for x in rng.choice(rows)))
            elif kind < 0.3:
                rows.append((0,) * ncols)
            else:
                rows.append(tuple(rng.randint(-4, 4) for _ in range(ncols)))
        cases.append((rows, ncols))
    return cases


class TestHnfGeometry:
    def test_cases_include_rank_deficient_and_empty(self, geometry_rows):
        deficient = [rows for rows, ncols in geometry_rows if span_rank(rows) < min(len(rows), ncols)]
        assert len(deficient) > 50
        assert any(not rows for rows, _ in geometry_rows)

    def test_pivots_are_the_greedy_pick(self, geometry_rows):
        for rows, _ in geometry_rows:
            assert vo._independent_rows(rows)[0] == greedy_pivots(rows), rows

    def test_rank_is_the_span_rank(self, geometry_rows):
        for rows, _ in geometry_rows:
            assert vo._rank_of_rows(rows) == span_rank(rows), rows

    @pytest.mark.parametrize("rows, rank", [
        ([(0, 0, 1), (0, 1, 0)], 2),  # leading minor 0, full rank
        ([(0, 1, 0), (0, 0, 1), (1, 0, 0)], 3),  # square, leading minor 0, full rank
        ([(0, 1), (0, 2), (1, 0)], 2),  # tall, leading minor 0, full rank
        ([(1, 0), (0, 1), (1, 1)], 2),  # tall, leading minor nonzero
        ([(1, 2, 3), (2, 4, 6), (1, 0, 1)], 2),  # square, rank-deficient
        ([(0, 0), (0, 0), (0, 0)], 0),
    ])
    def test_rank_when_the_leading_minor_vanishes(self, rows, rank):
        assert vo._rank_of_rows(rows) == span_rank(rows) == rank

    def test_kernel_is_a_basis_of_the_right_kernel(self, geometry_rows):
        # an empty list of rows carries no column count, so its kernel is
        # not defined; every caller hands in at least one row
        for rows, ncols in geometry_rows:
            if not rows:
                continue
            kernel = vo._independent_rows(rows)[1]
            assert all(len(k) == ncols for k in kernel)
            assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in rows for k in kernel)
            assert span_rank(kernel) == len(kernel) == ncols - span_rank(rows), rows

    def test_signs_match_the_fraction_reference(self, table4):
        cell = next(
            orb.representative
            for orbs in table4.orbits.values()
            for orb in orbs
            if not vo.is_simplex(orb.representative)
        )
        facets = vo._facet_cells(cell)
        assert len(facets) > len(vo.orientation_basis(cell))  # not a simplex
        for facet, incidence in facets:
            off = [v for v in cell.vertices if v not in facet.vertices]
            w = [sum(col) for col in zip(*(vo.sym_coords(v) for v in off))]
            rows = [w] + [vo.sym_coords(v) for v in vo.orientation_basis(facet)]
            assert vo._sign_in_basis(cell, rows, "off the span") == incidence
            assert fraction_sign_in_basis(cell, rows) == incidence
        for gamma in vo.cell_stabilizer(cell)[1]:
            images = [vo.sym_coords(la.vec_mat(v, gamma)) for v in vo.orientation_basis(cell)]
            sign = vo._sign_in_basis(cell, images, "off the span")
            assert sign in (-1, 1)
            assert sign == fraction_sign_in_basis(cell, images)

    def test_rows_off_the_span_are_caught(self, table4):
        top = table4.orbits[table4.top_dim()]
        cell = next(orb.representative for orb in top if not vo.is_simplex(orb.representative))
        facet = vo._facet_cells(cell)[0][0]
        off = next(v for v in cell.vertices if v not in facet.vertices)
        rows = [vo.sym_coords(v) for v in (off,) + vo.orientation_basis(facet)[1:]]
        assert span_rank([vo.sym_coords(v) for v in facet.vertices] + rows) > len(rows)
        with pytest.raises(InternalCheckError, match="left the span"):
            vo._sign_in_basis(facet, rows, "left the span")

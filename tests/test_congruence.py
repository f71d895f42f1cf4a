import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharbly import congruence as cg
from sharbly import intlinalg as la
from sharbly import manin
from sharbly.voronoi import (
    CellOrbit, VoronoiCell, cell_stabilizer, orientation_char,
)

# Levels on which the labeller is compared with the all-elements scan.
LABEL_LEVELS = {2: tuple(range(1, 61)), 3: (*range(1, 14), 17, 23, 30, 31)}


def independent_point_count(n, n_mod):
    """Count P^{n-1}(Z/N) without the library's normal form."""
    if n_mod == 1:
        return 1
    units = [u for u in range(n_mod) if gcd(u, n_mod) == 1]
    classes = set()
    for v in itertools.product(range(n_mod), repeat=n):
        g = 0
        for x in v:
            g = gcd(g, x)
        if gcd(g, n_mod) != 1:
            continue
        classes.add(frozenset(tuple(u * x % n_mod for x in v) for u in units))
    return len(classes)


def least_unit_multiple(v, n_mod):
    """The normal form by brute force: the least unit multiple of v mod N,
    or None when v is not unimodular mod N."""
    if gcd(gcd(*v), n_mod) != 1:
        return None
    units = [u for u in range(n_mod) if gcd(u, n_mod) == 1]
    return min(tuple(u * x % n_mod for x in v) for u in units)


def reference_split_orbits(orbit, n_mod):
    """split_orbits by a breadth-first search of each stabilizer orbit and a
    scan of its least point's fixers, without `ProjectiveSpace.orbit_labels`."""
    rep = orbit.representative
    space = cg.projective_space(rep.n, n_mod)
    stabilizer = cell_stabilizer(rep)[1]
    perms = [space.perm(s) for s in stabilizer]
    chars = [orientation_char(rep, s) for s in stabilizer]
    seen = [False] * len(space)
    out = []
    for i, p in enumerate(space.points):  # sorted, so orbit reps come out canonically
        if seen[i]:
            continue
        seen[i] = True
        size = 1
        queue = [i]
        while queue:
            j = queue.pop()
            for perm in perms:
                j2 = perm[j]
                if not seen[j2]:
                    seen[j2] = True
                    size += 1
                    queue.append(j2)
        fixers = [ch for perm, ch in zip(perms, chars) if perm[i] == i]
        out.append(cg.SplitOrbit(p, size, len(fixers), all(ch == 1 for ch in fixers)))
    return out


def reference_orbit_labels(space, rep):
    """`ProjectiveSpace.orbit_labels` by a scan of every stabilizer element
    at every point: the least image of i, and the character of the elements
    reaching it, or 0 when two of them disagree."""
    stabilizer = cell_stabilizer(rep)[1]
    perms = [space.perm(s) for s in stabilizer]
    chars = [orientation_char(rep, s) for s in stabilizer]
    labels = []
    for i in range(len(space)):
        best, char = len(space), 0
        for perm, ch in zip(perms, chars):
            j = perm[i]
            if j < best:
                best, char = j, ch
            elif j == best and ch != char:
                char = 0
        labels.append((best, char))
    return tuple(labels)


def _elementary(n, i, j, x):
    """The identity with x added at (i, j), i != j."""
    e = [[int(r == c) for c in range(n)] for r in range(n)]
    e[i][j] = x
    return la.freeze(e)


def _random_sl(rng, n):
    g = la.identity(n)
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        g = la.mat_mul(g, _elementary(n, i, j, rng.randint(-3, 3)))
    return g


def prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


class TestProjPoints:
    def test_counts(self):
        assert len(cg.proj_points(2, 1)) == 1
        assert len(cg.proj_points(2, 11)) == 12
        assert len(cg.proj_points(3, 2)) == 7

    @pytest.mark.parametrize("n,n_mod", [(2, 4), (2, 9), (2, 12), (3, 3), (3, 4), (3, 6)])
    def test_against_independent_count(self, n, n_mod):
        assert len(cg.proj_points(n, n_mod)) == independent_point_count(n, n_mod)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("n_mod", [2, 3, 5, 6, 10, 15])
    def test_squarefree_formula(self, n, n_mod):
        expected = 1
        for p in prime_factors(n_mod):
            expected *= sum(p ** i for i in range(n))
        assert len(cg.proj_points(n, n_mod)) == expected

    @given(
        st.integers(min_value=2, max_value=20),
        st.lists(st.integers(min_value=0, max_value=19), min_size=2, max_size=2),
    )
    @settings(max_examples=80, deadline=None)
    def test_normalization_idempotent(self, n_mod, coords):
        g = 0
        for x in coords:
            g = gcd(g, x)
        if gcd(g, n_mod) != 1:
            with pytest.raises(ValueError):
                cg.proj_normalize(coords, n_mod)
            return
        p = cg.proj_normalize(coords, n_mod)
        assert cg.proj_normalize(p, n_mod) == p


class TestProjectiveSpace:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("n_mod", [1, 2, 12, 17, 30, 36])
    def test_normalize_is_the_least_unit_multiple(self, n, n_mod):
        space = cg.ProjectiveSpace(n, n_mod)
        reps = set()
        for v in itertools.product(range(n_mod), repeat=n):
            want = least_unit_multiple(v, n_mod)
            shifted = tuple(x - n_mod * (i % 2) for i, x in enumerate(v))
            if want is None:
                with pytest.raises(ValueError):
                    space.normalize(v)
                with pytest.raises(ValueError):
                    space.index(shifted)
                continue
            reps.add(want)
            assert space.normalize(v) == want
            assert space.points[space.index(shifted)] == want
        assert space.points == tuple(sorted(reps))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("n_mod", [1, 12, 17, 30])
    def test_perm_is_the_right_action(self, n, n_mod):
        rng = random.Random(100 * n + n_mod)
        space = cg.ProjectiveSpace(n, n_mod)
        # det -1; entries beyond N in absolute value; nonzero entries = 0 mod N
        flip = la.freeze([[-1 if r == c == 0 else int(r == c) for c in range(n)] for r in range(n)])
        big = la.mat_mul(_elementary(n, 0, n - 1, 2 * n_mod + 5), _elementary(n, n - 1, 0, -n_mod - 2))
        zero_mod = la.mat_mul(_elementary(n, 1, 0, n_mod), _elementary(n, 0, n - 1, -3 * n_mod))
        assert la.det(flip) == -1 and max(abs(x) for row in big for x in row) > n_mod
        assert any(x and x % n_mod == 0 for row in zero_mod for x in row)
        pairs = [(_random_sl(rng, n), _random_sl(rng, n)) for _ in range(4)]
        pairs += [(flip, big), (big, zero_mod), (zero_mod, flip), (la.mat_mul(flip, zero_mod), big)]
        for g1, g2 in pairs:
            p1, p2 = space.perm(g1), space.perm(g2)
            assert sorted(p1) == list(range(len(space)))
            for i, pt in enumerate(space.points):
                assert space.points[p1[i]] == least_unit_multiple(la.vec_mat(pt, g1), n_mod)
            # pt * (g1 g2) = (pt * g1) * g2: perm(g1) first, then perm(g2)
            assert space.perm(la.mat_mul(g1, g2)) == tuple(p2[i] for i in p1)

    def test_perm_rejects_a_matrix_singular_mod_n(self):
        with pytest.raises(ValueError):
            cg.ProjectiveSpace(2, 12).perm(((2, 0), (0, 1)))

    def test_perm_rejects_a_matrix_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match="not 2 x 2"):
            cg.ProjectiveSpace(2, 12).perm(la.identity(3))
        with pytest.raises(ValueError, match="not 3 x 3"):
            cg.ProjectiveSpace(3, 12).perm(la.identity(2))
        with pytest.raises(ValueError, match="not 2 x 2"):
            cg.ProjectiveSpace(2, 12).perm(((1, 0, 0), (0, 1, 0)))

    @pytest.mark.parametrize("n_mod", [1, 2, 12, 17, 30, 36, 49, 60])
    def test_p1_count_matches_the_oracle(self, n_mod):
        assert len(cg.ProjectiveSpace(2, n_mod)) == len(manin.P1(n_mod))

    def test_orbit_labels_are_cached_per_representative(self, table2, table3):
        # an equal but distinct cell finds the table of the first call
        for table in (table2, table3):
            space = cg.projective_space(table.n, 13)
            for orbs in table.orbits.values():
                for orb in orbs:
                    rep = orb.representative
                    twin = VoronoiCell(rep.n, tuple(tuple(v) for v in rep.vertices))
                    assert twin == rep and twin is not rep
                    labels = space.orbit_labels(rep)
                    assert len(labels) == len(space)
                    assert space.orbit_labels(twin) is labels

    @pytest.mark.parametrize("n", [2, 3])
    def test_orbit_labels_match_the_all_elements_scan(self, table2, table3, n):
        # the labeller acts by stabilizer generators only; the scan over
        # every element must agree at every point, killed labels included
        table = table2 if n == 2 else table3
        killed = 0
        for n_mod in LABEL_LEVELS[n]:
            space = cg.ProjectiveSpace(n, n_mod)
            for orbs in table.orbits.values():
                for orb in orbs:
                    labels = space.orbit_labels(orb.representative)
                    assert labels == reference_orbit_labels(space, orb.representative)
                    killed += sum(char == 0 for _best, char in labels)
        assert killed > 0


class TestAction:
    def test_identity(self):
        for p in cg.proj_points(2, 11):
            assert cg.proj_act(p, la.identity(2), 11) == p

    def test_rotation_example(self):
        p = cg.proj_normalize((1, 0), 11)
        out = cg.proj_act(p, ((0, 1), (-1, 0)), 11)
        assert out == cg.proj_normalize((0, 1), 11)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_associativity(self, rng):
        n_mod = rng.choice([2, 5, 11, 12])
        pts = cg.proj_points(2, n_mod)
        p = pts[rng.randrange(len(pts))]
        g1 = _random_sl(rng, 2)
        g2 = _random_sl(rng, 2)
        assert cg.proj_act(cg.proj_act(p, g1, n_mod), g2, n_mod) == cg.proj_act(
            p, la.mat_mul(g1, g2), n_mod
        )

    def test_gamma0_membership(self):
        assert cg.is_gamma0(((1, 11), (0, 1)), 11)
        assert cg.is_gamma0(((1, 0), (5, 1)), 11)
        assert not cg.is_gamma0(((1, 1), (0, 1)), 11)

    def test_coset_matrix_inverts_to_point(self):
        for n_mod in (1, 5, 11, 12):
            for p in cg.proj_points(2, n_mod):
                g = cg.coset_matrix(p, n_mod)
                assert la.det(g) == 1
                q = cg.proj_normalize(la.inverse_unimodular(g)[0], n_mod)
                assert q == p


class TestSplitOrbits:
    def test_edge_level_11(self, table2):
        edge = table2.orbits[1][0]
        recs = cg.split_orbits(edge, 11)
        assert len(recs) == 6
        assert all(r.orientation_ok for r in recs)
        assert sum(r.size for r in recs) == 12

    def test_triangle_level_11(self, table2):
        tri = table2.orbits[2][0]
        recs = cg.split_orbits(tri, 11)
        assert len(recs) == 4
        assert all(r.orientation_ok for r in recs)
        assert sum(r.size for r in recs) == 12

    def test_edge_level_1_killed(self, table2):
        edge = table2.orbits[1][0]
        recs = cg.split_orbits(edge, 1)
        assert len(recs) == 1
        assert not recs[0].orientation_ok
        assert recs[0].stabilizer_order == 4

    @pytest.mark.parametrize("n_mod", [1, 2, 3, 4, 7, 12, 13, 17])
    def test_matches_reference_search(self, table2, table3, n_mod):
        # split_orbits is read off ProjectiveSpace.orbit_labels, which also
        # build every W_k table; an independent orbit search must agree on
        # every orbit, killed ones included
        killed = 0
        for table in (table2, table3):
            for orbs in table.orbits.values():
                for orb in orbs:
                    recs = cg.split_orbits(orb, n_mod)
                    assert recs == reference_split_orbits(orb, n_mod)
                    killed += sum(not r.orientation_ok for r in recs)
        assert killed > 0

    def test_sizes_partition_all_orbits(self, table2, table3):
        for table, n_mod in itertools.product((table2, table3), (2, 3, 4, 12, 17)):
            total = independent_point_count(table.n, n_mod)
            for d, orbs in table.orbits.items():
                for o in orbs:
                    recs = cg.split_orbits(o, n_mod)
                    assert sum(r.size for r in recs) == total

    def test_representative_independence(self, table2):
        # splitting data is intrinsic: translating the representative
        # produces the same multiset of (size, stabilizer order, flag)
        rng = random.Random(3)
        for orb in (table2.orbits[1][0], table2.orbits[2][0]):
            g = _random_sl(rng, 2)
            moved = VoronoiCell.from_vectors(
                2, [la.vec_mat(v, g) for v in orb.representative.vertices]
            )
            moved_orb = CellOrbit(dim=orb.dim, index=0, representative=moved, facets=())
            for n_mod in (5, 11):
                a = sorted(
                    (r.size, r.stabilizer_order, r.orientation_ok)
                    for r in cg.split_orbits(orb, n_mod)
                )
                b = sorted(
                    (r.size, r.stabilizer_order, r.orientation_ok)
                    for r in cg.split_orbits(moved_orb, n_mod)
                )
                assert a == b

    def test_level_11_actions_free(self, table2):
        # -1 is a non-residue mod 11 and 11 = 2 mod 3, so both projective
        # stabilizer actions are free: every point stabilizer is just {+-1}
        for orb in (table2.orbits[1][0], table2.orbits[2][0]):
            for r in cg.split_orbits(orb, 11):
                assert r.orientation_ok
                assert r.stabilizer_order == 2

    def test_level_7_triangle_has_fixed_point(self, table2):
        # -3 is a square mod 7, so the order-3 rotation fixes two points;
        # the orbit still survives because its characters are trivial
        recs = cg.split_orbits(table2.orbits[2][0], 7)
        assert sorted(r.stabilizer_order for r in recs) == [2, 2, 6, 6]
        assert all(r.orientation_ok for r in recs)

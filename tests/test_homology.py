import json
import random
from dataclasses import replace

import pytest

from sharbly import congruence as cg
from sharbly import homology as hm
from sharbly import intlinalg as la
from sharbly import sharbly as sh
from sharbly.congruence import projective_space
from sharbly.errors import InternalCheckError, PreconditionError
from sharbly.fields import PrimeField, QQ, row_span
from sharbly.hecke import hecke_on_h0
from sharbly.homology import (
    _facet_inverses,
    betti_numbers,
    build_complex,
    chain_to_w,
    complex_to_json,
    express_cycle,
    homology,
    is_cycle,
    theta_lift,
)


@pytest.fixture(scope="module")
def cx53(table3):
    """n = 3, N = 53 over F_32003, built once for the checks at this level."""
    return build_complex(3, 53, PrimeField(32003), table=table3)


@pytest.fixture(scope="module")
def hecke53(cx53):
    """T(2,1), T(3,1) and T(2,2) on H_0 of cx53, keyed by (l, k)."""
    return {(ell, k): hecke_on_h0(3, 53, cx53.field, ell, k, cx=cx53)
            for ell, k in ((2, 1), (3, 1), (2, 2))}


class TestBuild:
    def test_level_11_ranks(self, cx11):
        assert cx11.rank(0) == 6
        assert cx11.rank(1) == 4

    def test_level_1_ranks(self, cx1):
        assert cx1.rank(0) == 0
        assert cx1.rank(1) == 1

    def test_p2_rejected(self, table2):
        with pytest.raises(PreconditionError):
            build_complex(2, 11, PrimeField(2), table=table2)

    def test_p_dividing_stabilizer_rejected(self, table2):
        with pytest.raises(PreconditionError) as info:
            build_complex(2, 1, PrimeField(3), table=table2)
        assert "6" in str(info.value)  # the offending order is reported

    def test_determinism(self, table2, table3, cx11):
        again = build_complex(2, 11, QQ, table=table2)
        assert again.bases == cx11.bases
        assert again.boundaries[1].entries == cx11.boundaries[1].entries
        # the boundaries are summed once over Z and the field enters only
        # at conversion, so each F_p boundary is the Q one reduced mod p
        fp = PrimeField(32003)
        for n, level in ((2, 11), (2, 35), (3, 11), (3, 13), (3, 17)):
            table = table2 if n == 2 else table3
            cx_q = build_complex(n, level, QQ, table=table)
            cx_p = build_complex(n, level, fp, table=table)
            assert cx_p.bases == cx_q.bases
            for k, mat in cx_q.boundaries.items():
                mat_p = cx_p.boundaries[k]
                assert (mat_p.nrows, mat_p.ncols) == (mat.nrows, mat.ncols)
                assert mat_p.entries == {rc: fp(x) for rc, x in mat.entries.items() if fp(x)}
        # the cached facet inverses, shared by every level and field
        for table in (table2, table3):
            for orbs in table.orbits.values():
                for orb in orbs:
                    for fr, inv in zip(orb.facets, _facet_inverses(orb), strict=True):
                        assert la.mat_mul(fr.gamma, inv) == la.identity(table.n)

    def test_dd_zero_various_levels(self, table2, table3):
        for n_mod in (3, 6, 12, 25):
            build_complex(2, n_mod, QQ, table=table2)  # checked on build
        for n_mod in (3, 4, 5):
            build_complex(3, n_mod, QQ, table=table3)

    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
    def test_a_flipped_facet_sign_breaks_dd_zero(self, table3, field):
        # d o d = 0 is checked on the int boundaries before any field
        # enters, so one wrong sign in the table is caught over every field
        flips = 0
        for d, orbs in table3.orbits.items():
            for o, orb in enumerate(orbs):
                for j, fr in enumerate(orb.facets):
                    facets = orb.facets[:j] + (replace(fr, sign=-fr.sign),) + orb.facets[j + 1:]
                    broken = orbs[:o] + (replace(orb, facets=facets),) + orbs[o + 1:]
                    table = replace(table3, orbits={**table3.orbits, d: broken})
                    with pytest.raises(InternalCheckError, match="d_. o d_. != 0"):
                        build_complex(3, 11, field, table=table)
                    flips += 1
        assert flips == 18

    @pytest.mark.parametrize("n, level", [(2, 1), (2, 11), (2, 13), (3, 1), (3, 7), (3, 12)])
    def test_label_tables_match_the_bases(self, table2, table3, n, level):
        # the generator at position j of bases[k] labels its own point
        # (j, 1); every other point is killed, (None, 0), or labelled +-1
        # to a generator of the same orbit
        cx = build_complex(n, level, QQ, table=table2 if n == 2 else table3)
        space = projective_space(n, level)
        orbits = cx.table.orbits
        assert set(cx.labels) == {(d, o.index) for d in orbits for o in orbits[d]}
        for k in range(cx.max_degree + 1):
            d = k + n - 1
            for orb in orbits[d]:
                labels = cx.labels[d, orb.index]
                assert len(labels) == len(space)
                own = {space.index(p): j for j, (o, p) in enumerate(cx.bases[k]) if o == orb.index}
                for i, label in enumerate(labels):
                    if i in own:
                        assert label == (own[i], 1)
                    else:
                        assert label == (None, 0) or (label[0] in own.values() and label[1] in (1, -1))

    def test_bad_rank_rejected(self, table2):
        with pytest.raises(PreconditionError):
            build_complex(4, 2, QQ, table=table2)


class TestLevelReuse:
    """The level's complex over Z is built once per (cell table, level)
    and shared by every field."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"proj_act": 0, "dd": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(cg, "proj_act", counted("proj_act", cg.proj_act))
        monkeypatch.setattr(hm, "_check_dd_zero", counted("dd", hm._check_dd_zero))
        return calls

    def test_fields_share_one_build(self, table3, monkeypatch):
        calls = self._count(monkeypatch)
        table = replace(table3)  # a new table object, so the level is built afresh
        fp = PrimeField(32003)
        cx_q = build_complex(3, 13, QQ, table=table)
        first = dict(calls)
        assert first["proj_act"] > 0 and first["dd"] == 1
        cx_p = build_complex(3, 13, fp, table=table)
        again = build_complex(3, 13, QQ, table=table)
        assert calls == first
        assert cx_p.bases is cx_q.bases and cx_p.labels is cx_q.labels
        for k, mat in cx_q.boundaries.items():
            assert all(type(x) is int and x for x in mat.entries.values())
            assert again.boundaries[k].entries == mat.entries
            mat_p = cx_p.boundaries[k]
            assert (mat_p.nrows, mat_p.ncols) == (mat.nrows, mat.ncols)
            assert all(x for x in mat_p.entries.values())
            assert mat_p.entries == {rc: x % fp.p for rc, x in mat.entries.items() if x % fp.p}
        assert betti_numbers(cx_p) == betti_numbers(cx_q) == betti_numbers(again)
        build_complex(3, 13, QQ, table=replace(table))  # an equal table, not the same one
        assert calls["dd"] == 2 and calls["proj_act"] == 2 * first["proj_act"]

    def test_precondition_checked_on_every_build(self, table3, monkeypatch):
        f3 = PrimeField(3)
        with pytest.raises(PreconditionError) as cold:
            build_complex(3, 3, f3, table=replace(table3))
        calls = self._count(monkeypatch)
        table = replace(table3)
        build_complex(3, 3, QQ, table=table)
        with pytest.raises(PreconditionError) as hit:
            build_complex(3, 3, f3, table=table)
        assert calls["dd"] == 1  # the F_3 build read the level built over Q
        assert str(hit.value) == str(cold.value)


class TestHomology:
    def test_level_11(self, cx11):
        assert betti_numbers(cx11) == {0: 3, 1: 1}
        # dim H1 = nullity(d_1) = 4 - rank(d_1) with rank 3
        from sharbly.fields import rank_kernel

        assert rank_kernel(cx11.boundaries[1])[0] == 3

    def test_level_1(self, cx1):
        assert betti_numbers(cx1) == {0: 0, 1: 1}

    def test_computed_once_per_degree(self, table2):
        cx = build_complex(2, 11, QQ, table=table2)
        first = {k: homology(cx, k) for k in (0, 1)}
        betti_numbers(cx)
        complex_to_json(cx)
        assert all(homology(cx, k) is first[k] for k in (0, 1))

    def test_degree_out_of_range(self, cx11):
        with pytest.raises(ValueError):
            homology(cx11, 5)

    @pytest.mark.parametrize("k", [2, -1])
    @pytest.mark.parametrize("read", [
        lambda cx, k: homology(cx, k),
        lambda cx, k: is_cycle(cx, k, []),
        lambda cx, k: theta_lift(cx, k, []),
        lambda cx, k: chain_to_w(cx, k, sh.SharblyChain(cx.n, k)),
    ], ids=["homology", "is_cycle", "theta_lift", "chain_to_w"])
    def test_every_reader_rejects_a_degree_out_of_range(self, cx11, read, k):
        # one check and one message in all four, never a KeyError from bases
        # or boundaries
        with pytest.raises(ValueError, match=f"degree {k} out of range 0..1"):
            read(cx11, k)

    def test_euler_characteristic(self, table2, table3):
        for n, table, levels in ((2, table2, range(1, 16)), (3, table3, range(1, 6))):
            for n_mod in levels:
                cx = build_complex(n, n_mod, QQ, table=table)
                betti = betti_numbers(cx)
                chi_ranks = sum(
                    (-1) ** k * cx.rank(k) for k in range(cx.max_degree + 1)
                )
                chi_betti = sum((-1) ** k * b for k, b in betti.items())
                assert chi_ranks == chi_betti

    def test_betti_numbers_check_the_euler_characteristic(self, table2):
        cx = build_complex(2, 11, QQ, table=table2)
        h0 = homology(cx, 0)
        cx.homology_memo[0] = replace(h0, dimension=h0.dimension + 1)
        with pytest.raises(InternalCheckError):
            betti_numbers(cx)

    def test_n3_level53_first_cuspidal_prime(self, cx53):
        # N = 53 is the least prime level with cuspidal SL(3) cohomology
        # (Ash-Grayson-Green 1984); it shows up in H_1 and H_0
        cx = cx53
        betti = betti_numbers(cx)
        assert betti == {0: 10, 1: 2, 2: 0, 3: 1}
        chi_ranks = sum((-1) ** k * cx.rank(k) for k in range(cx.max_degree + 1))
        assert chi_ranks == sum((-1) ** k * b for k, b in betti.items())

    def test_n3_prime_level_survey(self, n3_prime_complexes):
        # Ash-Grayson-Green (Contemp. Math. 28, 1984): among prime levels
        # p <= 61, cuspidal cohomology of Gamma_0(p) in SL(3,Z) appears
        # exactly at p = 53 and p = 61
        assert len(n3_prime_complexes) == 18
        h1 = {p: homology(cx, 1).dimension for p, cx in n3_prime_complexes.items()}
        assert {p: d for p, d in h1.items() if d} == {53: 2, 61: 2}

    def test_reps_are_the_first_kernel_vectors_independent_mod_image(self, table2, table3):
        # homology_reps fixes the basis the Hecke matrices are written in:
        # the RREF kernel basis of d_k in free-column order, keeping each
        # vector that is independent of im d_{k+1} and of the kept ones.
        # Degree k - 1's image pass hands up the free columns of d_k: they
        # must be the non-pivot columns of its RREF
        from test_intlinalg import _gauss_jordan

        fp = PrimeField(32003)
        for n, table, n_mod, f in ((2, table2, 45, QQ), (2, table2, 45, fp), (3, table3, 11, QQ),
                                   (3, table3, 17, fp), (3, table3, 17, PrimeField(7))):
            cx = build_complex(n, n_mod, f, table=table)
            for k in range(cx.max_degree + 1):
                ncols = cx.rank(k)
                rref = _gauss_jordan(f, cx.boundaries[k].to_dense()) if k else []
                pivots = [next(j for j, x in enumerate(r) if x != f.zero) for r in rref]
                if k:
                    free = tuple(c for c in range(ncols) if c not in pivots)
                    assert homology(cx, k - 1)._free_above == free
                image = []
                if k < cx.max_degree:
                    image = [list(col) for col in zip(*cx.boundaries[k + 1].to_dense())]
                span = _gauss_jordan(f, image)
                reps = []
                for c in (c for c in range(ncols) if c not in pivots):
                    v = [f.zero] * ncols
                    v[c] = f.one
                    for p, row in zip(pivots, rref):
                        v[p] = f(-row[c])
                    grown = _gauss_jordan(f, span + [v])
                    if len(grown) > len(span):
                        span = grown
                        reps.append(v)
                assert homology(cx, k).homology_reps == tuple(tuple(v) for v in reps)
            assert homology(cx, cx.max_degree)._free_above == ()

    def test_d_k_is_row_reduced_only_where_h_k_keeps_a_rep(self, table3, monkeypatch):
        # of the degrees k >= 1, only H_3 keeps a rep at n = 3, N = 17, and
        # H_1 and H_3 at N = 36; so d_3, and d_1 and d_3, are the boundaries
        # whose RREF is built, each on its pivot columns and its kept ones
        # alone.  The free columns come from the image passes one degree lower
        reduced, dropped = [], {}

        def counted(m, *args):
            reduced.append(m)
            return row_span(m, *args)

        monkeypatch.setattr("sharbly.homology.row_span", counted)
        for level, betti in ((17, {0: 2, 1: 0, 2: 0, 3: 1}), (36, {0: 21, 1: 1, 2: 0, 3: 1})):
            reduced.clear()
            cx = build_complex(3, level, PrimeField(32003), table=table3)
            assert betti_numbers(cx) == betti
            degrees = [k for k in (1, 2, 3) if betti[k]]
            assert len(reduced) == len(degrees)
            for m, k in zip(reduced, degrees):
                d_k = cx.boundaries[k]
                free = homology(cx, k - 1)._free_above
                reps = homology(cx, k).homology_reps
                kept = {c for c in free if any(rep[c] for rep in reps)}
                assert len(kept) == betti[k]
                keep = (set(range(d_k.ncols)) - set(free)) | kept
                assert (m.field, m.nrows, m.ncols) == (d_k.field, d_k.nrows, d_k.ncols)
                assert m.entries == {rc: x for rc, x in d_k.entries.items() if rc[1] in keep}
                dropped[level, k] = len(free) - len(kept)
        assert dropped == {(17, 3): 0, (36, 1): 246, (36, 3): 0}

    def test_n3_prime_level_survey_to_97(self, table3):
        # the primes 67 <= p <= 97 over F_32003: H_1 != 0 exactly at p = 79
        # and p = 89 (Ash-Grayson-Green, Contemp. Math. 28, 1984).  Each
        # level's P^2(Z/p) table is dropped once its complex is built
        field = PrimeField(32003)
        h0 = {67: 10, 71: 12, 73: 10, 79: 14, 83: 14, 89: 16, 97: 14}
        h1 = {79: 2, 89: 2}
        for p, dim_h0 in h0.items():
            try:
                cx = build_complex(3, p, field, table=table3)
            finally:
                projective_space.cache_clear()
            assert betti_numbers(cx) == {0: dim_h0, 1: h1.get(p, 0), 2: 0, 3: 1}, p

    def test_field_consistency(self, table2, table3):
        # over F_p with p passing the hypotheses and not dividing any
        # elementary divisor of the integral boundary matrices, the Betti
        # numbers agree with Q
        for n, table, n_mod in ((2, table2, 11), (2, table2, 14), (3, table3, 4)):
            cx_q = build_complex(n, n_mod, QQ, table=table)
            divisors = set()
            for k in range(1, cx_q.max_degree + 1):
                mat = cx_q.boundaries[k]
                dense = [
                    [int(Fraction(x)) for x in row] for row in mat.to_dense()
                ] if mat.entries else []
                if dense:
                    divisors.update(la.snf(la.freeze(dense)))
            for p in (3, 5, 7):
                if any(d % p == 0 for d in divisors if d):
                    continue
                try:
                    cx_p = build_complex(n, n_mod, PrimeField(p), table=table)
                except PreconditionError:
                    continue
                assert betti_numbers(cx_p) == betti_numbers(cx_q)

    def test_n3_level1_duality(self, table3):
        # only the top degree survives at level 1 over Q
        cx = build_complex(3, 1, QQ, table=table3)
        assert betti_numbers(cx) == {0: 0, 1: 0, 2: 0, 3: 1}

    def test_top_degree_is_one_dimensional(self, table2, table3):
        # the top homology is dual to the constants, so dim 1 at every level
        for n, table, levels in ((2, table2, range(1, 21)), (3, table3, range(1, 7))):
            for n_mod in levels:
                cx = build_complex(n, n_mod, QQ, table=table)
                assert betti_numbers(cx)[cx.max_degree] == 1


class TestHeckeAtTheFirstCuspidalLevel:
    """Invariants of the Hecke action on H_0 at n = 3, N = 53 over F_32003
    that share no code with it: commutativity, and the char poly and
    eigenvalues seen at this level."""

    def test_t21_and_t31_commute(self, hecke53):
        p = 32003
        a, b = hecke53[2, 1].matrix, hecke53[3, 1].matrix

        def mat_mul(x, y):
            return [[sum(u * v for u, v in zip(row, col)) % p for col in zip(*y)] for row in x]

        assert mat_mul(a, b) == mat_mul(b, a)

    def test_t21_and_t22_share_a_charpoly(self, hecke53):
        assert hecke53[2, 1].charpoly == hecke53[2, 2].charpoly

    def test_t21_has_eigenvalues_3_and_minus_1(self, hecke53):
        roots = dict(hecke53[2, 1].eigen)
        assert 3 in roots and 32003 - 1 in roots


from fractions import Fraction  # noqa: E402


class TestExpressCycle:
    def test_basis_cycle_is_unit_vector(self, cx11):
        h0 = homology(cx11, 0)
        for i, rep in enumerate(h0.homology_reps):
            coords = express_cycle(h0, rep)
            assert coords == tuple(
                QQ.one if j == i else QQ.zero for j in range(h0.dimension)
            )

    def test_boundary_invariance(self, cx11):
        h0 = homology(cx11, 0)
        rep = list(h0.homology_reps[0])
        mat = cx11.boundaries[1]
        col = [QQ.zero] * cx11.rank(0)
        for (r, c), v in mat.entries.items():
            if c == 0:
                col[r] = v
        shifted = [a + 5 * b for a, b in zip(rep, col)]
        assert express_cycle(h0, shifted) == express_cycle(h0, rep)

    def test_witness_is_exact(self, cx11):
        h0 = homology(cx11, 0)
        rep = list(h0.homology_reps[1])
        mat = cx11.boundaries[1]
        col = [QQ.zero] * cx11.rank(0)
        for (r, c), v in mat.entries.items():
            if c == 1:
                col[r] = v
        vec = [a - 2 * b for a, b in zip(rep, col)]
        coords, witness = express_cycle(h0, vec, want_witness=True)
        recon = [QQ.zero] * cx11.rank(0)
        for c_coeff, basis_vec in zip(coords, h0.homology_reps):
            recon = [r + c_coeff * b for r, b in zip(recon, basis_vec)]
        boundary_part = mat.matvec(list(witness))
        assert [a - b for a, b in zip(vec, recon)] == boundary_part

    def test_matches_dense_reference(self, table2, table3):
        # coordinates and witness of seeded random cycles (reps plus
        # boundaries) against the RREF of [im d_{k+1} | reps | z], whose
        # solution is read at the pivot columns and is zero elsewhere
        from test_intlinalg import _gauss_jordan

        rng = random.Random(8)
        for n, table, n_mod, f in ((2, table2, 45, QQ), (3, table3, 17, PrimeField(7))):
            cx = build_complex(n, n_mod, f, table=table)
            for k in range(cx.max_degree + 1):
                h = homology(cx, k)
                image = []
                if k < cx.max_degree:
                    image = [list(col) for col in zip(*cx.boundaries[k + 1].to_dense())]
                for _ in range(3):
                    z = [f.zero] * cx.rank(k)
                    terms = [(f(rng.randint(-3, 3)), rep) for rep in h.homology_reps]
                    terms += [(f(rng.randint(-2, 2)), col) for col in image if rng.random() < 0.3]
                    for a, vec in terms:
                        z = [f(x + a * y) for x, y in zip(z, vec)]
                    columns = image + [list(rep) for rep in h.homology_reps] + [z]
                    x = [f.zero] * (len(columns) - 1)
                    for row in _gauss_jordan(f, [list(r) for r in zip(*columns)]):
                        p = next(j for j, v in enumerate(row) if v != f.zero)
                        assert p < len(x)  # z lies in im d_{k+1} + span(reps)
                        x[p] = row[-1]
                    coords, witness = express_cycle(h, z, want_witness=True)
                    assert coords == tuple(x[len(image):])
                    assert witness == tuple(x[: len(image)])

    def test_non_cycle_rejected(self, cx11):
        h1 = homology(cx11, 1)
        vec = [QQ.one] + [QQ.zero] * (cx11.rank(1) - 1)
        if all(x == QQ.zero for x in cx11.boundaries[1].matvec(vec)):
            pytest.skip("chosen vector happens to be a cycle")
        with pytest.raises(ValueError):
            express_cycle(h1, vec)

    @pytest.mark.parametrize("k", [0, 1])
    def test_wrong_length_rejected(self, cx11, k):
        # at k = 0 no cycle check runs, so only the length check sees the slip
        h = homology(cx11, k)
        for size in (cx11.rank(k) + 3, cx11.rank(k) - 1):
            with pytest.raises(ValueError, match=f"has {cx11.rank(k)} entries, got {size}"):
                express_cycle(h, [QQ.one] * size)

    def test_is_cycle_checks_the_length(self, cx11):
        # rank W_0 = 6 and rank W_1 = 4: a padded cycle is no W_1 vector,
        # and at k = 0 the length check is all there is
        x = homology(cx11, 1).homology_reps[0]
        assert is_cycle(cx11, 1, x)
        for k, vec in ((1, x + (5, 5)), (1, x[:-1]), (0, [QQ.one]), (0, [QQ.one] * 7)):
            with pytest.raises(ValueError, match=f"has {cx11.rank(k)} entries, got {len(vec)}"):
                is_cycle(cx11, k, vec)


class TestCacheJson:
    def test_document_shape(self, cx11):
        doc = json.loads(complex_to_json(cx11))
        assert doc["betti"] == {"0": 3, "1": 1}
        assert doc["field"] == "Q"
        assert len(doc["bases"]["0"]) == 6
        # boundary entries serialized as exact decimal strings
        for r, c, v in doc["boundaries"]["1"]:
            Fraction(v)

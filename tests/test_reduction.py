import dataclasses
import random
from fractions import Fraction

import pytest

from sharbly import intlinalg as la
from sharbly import reduction as rd
from sharbly import sharbly as sh
from sharbly.congruence import is_gamma0, projective_space
from sharbly.errors import InternalCheckError, PreconditionError
from sharbly.fields import PrimeField, QQ, solve
from sharbly.hecke import hecke_cosets, hecke_on_h0, theta_s, w0_orbit, w0_transport
from sharbly.homology import (
    _cell_coordinate, build_complex, chain_to_w, express_cycle, homology,
    is_voronoi_supported, theta_lift,
)
from sharbly.voronoi import VoronoiCell, _vertex_maps, cell_stabilizer, equivalent_cells


class TestLifts:
    def test_theta_lift_round_trip(self, cx11):
        for k in (0, 1):
            for i in range(cx11.rank(k)):
                unit = [QQ.zero] * cx11.rank(k)
                unit[i] = QQ.one
                lift = theta_lift(cx11, k, unit)
                assert tuple(chain_to_w(cx11, k, lift)) == tuple(unit)

    def test_non_voronoi_term_rejected(self, cx11):
        bad = sh.chain_of(2, [(1, 0), (1, 2)])  # determinant 2
        with pytest.raises(ValueError):
            chain_to_w(cx11, 0, bad)
        bad = sh.chain_of(2, [(1, 0), (0, 1), (1, 2)])  # a determinant-2 edge
        assert not is_voronoi_supported(cx11, bad)
        with pytest.raises(ValueError):
            chain_to_w(cx11, 1, bad)
        triangle = sh.chain_of(2, [(1, 0), (0, 1), (1, 1)])  # a 1-chain read in degree 0
        with pytest.raises(ValueError, match="expected a degree-0 chain"):
            chain_to_w(cx11, 0, triangle)

    @pytest.mark.parametrize("n, level, killed", [(2, 11, 0), (2, 13, 2), (3, 7, 37)])
    def test_point_table_matches_equivalent_cells(self, table2, table3, n, level, killed):
        # hecke reads a unimodular symbol's W_0 coordinate from the label
        # table at row 0 of w0_transport, with sign +1; the general path,
        # through an equivalent_cells witness, must give the same coordinate
        cx = build_complex(n, level, QQ, table=table2 if n == 2 else table3)
        rng = random.Random(level)
        orb = cx.table.orbits[n - 1][0]
        rep = orb.representative
        vertices, labels = w0_orbit(cx)
        space = projective_space(n, level)
        checked = flipped = dead = 0
        while checked < 40:
            m = la.freeze([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            if la.det(m) == 0:
                continue
            for key in sh.ar_reduce(m).coeffs:
                cell = VoronoiCell(n, key)
                term = _cell_coordinate(cx, orb, equivalent_cells(rep, cell), cell)
                pos, char = labels[space.index(w0_transport(vertices, key)[0])]
                if term is None:
                    dead += 1
                assert term == ((pos, char) if char else None)
                checked += 1
                flipped += la.det(la.freeze(key)) * la.det(la.freeze(rep.vertices)) < 0
        assert 0 < flipped < checked  # both signs of the vertex matrix occur
        # the table covers P^{n-1}(Z/N), and killed points are met when there are any
        assert len(labels) == len(space)
        assert sum(char == 0 for _, char in labels) == killed
        assert (dead > 0) == (killed > 0)


class TestOneSharblyReduce:
    def test_already_supported_unchanged(self, cx1):
        c = sh.chain_of(2, [(1, 0), (0, 1), (1, 1)])
        res = rd.one_sharbly_reduce_n2(cx1, c, budget=1)
        assert not isinstance(res, rd.Undetermined)
        assert res.reduced == c.reduced(QQ)
        assert res.homotopy.is_zero() and res.bar_terms == ()
        assert res.verify(c.reduced(QQ))

    def test_negative_budget_rejected_on_a_supported_chain(self, cx1):
        # the already-supported shortcut checks the budget too
        c = sh.chain_of(2, [(1, 0), (0, 1), (1, 1)])
        with pytest.raises(PreconditionError, match="budget must be >= 0"):
            rd.one_sharbly_reduce_n2(cx1, c, budget=-1)

    def test_spec_triangle_at_level_1(self, cx1):
        # [e1, e2, (1,2)] has one non-unimodular edge, subdivided at (1,1)
        c = sh.chain_of(2, [(1, 0), (0, 1), (1, 2)])
        res = rd.one_sharbly_reduce_n2(cx1, c, budget=3)
        assert not isinstance(res, rd.Undetermined)
        assert res.verify(c.reduced(QQ))
        assert is_voronoi_supported(cx1, res.reduced)
        homotopy_vertices = {v for key in res.homotopy.coeffs for v in key}
        assert (1, 1) in homotopy_vertices

    def test_translated_cycle_reduces_to_same_class(self, cx11):
        # acting on theta_1(triangle lift) by gamma in Gamma_0(11) does not
        # change the coinvariant coordinates after reduction
        unit = [QQ.zero] * cx11.rank(1)
        unit[2] = QQ.one
        lift = theta_lift(cx11, 1, unit)
        gamma = la.freeze([[1, 11], [2, 23]])
        assert la.det(gamma) == 1 and gamma[0][1] % 11 == 0
        moved = lift.act(gamma)
        res = rd.one_sharbly_reduce_n2(cx11, moved, budget=3)
        assert not isinstance(res, rd.Undetermined)
        assert res.verify(moved.reduced(QQ))
        assert list(res.w1_coords) == list(unit)

    def test_n3_eigen_chain_best_effort(self, table3):
        # the zero chain needs no search, so it closes at any rank
        cx3 = build_complex(3, 2, QQ, table=table3)
        op = hecke_cosets(3, 5, 1)
        zero = tuple(QQ.zero for _ in range(cx3.rank(1)))
        wit = rd.verify_eigen_chain(cx3, zero, op, 2, budget=0)
        assert isinstance(wit, rd.Witness) and wit.verify()

    @pytest.mark.parametrize("budget", [0, 1])
    def test_n3_eigen_chain_without_growth_is_undetermined(self, table3, budget):
        # cone subdivision is n = 2 only: the search solves once and stops
        cx3 = build_complex(3, 7, QQ, table=table3)
        unit = [QQ.zero] * cx3.rank(1)
        unit[0] = QQ.one
        out = rd.verify_eigen_chain(cx3, unit, hecke_cosets(3, 2, 1), 3, budget=budget)
        assert isinstance(out, rd.Undetermined)
        if budget:
            assert "implemented for n = 2 only" in out.reason


class TestHeckeH1:
    def test_level_11_t2(self, cx11):
        rep = rd.hecke_on_h1_n2(11, QQ, 2, budget=3, cx=cx11)
        assert not isinstance(rep, rd.Undetermined)
        assert rep.eigen == ((Fraction(3), 1),)

    def test_level_11_t3(self, cx11):
        rep = rd.hecke_on_h1_n2(11, QQ, 3, budget=3, cx=cx11)
        assert rep.eigen == ((Fraction(4), 1),)
        # eigenvalue equals the coset count of T(3,1)
        assert rep.eigen[0][0] == hecke_cosets(2, 3, 1).degree()

    def test_level_1_t2(self, cx1):
        rep = rd.hecke_on_h1_n2(1, QQ, 2, budget=3, cx=cx1)
        assert rep.eigen == ((Fraction(3), 1),)

    def test_bad_prime_rejected(self, cx11):
        with pytest.raises(PreconditionError):
            rd.hecke_on_h1_n2(11, QQ, 11, cx=cx11)

    def test_arguments_disagreeing_with_cx_rejected(self, cx11):
        # a given complex must be the one the arguments name
        with pytest.raises(ValueError, match="N = 11"):
            hecke_on_h0(2, 13, PrimeField(7), 2, 1, cx=cx11)
        with pytest.raises(ValueError, match="N = 11"):
            rd.hecke_on_h1_n2(12, QQ, 11, cx=cx11)
        for args in ((3, 11, QQ), (2, 11, PrimeField(7))):
            with pytest.raises(ValueError):
                hecke_on_h0(*args, 2, 1, cx=cx11)
        with pytest.raises(ValueError):
            rd.hecke_on_h1_n2(11, PrimeField(7), 2, cx=cx11)

    def test_negative_budget_rejected(self, cx11):
        with pytest.raises(PreconditionError, match="budget must be >= 0"):
            rd.hecke_on_h1_n2(11, QQ, 2, budget=-1, cx=cx11)


class TestVerifyEigenChain:
    def test_witness_for_true_eigenvalue(self, cx11):
        h1 = homology(cx11, 1)
        x = h1.homology_reps[0]
        op = hecke_cosets(2, 2, 1)
        wit = rd.verify_eigen_chain(cx11, x, op, 3, budget=3)
        assert isinstance(wit, rd.Witness)
        assert wit.verify()
        assert not wit.y.is_zero() or not wit.u  # nontrivial certificate

    def test_bars_are_checked_against_the_level(self, cx11):
        # the same chains with bars outside Gamma_0(level) do not verify
        x = homology(cx11, 1).homology_reps[0]
        wit = rd.verify_eigen_chain(cx11, x, hecke_cosets(2, 2, 1), 3, budget=3)
        assert wit.verify() and wit.level == 11
        assert any(not is_gamma0(gamma, 13) for gamma, _c in wit.u)
        assert not dataclasses.replace(wit, level=13).verify()
        s_chain = theta_s(cx11, 1, hecke_cosets(2, 2, 1), x)[1].reduced(QQ)
        res = rd.one_sharbly_reduce_n2(cx11, s_chain, 3)
        assert res.verify(s_chain) and res.level == 11
        assert any(not is_gamma0(gamma, 13) for gamma, _c in res.bar_terms)
        assert not dataclasses.replace(res, level=13).verify(s_chain)

    def test_wrong_eigenvalue_undetermined(self, cx11):
        h1 = homology(cx11, 1)
        x = h1.homology_reps[0]
        op = hecke_cosets(2, 2, 1)
        out = rd.verify_eigen_chain(cx11, x, op, 5, budget=2)
        assert isinstance(out, rd.Undetermined)

    def test_zero_chain_trivial_witness(self, cx11):
        op = hecke_cosets(2, 2, 1)
        zero = tuple(QQ.zero for _ in range(cx11.rank(1)))
        wit = rd.verify_eigen_chain(cx11, zero, op, 7, budget=1)
        assert isinstance(wit, rd.Witness)
        assert wit.verify() and wit.y.is_zero() and wit.u == ()

    def test_consistency_with_h1_action(self, cx11):
        # any a certified by a witness is the reduction eigenvalue
        h1 = homology(cx11, 1)
        x = h1.homology_reps[0]
        for ell in (2, 3):
            rep = rd.hecke_on_h1_n2(11, QQ, ell, budget=3, cx=cx11)
            a = rep.eigen[0][0]
            wit = rd.verify_eigen_chain(cx11, x, hecke_cosets(2, ell, 1), a, budget=3)
            assert isinstance(wit, rd.Witness) and wit.verify()

    def test_closed_support_stops_the_search(self, cx11, monkeypatch):
        h1 = homology(cx11, 1)
        x = h1.homology_reps[0]
        op = hecke_cosets(2, 2, 1)
        calls = []

        def counting_solve(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(rd, "solve", counting_solve)
        counts = []
        for budget in (4, 20):
            calls.clear()
            out = rd.verify_eigen_chain(cx11, x, op, 5, budget=budget)
            assert isinstance(out, rd.Undetermined)
            assert out.closed and "orbits 16" in out.reason
            counts.append(len(calls))
        assert 1 <= counts[0] == counts[1] <= 4
        # a search cut by its budget is not marked closed
        spent = rd.verify_eigen_chain(cx11, x, op, 5, budget=0)
        assert isinstance(spent, rd.Undetermined) and not spent.closed

    def test_negative_budget_rejected(self, cx11):
        x = homology(cx11, 1).homology_reps[0]
        op = hecke_cosets(2, 2, 1)
        with pytest.raises(PreconditionError, match="budget must be >= 0"):
            rd.verify_eigen_chain(cx11, x, op, 0, budget=-1)
        s_chain = theta_s(cx11, 1, op, x)[1]
        with pytest.raises(PreconditionError, match="budget must be >= 0"):
            rd.one_sharbly_reduce_n2(cx11, s_chain, budget=-1)

    def test_negative_budget_rejected_on_the_zero_chain(self, cx11):
        # the zero chain needs no search and is rejected all the same
        zero = tuple(QQ.zero for _ in range(cx11.rank(1)))
        with pytest.raises(PreconditionError, match="budget must be >= 0"):
            rd.verify_eigen_chain(cx11, zero, hecke_cosets(2, 2, 1), 3, budget=-5)

    def test_wrong_length_x_rejected(self, cx11):
        # a W_1 vector with extra entries used to be cut to rank W_1
        x = tuple(homology(cx11, 1).homology_reps[0])
        op = hecke_cosets(2, 2, 1)
        for bad in (x + (5, 5), x[:-1]):
            with pytest.raises(ValueError, match=f"has {cx11.rank(1)} entries"):
                rd.verify_eigen_chain(cx11, bad, op, 3, budget=3)

    def test_prime_field_witness(self, table2):
        cx = build_complex(2, 11, PrimeField(5), table=table2)
        h1 = homology(cx, 1)
        x = h1.homology_reps[0]
        op = hecke_cosets(2, 3, 1)
        wit = rd.verify_eigen_chain(cx, x, op, 4, budget=3)
        assert isinstance(wit, rd.Witness) and wit.verify()


class TestTamperedCertificates:
    """Both certificate kinds check target = d(homotopy) + sum(c gamma - c);
    a changed chain in either must fail `verify`."""

    @pytest.fixture(scope="class")
    def certs(self, cx11):
        x = homology(cx11, 1).homology_reps[0]
        op = hecke_cosets(2, 2, 1)
        wit = rd.verify_eigen_chain(cx11, x, op, 3, budget=3)
        s_chain = theta_s(cx11, 1, op, x)[1].reduced(QQ)
        res = rd.one_sharbly_reduce_n2(cx11, s_chain, 3)
        return wit, res, s_chain

    def test_witness(self, certs):
        wit, _res, _s_chain = certs
        assert wit.verify() and wit.u and not sh.boundary(wit.y).is_zero()
        for i in range(len(wit.u)):
            assert not dataclasses.replace(wit, u=wit.u[:i] + wit.u[i + 1:]).verify()
        assert not dataclasses.replace(wit, y=wit.y.scaled(2)).verify()
        assert not dataclasses.replace(wit, a=wit.a + 1).verify()

    def test_reduction(self, certs):
        _wit, res, s_chain = certs
        assert res.verify(s_chain) and res.bar_terms and not sh.boundary(res.homotopy).is_zero()
        for i in range(len(res.bar_terms)):
            dropped = res.bar_terms[:i] + res.bar_terms[i + 1:]
            assert not dataclasses.replace(res, bar_terms=dropped).verify(s_chain)
        assert not dataclasses.replace(res, homotopy=res.homotopy.scaled(2)).verify(s_chain)


class TestSupportGrowth:
    """The Gamma_0(N)-orbit labels against an all-pairs vertex-map search."""

    @staticmethod
    def _gamma0_maps(level, src, dst, memo):
        if (src, dst) not in memo:
            memo[src, dst] = [
                gamma
                for gamma in _vertex_maps(VoronoiCell(2, src), VoronoiCell(2, dst), dets=(1,))
                if all(x % level == 0 for x in gamma[0][1:])
            ]
        return memo[src, dst]

    @pytest.mark.parametrize("level", [1, 11, 13, 15])
    def test_bars_equal_all_pairs_reference(self, table2, level):
        # two keys share a label iff a Gamma_0(N) map carries one to the
        # other, and the bar map rebuilt for a key is one of those maps
        cx = build_complex(2, level, QQ, table=table2)
        x = homology(cx, 1).homology_reps[0]
        x_chain, s_chain = theta_s(cx, 1, hecke_cosets(2, 2, 1), x)
        system = rd._SupportSystem(cx, [x_chain, s_chain], with_w1=False)
        memo = {}
        for _round in range(2):
            system.grow()
            keys = sorted(system._placed)
            labels = {key: system._placed[key][0] for key in keys}
            shared = 0
            for src in keys:
                for dst in keys:
                    maps = self._gamma0_maps(level, src, dst, memo)
                    assert (labels[src] == labels[dst]) == bool(maps)
                    shared += src != dst and labels[src] == labels[dst]
            assert shared  # some labels carry several keys
            for key in keys:
                c = system._first[labels[key]]
                gamma, sigma = system._map(c, key)
                assert is_gamma0(gamma, level)
                assert gamma in self._gamma0_maps(level, c, key, memo)
                assert sh.SharblyChain(2, 1, {c: 1}).act(gamma) == sh.SharblyChain(2, 1, {key: sigma})

    @pytest.mark.parametrize("level", [11, 13, 15, 17])
    def test_voronoi_keys_file_under_the_table_rep(self, table2, level):
        # a key SL(2,Z)-equivalent to the Voronoi triangle is filed under
        # the cell table's representative, so its label is the one
        # GammaComplex.labels gives the W_1 generator at its coset point
        cx = build_complex(2, level, QQ, table=table2)
        space = projective_space(2, level)
        x = homology(cx, 1).homology_reps[0]
        x_chain, s_chain = theta_s(cx, 1, hecke_cosets(2, 2, 1), x)
        system = rd._SupportSystem(cx, [x_chain, s_chain], with_w1=False)
        system.grow()
        (orb,) = table2.orbits[2]
        hits = 0
        for key, ((rep, best), q, _h, _h_inv, eps) in system._placed.items():
            if equivalent_cells(orb.representative, VoronoiCell(2, key)) is None:
                continue
            hits += 1
            assert rep == orb.representative
            position, char = cx.labels[2, orb.index][q]
            assert (position is None) == (eps == 0)
            if position is not None:
                assert cx.bases[1][position] == (orb.index, space.points[best])
        assert hits

    def test_a_slipped_label_is_caught(self, cx11):
        # file a key under a wrong coset point of its stabilizer orbit: the
        # rebuilt map still carries c to +-key, and only the Gamma_0(N)
        # re-check stops it
        x = homology(cx11, 1).homology_reps[0]
        x_chain, s_chain = theta_s(cx11, 1, hecke_cosets(2, 2, 1), x)
        system = rd._SupportSystem(cx11, [x_chain, s_chain], with_w1=False)
        system.grow()
        for key, (label, q, *maps, eps) in sorted(system._placed.items()):
            perms = [system._space.perm(s) for s in cell_stabilizer(label[0])[1]]
            wrong = {perm[q] for perm in perms} - {q}
            if key != system._first[label] and wrong:
                break
        else:
            pytest.fail("no key with a second point in its stabilizer orbit")
        system._map(system._first[label], key)
        system._placed[key] = (label, min(wrong), *maps, eps)
        with pytest.raises(InternalCheckError, match="outside Gamma_0"):
            system._map(system._first[label], key)

    def test_killed_label_residual(self, table3):
        # At n = 2 no 1-sharbly orbit is killed: an element of SL(2,Z)
        # swapping two of three lines has determinant -1.  At n = 3,
        # c = [e1, e2, e3, e1+e2+e3] has c * s = -c for s = -(e2 <-> e3) in
        # Gamma_0(N), so c is 0 in the coinvariants and the search rebuilds
        # the bar term -1/2 (c * s - c) for it.
        cx = build_complex(3, 2, QQ, table=table3)
        c = sh.chain_of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        gamma = la.freeze([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
        rhs = c.scaled(2).add_chain(c.act(gamma)).reduced(QQ)
        system = rd._SupportSystem(cx, [rhs], with_w1=False)
        assert all(entry[-1] == 0 for entry in system._placed.values())
        w1, homotopy, bars = system.search(rhs, 0, "test certificate")
        res = rd.ReductionResult(QQ, 2, sh.SharblyChain(3, 1), w1, homotopy, bars)
        assert res.verify(rhs) and homotopy.is_zero()
        (key,) = c.coeffs
        flips = [
            i for i, (g, chain) in enumerate(bars)
            if chain.act(g) == chain.scaled(-1) and set(chain.coeffs) == {key}
        ]
        assert len(flips) == 1 and len(bars) == 2
        dropped = bars[:flips[0]] + bars[flips[0] + 1:]
        assert not dataclasses.replace(res, bar_terms=dropped).verify(rhs)

    def test_residual_is_rhs_minus_the_boundary(self, cx11):
        # the search sums d(homotopy) from the cached 2-sharbly boundaries;
        # it must equal sh.boundary's, key order included, since the order
        # of the residual's keys is the order of the bar terms
        x = homology(cx11, 1).homology_reps[0]
        x_chain, s_chain = theta_s(cx11, 1, hecke_cosets(2, 2, 1), x)
        witness_rhs = s_chain.copy().add_chain(x_chain, -3).reduced(QQ)
        cases = (
            (rd._SupportSystem(cx11, [x_chain, s_chain], with_w1=False), witness_rhs),
            (rd._SupportSystem(cx11, [s_chain.reduced(QQ)], with_w1=True), s_chain.reduced(QQ)),
        )
        for system, rhs in cases:
            w1, homotopy, _bars = system.search(rhs, 4, "test certificate")
            assert not homotopy.is_zero()
            want = rhs.copy().add_chain(sh.boundary(homotopy), -1)
            for a, (lift, _col) in zip(w1, system.lifts):
                want.add_chain(lift, -a)
            got = system._residual(rhs, w1, homotopy)
            assert got == want and list(got.coeffs) == list(want.coeffs)
        assert any(a != QQ.zero for a in w1)  # the reduction subtracts lifts too


class TestLevelFreeCaches:
    """The class maps, cone candidates and 2-sharbly boundaries are cached
    per process across levels; no certificate may depend on what ran
    before it."""

    CACHES = (rd._class_map, rd._cone_candidates, rd._tau_boundary, equivalent_cells)

    @staticmethod
    def _record(out):
        if isinstance(out, rd.Undetermined):
            return out.reason
        return sorted(out.y.coeffs.items()), [(g, sorted(c.coeffs.items())) for g, c in out.u]

    def test_certificates_do_not_depend_on_history(self, cx11, table2):
        cx13 = build_complex(2, 13, QQ, table=table2)
        op = hecke_cosets(2, 2, 1)
        x11, x13 = (homology(cx, 1).homology_reps[0] for cx in (cx11, cx13))
        runs = []
        for _run in range(2):
            runs.append([
                self._record(rd.verify_eigen_chain(cx, x, op, a, budget=4))
                for cx, x, a in ((cx11, x11, 3), (cx13, x13, 0), (cx11, x11, 3))
            ])
            for cache in self.CACHES:
                cache.cache_clear()
        first, probe, again = runs[0]
        assert isinstance(first, tuple) and isinstance(probe, str) and first == again
        assert runs[0] == runs[1]

    def test_a_second_level_reuses_the_searches(self, cx11, table2, monkeypatch):
        cx13 = build_complex(2, 13, QQ, table=table2)
        x = homology(cx11, 1).homology_reps[0]
        chains = theta_s(cx11, 1, hecke_cosets(2, 2, 1), x)
        calls = []

        def counting(rep, cell):
            calls.append((rep, cell))
            return equivalent_cells(rep, cell)

        monkeypatch.setattr(rd, "equivalent_cells", counting)
        for cache in self.CACHES:
            cache.cache_clear()
        searched = []
        for cx in (cx11, cx13):
            calls.clear()
            system = rd._SupportSystem(cx, chains, with_w1=False)
            system.grow()
            searched.append(set(calls))
        assert searched[0] and not searched[0] & searched[1]
        for key in system._placed:
            cands = rd._cone_candidates(2, key)
            assert type(cands) is tuple
            for tau_key in cands:
                bd = rd._tau_boundary(2, tau_key)
                assert type(bd) is tuple and all(type(term) is tuple for term in bd)
        for rep, cell in searched[0]:
            found = rd._class_map(rep, cell)
            assert found is None or type(found) is tuple


def _canonical_q(x) -> bool:
    """x is an element of Q in canonical form: an int, or a Fraction whose
    denominator is not 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


class TestCanonicalRationals:
    @pytest.mark.parametrize("level", [11, 15])
    def test_every_value_over_q_is_canonical(self, table2, level):
        # an element of Q is an int when it is integral, all the way from
        # the homology reps through the Hecke reports to the certificates
        cx = build_complex(2, level, QQ, table=table2)
        op = hecke_cosets(2, 2, 1)
        values = []
        for k in (0, 1):
            h = homology(cx, k)
            for rep in h.homology_reps:
                values += rep
                coords, witness = express_cycle(h, rep, want_witness=True)
                values += [*coords, *witness]
        for report in (hecke_on_h0(2, level, QQ, 2, 1, cx=cx),
                       rd.hecke_on_h1_n2(level, QQ, 2, cx=cx)):
            values += [x for row in report.matrix for x in row]
            values += [*report.charpoly, *(root for root, _ in report.eigen)]
            values += report.remainder or ()
        x = homology(cx, 1).homology_reps[0]
        wit = rd.verify_eigen_chain(cx, x, op, 3)
        assert isinstance(wit, rd.Witness)
        chains = [wit.x_chain, wit.s_chain, wit.y, *(chain for _gamma, chain in wit.u)]
        values.append(wit.a)
        result = rd.one_sharbly_reduce_n2(cx, wit.s_chain)
        assert isinstance(result, rd.ReductionResult)
        chains += [result.reduced, result.homotopy, *(chain for _gamma, chain in result.bar_terms)]
        values += result.w1_coords
        for chain in chains:
            values += chain.coeffs.values()
        assert len(values) > 100
        assert [x for x in values if not _canonical_q(x)] == []

import dataclasses
import random
from fractions import Fraction

import pytest

from sharbly import intlinalg as la
from sharbly import reduction as rd
from sharbly import sharbly as sh
from sharbly.congruence import is_gamma0
from sharbly.fields import PrimeField, QQ, solve
from sharbly.hecke import hecke_cosets, theta_s
from sharbly.homology import (
    _cell_coordinate, _locate, build_complex, chain_to_w, homology, is_voronoi_supported,
    theta_lift,
)
from sharbly.voronoi import VoronoiCell, _vertex_maps, equivalent_cells


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

    @pytest.mark.parametrize("n, level", [(2, 11), (3, 7)])
    def test_unimodular_shortcut_matches_equivalent_cells(self, table2, table3, n, level):
        # an n-vertex cell's gamma is read off its vertex matrix; an
        # equivalent_cells witness must give the same W_0 coordinate
        cx = build_complex(n, level, QQ, table=table2 if n == 2 else table3)
        rng = random.Random(level)
        rep = cx.table.orbits[n - 1][0].representative
        checked = flipped = 0
        while checked < 40:
            m = la.freeze([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            if la.det(m) == 0:
                continue
            for key in sh.ar_reduce(m).coeffs:
                cell = VoronoiCell(n, key)
                orb, gamma = _locate(cx, n - 1, cell)
                reference = equivalent_cells(rep, cell)
                assert _cell_coordinate(cx, orb, gamma, cell) == _cell_coordinate(
                    cx, orb, reference, cell
                )
                checked += 1
                flipped += la.det(la.freeze(key)) * la.det(la.freeze(rep.vertices)) < 0
        assert 0 < flipped < checked  # both signs of the vertex matrix occur


class TestOneSharblyReduce:
    def test_already_supported_unchanged(self, cx1):
        c = sh.chain_of(2, [(1, 0), (0, 1), (1, 1)])
        res = rd.one_sharbly_reduce_n2(cx1, c, budget=1)
        assert not isinstance(res, rd.Undetermined)
        assert res.reduced == c.reduced(QQ)
        assert res.homotopy.is_zero() and res.bar_terms == ()
        assert res.verify(c.reduced(QQ))

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

    def test_n3_stub_returns_undetermined(self, table3):
        cx3 = build_complex(3, 2, QQ, table=table3)
        chain = sh.SharblyChain(3, 1)
        out = rd.one_sharbly_reduce(cx3, chain)
        assert isinstance(out, rd.Undetermined)

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
        from sharbly.errors import PreconditionError

        with pytest.raises(PreconditionError):
            rd.hecke_on_h1_n2(11, QQ, 11, cx=cx11)


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
            assert out.closed and "bars" in out.reason
            counts.append(len(calls))
        assert 1 <= counts[0] == counts[1] <= 4
        # a search cut by its budget is not marked closed
        spent = rd.verify_eigen_chain(cx11, x, op, 5, budget=0)
        assert isinstance(spent, rd.Undetermined) and not spent.closed

    def test_prime_field_witness(self, table2):
        cx = build_complex(2, 11, PrimeField(5), table=table2)
        h1 = homology(cx, 1)
        x = h1.homology_reps[0]
        op = hecke_cosets(2, 3, 1)
        wit = rd.verify_eigen_chain(cx, x, op, 4, budget=3)
        assert isinstance(wit, rd.Witness) and wit.verify()


class TestSupportGrowth:
    """The orbit-label bar pairing against an all-pairs vertex-map search."""

    @staticmethod
    def _all_pairs_bars(level, keys, memo):
        one = la.identity(2)
        out = set()
        for src in keys:
            for dst in keys:
                if (src, dst) not in memo:
                    memo[src, dst] = [
                        gamma
                        for gamma in _vertex_maps(VoronoiCell(2, src), VoronoiCell(2, dst), dets=(1,))
                        if gamma != one and all(x % level == 0 for x in gamma[0][1:])
                    ]
                out.update((gamma, src) for gamma in memo[src, dst])
        return out

    @pytest.mark.parametrize("level", [1, 11, 13, 15])
    def test_bars_equal_all_pairs_reference(self, table2, level):
        cx = build_complex(2, level, QQ, table=table2)
        x = homology(cx, 1).homology_reps[0]
        x_chain, s_chain = theta_s(cx, 1, hecke_cosets(2, 2, 1), x)
        system = rd._SupportSystem(cx, with_w1=False)
        system.add_chain_keys(x_chain)
        system.add_chain_keys(s_chain)
        memo = {}
        for _round in range(2):
            system.grow()
            assert len(set(system.bars)) == len(system.bars)
            assert set(system.bars) == self._all_pairs_bars(level, sorted(system.s1), memo)

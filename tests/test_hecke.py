import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from sharbly import hecke as hk
from sharbly import intlinalg as la
from sharbly import manin
from sharbly.errors import PreconditionError
from sharbly.fields import QQ
from sharbly.homology import build_complex, homology


class TestCosets:
    def test_n2_ell2(self):
        op = hk.hecke_cosets(2, 2, 1)
        assert op.cosets == (
            ((1, 0), (0, 2)),
            ((1, 0), (1, 2)),
            ((2, 0), (0, 1)),
        )

    def test_n3_ell2_count(self):
        assert hk.hecke_cosets(3, 2, 1).degree() == 7

    def test_central(self):
        assert hk.hecke_cosets(2, 3, 2).cosets == (((3, 0), (0, 3)),)
        assert hk.hecke_cosets(3, 2, 3).cosets == (((2, 0, 0), (0, 2, 0), (0, 0, 2)),)

    def test_composite_rejected(self):
        with pytest.raises(PreconditionError):
            hk.hecke_cosets(2, 6, 1)

    @pytest.mark.parametrize("n,ell,k", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 2, 2)])
    def test_counts_match_gaussian_binomial(self, n, ell, k):
        assert hk.hecke_cosets(n, ell, k).degree() == hk.gaussian_binomial(n, k, ell)

    @pytest.mark.parametrize(
        "n,ell,k", [(2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2)]
    )
    def test_tiling_of_double_coset(self, n, ell, k):
        # every Hermite form with the right determinant and elementary
        # divisors lies in exactly one right coset s_i * SL(n,Z)
        op = hk.hecke_cosets(n, ell, k)
        target = tuple([1] * (n - k) + [ell] * k)
        det_target = ell ** k
        count = 0
        for diag in itertools.product(
            *([[d for d in range(1, det_target + 1) if det_target % d == 0]] * n)
        ):
            prod = 1
            for d in diag:
                prod *= d
            if prod != det_target:
                continue
            slots = [(i, j) for i in range(n) for j in range(i)]
            for fill in itertools.product(*[range(diag[i]) for i, _ in slots]):
                m = [[0] * n for _ in range(n)]
                for i in range(n):
                    m[i][i] = diag[i]
                for (i, j), v in zip(slots, fill):
                    m[i][j] = v
                mat = la.freeze(m)
                if la.snf(mat) != target:
                    continue
                count += 1
                assert hk.coset_of(op, mat) is not None  # exactly-one inside
        assert count == op.degree()


class TestHeckeH0:
    def test_level_11_spot_values(self, cx11):
        rep2 = hk.hecke_on_h0(2, 11, QQ, 2, 1, cx=cx11)
        assert rep2.eigen == ((Fraction(-2), 2), (Fraction(3), 1))
        assert rep2.remainder is None
        rep3 = hk.hecke_on_h0(2, 11, QQ, 3, 1, cx=cx11)
        assert rep3.eigen == ((Fraction(-1), 2), (Fraction(4), 1))

    def test_oracle_agreement_sample(self, table2):
        for level, ell in ((14, 3), (15, 2), (21, 2), (23, 2)):
            cx = build_complex(2, level, QQ, table=table2)
            rep = hk.hecke_on_h0(2, level, QQ, ell, 1, cx=cx)
            _, cp = manin.manin_hecke(level, ell)
            assert rep.charpoly == cp

    def test_central_operator_is_identity(self, cx11):
        rep = hk.hecke_on_h0(2, 11, QQ, 3, 2, cx=cx11)
        ident = tuple(
            tuple(QQ.one if i == j else QQ.zero for j in range(rep.dimension))
            for i in range(rep.dimension)
        )
        assert rep.matrix == ident

    def test_bad_prime_rejected(self, cx11):
        with pytest.raises(PreconditionError):
            hk.hecke_on_h0(2, 11, QQ, 11, 1, cx=cx11)

    def test_commutativity_level_11(self, cx11):
        mats = {
            ell: hk.hecke_on_h0(2, 11, QQ, ell, 1, cx=cx11).matrix
            for ell in (2, 3, 5, 7)
        }
        for a in mats.values():
            for b in mats.values():
                assert _mul(a, b) == _mul(b, a)

    def test_basis_independence(self, cx11):
        # re-expressing H_0 in a mixed basis leaves the char poly alone
        h0 = homology(cx11, 0)
        mixed = list(h0.homology_reps)
        mixed[0] = tuple(a + b for a, b in zip(mixed[0], mixed[1]))
        mixed[2] = tuple(3 * c for c in mixed[2])
        twisted = replace(h0, homology_reps=tuple(mixed))
        op = hk.hecke_cosets(2, 2, 1)
        columns = []
        import sharbly.sharbly as sh
        from sharbly.homology import express_cycle

        for rep_vec in twisted.homology_reps:
            _, s_chain = hk.theta_s(cx11, 0, op, rep_vec)
            image = hk.symbol_chain_to_w0(cx11, sh.ar_reduce_chain(s_chain))
            columns.append(express_cycle(twisted, image))
        mat = tuple(
            tuple(columns[j][i] for j in range(len(columns)))
            for i in range(len(columns))
        )
        from sharbly.fields import charpoly

        assert charpoly(QQ, mat) == hk.hecke_on_h0(2, 11, QQ, 2, 1, cx=cx11).charpoly


class TestHeckeN3:
    def test_eisenstein_values_level_4(self, table3):
        # the surviving degree-0 class at level 4 is Eisenstein-like: each
        # operator acts by its coset count
        cx = build_complex(3, 4, QQ, table=table3)
        r3 = hk.hecke_on_h0(3, 4, QQ, 3, 1, cx=cx)
        assert r3.matrix == ((Fraction(13),),)
        assert 13 == hk.gaussian_binomial(3, 1, 3)
        r32 = hk.hecke_on_h0(3, 4, QQ, 3, 2, cx=cx)
        assert r32.matrix == ((Fraction(13),),)
        r5 = hk.hecke_on_h0(3, 4, QQ, 5, 1, cx=cx)
        assert r5.matrix == ((Fraction(31),),)

    def test_commutativity_small_levels(self, table3):
        for level in (1, 2, 3, 4, 5):
            cx = build_complex(3, level, QQ, table=table3)
            mats = []
            for ell in (2, 3):
                if level % ell == 0:
                    continue
                mats.append(hk.hecke_on_h0(3, level, QQ, ell, 1, cx=cx).matrix)
            for a in mats:
                for b in mats:
                    assert _mul(a, b) == _mul(b, a)


def _mul(a, b):
    n = len(a)
    if n == 0:
        return ()
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )

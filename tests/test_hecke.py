import itertools
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from sharbly import hecke as hk
from sharbly import intlinalg as la
from sharbly import manin
from sharbly import sharbly as sh
from sharbly.errors import InternalCheckError, PreconditionError
from sharbly.fields import QQ, PrimeField
from sharbly.homology import build_complex, express_cycle, homology


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
        assert hk.hecke_cosets(3, 7, 3).cosets == (((7, 0, 0), (0, 7, 0), (0, 0, 7)),)

    def test_composite_rejected(self):
        with pytest.raises(PreconditionError):
            hk.hecke_cosets(2, 6, 1)

    @pytest.mark.parametrize("n,ell,k", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 2, 2)])
    def test_counts_match_gaussian_binomial(self, n, ell, k):
        assert hk.hecke_cosets(n, ell, k).degree() == hk.gaussian_binomial(n, k, ell)

    @pytest.mark.parametrize(
        "n,ell,k",
        [(2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2), (3, 3, 2), (4, 2, 2)],
    )
    def test_tiling_of_double_coset(self, n, ell, k):
        # the representatives are exactly the lower-triangular Hermite forms
        # with the right determinant and elementary divisors, found here by
        # a Smith-form filter; Hermite forms are unique per right coset
        op = hk.hecke_cosets(n, ell, k)
        target = tuple([1] * (n - k) + [ell] * k)
        det_target = ell ** k
        found = []
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
                if la.snf(mat) == target:
                    found.append(mat)
        assert tuple(sorted(found)) == op.cosets


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

    def test_survey_script_matches_the_oracle(self):
        # every H_0 char poly at N <= 16, killed-orbit levels 2, 5, 10 and 13
        # included, against the independent Manin oracle
        script = Path(__file__).resolve().parents[1] / "scripts" / "hecke_survey.py"
        out = subprocess.run(
            [sys.executable, str(script), "--max-level", "16", "--all-levels",
             "--primes", "2,3,5"],
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert "0 mismatches" in out.stdout

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
        # T(2,1) on a mixed basis of H_0 is M conjugated by the change of
        # basis P, so the char poly does not depend on the basis
        from sharbly.fields import charpoly
        from test_intlinalg import _gauss_jordan

        h0 = homology(cx11, 0)
        mixed = list(h0.homology_reps)
        mixed[0] = tuple(a + b for a, b in zip(mixed[0], mixed[1]))
        mixed[2] = tuple(3 * c for c in mixed[2])
        op = hk.hecke_cosets(2, 2, 1)
        images = [_reference_h0_image(cx11, op, x) for x in mixed]
        report = hk.hecke_on_h0(2, 11, QQ, 2, 1, cx=cx11)
        p_mat = tuple(zip(*(express_cycle(h0, x) for x in mixed)))
        assert tuple(zip(*images)) == _mul(report.matrix, p_mat)
        d = len(p_mat)
        aug = [list(row) + [QQ.one if i == j else QQ.zero for j in range(d)]
               for i, row in enumerate(p_mat)]
        p_inv = tuple(tuple(row[d:]) for row in _gauss_jordan(QQ, aug))
        conjugated = _mul(_mul(p_inv, report.matrix), p_mat)
        assert conjugated != report.matrix
        assert charpoly(QQ, conjugated) == report.charpoly
        with pytest.raises(TypeError):
            replace(h0, homology_reps=tuple(mixed))


    def test_matrices_do_not_depend_on_history(self, table2, table3):
        # the translate lists are cached per process; the H_0 matrices are
        # the same whichever operators and levels came first
        cases = [(2, 11, QQ, 2, 1), (2, 35, PrimeField(32003), 3, 1), (3, 17, QQ, 2, 2),
                 (2, 37, QQ, 2, 1), (3, 11, PrimeField(32003), 2, 1), (3, 17, QQ, 3, 1)]
        complexes = {(n, level, f): build_complex(n, level, f, table=table2 if n == 2 else table3)
                     for n, level, f, _, _ in cases}

        def run(order):
            return {(n, level, f, ell, k): hk.hecke_matrix_on_h0(complexes[n, level, f],
                                                                  hk.hecke_cosets(n, ell, k))
                    for n, level, f, ell, k in order}

        hk._h0_translates.cache_clear()
        first = run(cases)
        info = hk._h0_translates.cache_info()
        assert (info.hits, info.misses) == (1, 5)  # T(2,1) at n = 2 is shared by N = 11 and 37
        hk._h0_translates.cache_clear()
        again = run(reversed(cases))
        assert again == first
        assert all(any(map(any, cols)) for cols in first.values())

    def test_h0_matrix_needs_a_single_unimodular_orbit(self, cx11):
        orbits = dict(cx11.table.orbits)
        orbits[1] = orbits[1] * 2
        cx = replace(cx11, table=replace(cx11.table, orbits=orbits))
        with pytest.raises(InternalCheckError, match="single unimodular cell orbit"):
            hk.hecke_matrix_on_h0(cx, hk.hecke_cosets(2, 2, 1))

    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
    @pytest.mark.parametrize("n,level,ops", [
        (2, 11, ((2, 1), (3, 1), (5, 1))),
        (2, 35, ((2, 1), (3, 1), (5, 1))),
        (2, 37, ((2, 1), (3, 1), (5, 1))),
        (2, 43, ((2, 1), (3, 1), (5, 1))),
        # H_0 vanishes at n = 3, N = 7 and 13
        (3, 11, ((2, 1), (2, 2), (3, 1))),
        (3, 17, ((2, 1), (2, 2), (3, 1))),
        (3, 23, ((2, 1), (2, 2), (3, 1))),
    ])
    def test_translate_list_matches_the_reference_path(self, table2, table3, n, level, ops, field):
        # the level-free translate list gives, entry for entry, the columns of
        # theta(x) * T reduced symbol by symbol and read back in W_0
        cx = build_complex(n, level, field, table=table2 if n == 2 else table3)
        h0 = homology(cx, 0)
        assert h0.dimension > 0
        # the column loop reads each rep as the unit vector of one generator
        assert all([x for x in rep if x] == [field.one] for rep in h0.homology_reps)
        checked = 0
        for ell, k in ops:
            if level % ell == 0:
                continue
            op = hk.hecke_cosets(n, ell, k)
            want = [_reference_h0_image(cx, op, x) for x in h0.homology_reps]
            assert hk.hecke_matrix_on_h0(cx, op) == want
            checked += 1
        assert checked >= 2


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


    def test_hecke_relations_over_fp(self, table3, n3_prime_complexes):
        # on H_0 over F_32003, T(l, 1) and T(l, 2) have one char poly (their
        # eigenvalues are complex conjugates, Ash-Grayson-Green), and T(2, 1)
        # commutes with T(3, 1)
        p = 32003
        complexes = dict(n3_prime_complexes)
        for level in (25, 35, 49, 55):
            complexes[level] = build_complex(3, level, PrimeField(p), table=table3)
        commuting = 0
        for level, cx in complexes.items():
            mats = {}
            for ell in (2, 3):
                if level % ell:
                    t1, t2 = (hk.hecke_on_h0(3, level, cx.field, ell, k, cx=cx) for k in (1, 2))
                    assert t1.charpoly == t2.charpoly, (level, ell)
                    mats[ell] = t1.matrix
            if len(mats) == 2:
                ab, ba = _mul(mats[2], mats[3]), _mul(mats[3], mats[2])
                assert [[x % p for x in row] for row in ab] == [[x % p for x in row] for row in ba]
                commuting += 1
        assert commuting == 20  # the 16 primes 5 <= p <= 61 and the four composites


def _reference_h0_image(cx, op, x):
    """H_0 coordinates of x * T by the path the translate list replaces:
    theta(x) * T, each symbol reduced by ar_reduce, read back in W_0."""
    _, s_chain = hk.theta_s(cx, 0, op, x)
    reduced = sh.SharblyChain(cx.n, 0)
    for key, c in s_chain.reduced(cx.field).coeffs.items():
        reduced.add_chain(sh.ar_reduce(key), c)
    return express_cycle(homology(cx, 0), hk.symbol_chain_to_w0(cx, reduced))


def _mul(a, b):
    n = len(a)
    if n == 0:
        return ()
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )

"""Acceptance suite: every criterion is exact (tolerance zero).

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.
"""

import random
from fractions import Fraction

import pytest

from sharbly import hecke as hk
from sharbly import intlinalg as la
from sharbly import manin
from sharbly import reduction as rd
from sharbly import sharbly as sh
from sharbly.errors import PreconditionError
from sharbly.fields import PrimeField, QQ
from sharbly.homology import betti_numbers, build_complex, express_cycle, homology
from sharbly.voronoi import cell_dim, is_simplex


def _squarefree(n):
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _passed(num, message):
    print(f"ACCEPTANCE {num}: PASS - {message}")


def test_criterion_1_single_codim_top_orbit(table2, table3):
    for n, table in ((2, table2), (3, table3)):
        assert len(table.orbits[n - 1]) == 1
    _passed(1, "exactly one orbit of (n-1)-cells for n = 2 and n = 3")


def test_criterion_2_all_cells_simplices(table2, table3):
    for table in (table2, table3):
        for d, orbs in table.orbits.items():
            for orb in orbs:
                assert is_simplex(orb.representative)
                assert len(orb.representative.vertices) == cell_dim(orb.representative) + 1
    _passed(2, "every enumerated cell is a simplex for n <= 3")


def test_criterion_3_dd_zero_all_complexes(table2, table3):
    built = 0
    for n, table, levels in ((2, table2, range(1, 31)), (3, table3, range(1, 6))):
        for level in levels:
            fields = [QQ]
            for p in (3, 5, 7):
                try:
                    cx = build_complex(n, level, PrimeField(p), table=table)
                except PreconditionError:
                    continue
                fields.append(cx.field)
                built += 1
                for k in range(2, cx.max_degree + 1):
                    assert cx.boundaries[k - 1].compose(cx.boundaries[k]).is_zero()
            cx = build_complex(n, level, QQ, table=table)
            built += 1
            for k in range(2, cx.max_degree + 1):
                assert cx.boundaries[k - 1].compose(cx.boundaries[k]).is_zero()
    _passed(3, f"d o d = 0 exactly in {built} complexes (n = 2: N <= 30; n = 3: N <= 5)")


def test_criterion_4_oracle_dimension_agreement(table2):
    for level in range(1, 31):
        cx = build_complex(2, level, QQ, table=table2)
        assert betti_numbers(cx)[0] == manin.manin_dim(level)
    assert betti_numbers(build_complex(2, 11, QQ, table=table2))[0] == 3
    assert betti_numbers(build_complex(2, 1, QQ, table=table2))[0] == 0
    _passed(4, "dim H0 equals the Manin oracle for all N <= 30 (N=11 gives 3, N=1 gives 0)")


def test_criterion_5_hecke_eigenvalues_match_oracle(table2):
    checked = 0
    for level in range(1, 31):
        if not _squarefree(level):
            continue
        cx = build_complex(2, level, QQ, table=table2)
        for ell in (2, 3, 5, 7):
            if level % ell == 0:
                continue
            rep = hk.hecke_on_h0(2, level, QQ, ell, 1, cx=cx)
            _, oracle_cp = manin.manin_hecke(level, ell)
            assert rep.charpoly == oracle_cp
            checked += 1
    cx11 = build_complex(2, 11, QQ, table=table2)
    assert hk.hecke_on_h0(2, 11, QQ, 2, 1, cx=cx11).eigen == (
        (Fraction(-2), 2),
        (Fraction(3), 1),
    )
    assert hk.hecke_on_h0(2, 11, QQ, 3, 1, cx=cx11).eigen == (
        (Fraction(-1), 2),
        (Fraction(4), 1),
    )
    _passed(5, f"{checked} Hecke char polys match the oracle exactly (squarefree N <= 30)")


def test_criterion_6_chain_level_verification(cx11):
    h1 = homology(cx11, 1)
    x = h1.homology_reps[0]
    op = hk.hecke_cosets(2, 2, 1)
    wit = rd.verify_eigen_chain(cx11, x, op, 3, budget=3)
    assert isinstance(wit, rd.Witness)
    assert wit.verify()
    rep = rd.hecke_on_h1_n2(11, QQ, 2, budget=3, cx=cx11)
    assert not isinstance(rep, rd.Undetermined)
    assert rep.eigen == ((Fraction(3), 1),)
    _passed(6, "witness certifies a = 3 for T(2,1) on H1 at N = 11; H1 action agrees")


def test_criterion_7_property_suites(table2, table3, cx11):
    # sharbly normalization sign laws
    rng = random.Random(2024)
    for _ in range(100):
        vs = []
        while len(vs) < 3:
            v = (rng.randint(-5, 5), rng.randint(-5, 5))
            if any(v):
                vs.append(v)
        base = sh.normalize(2, vs)
        perm = list(range(3))
        rng.shuffle(perm)
        permuted = sh.normalize(2, [vs[i] for i in perm])
        if base is None:
            assert permuted is None
        else:
            assert permuted.vectors == base.vectors
            assert permuted.sign == sh._perm_sign(perm) * base.sign

    # theta chain-map identity on every n = 3 orbit representative
    for d in sorted(table3.orbits):
        if d == 2:
            continue
        for orb in table3.orbits[d]:
            lhs = sh.boundary(sh.chain_of(3, orb.representative.vertices))
            rhs = sh.SharblyChain(3, d - 3)
            for fr in orb.facets:
                target = table3.orbits[d - 1][fr.orbit].representative
                rhs.add_term([la.vec_mat(v, fr.gamma) for v in target.vertices], fr.sign)
            assert lhs == rhs

    # ar_reduce termination and class-level equivariance on 100 matrices
    h0 = homology(cx11, 0)
    count = 0
    while count < 100:
        m = la.freeze([[rng.randint(-7, 7) for _ in range(2)] for _ in range(2)])
        d = la.det(m)
        if d == 0 or abs(d) > 50:
            continue
        count += 1
        out = sh.ar_reduce(m)
        assert all(abs(la.det(la.freeze(k))) == 1 for k in out.coeffs)
        if count % 4 == 0:
            gamma = la.freeze([[1, 11], [1, 12]])
            lhs = express_cycle(
                h0, hk.symbol_chain_to_w0(cx11, sh.ar_reduce(la.mat_mul(m, gamma)))
            )
            rhs = express_cycle(h0, hk.symbol_chain_to_w0(cx11, out))
            assert lhs == rhs

    # Hecke commutativity
    def matmul(a, b):
        n = len(a)
        return tuple(
            tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
            for i in range(n)
        )

    m2 = hk.hecke_on_h0(2, 11, QQ, 2, 1, cx=cx11).matrix
    m3 = hk.hecke_on_h0(2, 11, QQ, 3, 1, cx=cx11).matrix
    assert matmul(m2, m3) == matmul(m3, m2)
    for level in range(1, 6):
        cx3 = build_complex(3, level, QQ, table=table3)
        mats = [
            hk.hecke_on_h0(3, level, QQ, ell, 1, cx=cx3).matrix
            for ell in (2, 3)
            if level % ell
        ]
        for a in mats:
            for b in mats:
                assert matmul(a, b) == matmul(b, a)
    _passed(7, "sign laws, theta chain map, ar_reduce properties, Hecke commutativity")


def test_criterion_8_hypothesis_enforcement(table2, run_cli):
    with pytest.raises(PreconditionError):
        build_complex(2, 11, PrimeField(2), table=table2)
    with pytest.raises(PreconditionError):
        build_complex(2, 1, PrimeField(3), table=table2)  # 3 divides order 6
    for field in ("Fp:2", "Fp:3"):
        proc = run_cli(["homology", "--n", "2", "--level", "1", "--field", field])
        assert proc.returncode == 2, proc.stderr
    _passed(8, "F_2 and p | stabilizer-order coefficients rejected with exit code 2")


def test_criterion_9_deterministic_reports(run_cli, tmp_path):
    def run(seed):
        outputs = []
        for args in (
            ["homology", "--n", "2", "--level", "11", "--field", "Q"],
            ["hecke", "--n", "2", "--level", "11", "--ell", "2", "--degree", "0"],
            ["cells", "--n", "2"],
        ):
            proc = run_cli([*args, "--seed", str(seed)])
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        outputs.append((tmp_path / "cells-n2.json").read_text())
        outputs.append((tmp_path / "complex-n2-N11-Q.json").read_text())
        return outputs

    assert run(1) == run(424242)
    _passed(9, "reports are byte-identical across different self-check seeds")

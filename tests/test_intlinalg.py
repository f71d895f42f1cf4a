import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharbly import intlinalg as la
from sharbly.errors import InternalCheckError


def naive_short_vectors(g, bound):
    """Independent oracle: enumerate the full coordinate cube."""
    n = len(g)
    # crude but safe box: |v_i| <= bound * max row sum of adj(g) / det... use
    # the loose bound from diagonal entries of the inverse.
    d = la.det(g)
    adj = la.adjugate(g)
    box = 0
    for i in range(n):
        # (v_i)^2 <= bound * (g^{-1})_{ii}
        box = max(box, math.isqrt(bound * adj[i][i] // d) + 1)
    out = set()
    for v in itertools.product(range(-box, box + 1), repeat=n):
        if any(v) and la.quadratic_value(g, v) <= bound:
            out.add(la.sign_normalize(v))
    return sorted(out)


small_mats = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def _canonical_q(x) -> bool:
    """x is an element of Q in canonical form: an int, or a Fraction whose
    denominator is not 1."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _minus(f, row, a, pivot):
    """row - a * pivot, densely."""
    if a == f.zero:
        return row
    return [f(x - a * y) for x, y in zip(row, pivot)]


def _gauss_jordan(f, rows):
    """Independent dense reference: the nonzero rows of the RREF over f."""
    work = [list(r) for r in rows]
    out = []
    for c in range(len(work[0]) if work else 0):
        pivot = next((r for r in work if r[c] != f.zero), None)
        if pivot is None:
            continue
        work.remove(pivot)
        pivot = [f(Fraction(x, pivot[c])) for x in pivot]
        work = [_minus(f, r, r[c], pivot) for r in work]
        out = [_minus(f, r, r[c], pivot) for r in out]
        out.append(pivot)
    return out


def poly_divide_root(f, poly, root):
    """poly / (x - root) over the field f, assuming root is a root: the
    field-arithmetic synthetic division that `fields._deflate` replaced."""
    n = len(poly) - 1
    out = [f.zero] * n
    carry = poly[n]
    for i in range(n - 1, -1, -1):
        out[i] = carry
        carry = f(poly[i] + root * carry)
    if carry != f.zero:
        raise ValueError(f"{root} is not a root: the remainder is {carry}")
    return tuple(out)


def _reference_eigenvalues(f, poly):
    """The earlier `fields.eigenvalues`, kept as a reference: field
    arithmetic throughout, and the whole scan repeated after any root."""
    from math import lcm

    from sharbly.fields import PrimeField

    def value(p, x):
        acc = f.zero
        for c in reversed(p):
            acc = f(acc * x + c)
        return acc

    roots: dict = {}
    cur = tuple(poly)
    if isinstance(f, PrimeField):
        candidates = list(range(f.p))
    else:
        # rational root theorem: p/q with p | a0 and q | an, by trial
        d = lcm(*(Fraction(c).denominator for c in cur))
        ints = [int(c * d) for c in cur]
        ints = ints[next(i for i, c in enumerate(ints) if c):]
        a0, an = abs(ints[0]), abs(ints[-1])
        candidates = sorted(
            {Fraction(0)}
            | {Fraction(s * a, b) for a in range(1, a0 + 1) if a0 % a == 0
               for b in range(1, an + 1) if an % b == 0 for s in (1, -1)}
        )
    progress = True
    while progress and len(cur) > 1:
        progress = False
        for cand in candidates:
            x = f(cand)
            while len(cur) > 1 and value(cur, x) == f.zero:
                roots[x] = roots.get(x, 0) + 1
                cur = poly_divide_root(f, cur, x)
                progress = True
    remainder = cur if len(cur) > 1 else None
    return sorted(roots.items(), key=lambda r: r[0]), remainder


def _random_square(rng, n, entry, triangular):
    """An n x n matrix of entry() draws; upper triangular with diagonal
    entries from a short list when asked, so that roots repeat."""
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if triangular:
        for i in range(n):
            rows[i][:i] = [0] * i
            rows[i][i] = rng.choice((-1, 2, 3))
    return rows


def triple_loop_product(a, b):
    """a * b by the textbook triple loop, for a k-column a and k-row b."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            total = 0
            for t in range(len(b)):
                total += a[i][t] * b[t][j]
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


def leibniz_det(a):
    """det a as the signed sum over permutations, each sign read off its
    inversion count."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def loop_content(v):
    """The gcd of the entries, one coordinate at a time."""
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return g


def loop_primitivize(v):
    """v divided by its content, then negated if its first nonzero entry
    is negative."""
    g = loop_content(v)
    if g == 0:
        raise ValueError("zero vector")
    w = [x // g for x in v]
    lead = next(x for x in w if x)
    return tuple(-x for x in w) if lead < 0 else tuple(w)


def _small_vectors():
    """Every vector of length 0 to 3 with entries in [-4, 4], and random
    ones of length 4 and 5 with a common factor, zeros and signs mixed."""
    for k in range(4):
        yield from itertools.product(range(-4, 5), repeat=k)
    rng = random.Random(31)
    for _ in range(400):
        k = rng.choice((4, 5))
        scale = rng.choice((1, 2, -3, 6))
        yield tuple(scale * rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(k))


class TestProducts:
    def test_match_the_triple_loop(self):
        # one draw per shape, then many at the square 2 x 2 and 3 x 3 right
        # factors (the closed forms), with the left side given as lists too
        rng = random.Random(29)
        shapes = list(itertools.product(range(1, 5), repeat=3))
        shapes += [(m, k, k) for m in (1, 2, 3, 5) for k in (2, 3)] * 25
        for m, k, l in shapes:
            a = la.freeze([[rng.randint(-9, 9) for _ in range(k)] for _ in range(m)])
            b = la.freeze([[rng.randint(-9, 9) for _ in range(l)] for _ in range(k)])
            want = triple_loop_product(a, b)
            assert la.mat_mul(a, b) == want
            assert la.mat_mul([list(row) for row in a], b) == want
            assert [la.vec_mat(row, b) for row in a] == list(want)
            assert [la.vec_mat(list(row), b) for row in a] == list(want)

    def test_shape_mismatch_raises(self):
        two_by_three = ((1, 2, 3), (4, 5, 6))
        for v in ((1, 2), (1, 2, 3, 4), ()):
            with pytest.raises(ValueError):
                la.vec_mat(v, la.identity(3))
        with pytest.raises(ValueError):
            la.mat_mul(two_by_three, la.identity(2))
        with pytest.raises(ValueError):
            la.mat_mul(la.identity(2), la.identity(3))
        with pytest.raises(ValueError):
            la.mat_mul(((1, 2), (3,)), la.identity(2))
        assert la.mat_mul(la.identity(2), two_by_three) == two_by_three
        # a ragged right factor: zip would cut its rows to the shortest one
        for v, a in (((1, 1, 1, 1), ((1, 2), (3,), (4, 5), (6, 7))),
                     ((1, 1), ((1, 2, 3), (4, 5))),
                     ((1, 1, 1), ((1, 2, 3), (4, 5, 6), (7, 8)))):
            with pytest.raises(ValueError):
                la.vec_mat(v, a)
            with pytest.raises(ValueError):
                la.mat_mul((v, v), a)


class TestHnf:
    def test_identity(self):
        h, u = la.hnf(la.identity(2))
        assert h == la.identity(2)
        assert u == la.identity(2)

    def test_row_swap(self):
        a = la.freeze([[0, 1], [1, 0]])
        h, u = la.hnf(a)
        assert h == la.identity(2)
        assert la.mat_mul(u, a) == h
        assert abs(la.det(u)) == 1

    def test_two_by_two(self):
        a = la.freeze([[2, 4], [6, 8]])
        h, u = la.hnf(a)
        assert h == la.freeze([[2, 0], [0, 4]])
        assert la.mat_mul(u, a) == h
        assert abs(la.det(u)) == 1
        assert abs(la.det(h)) == 8

    @given(small_mats)
    @settings(max_examples=150, deadline=None)
    def test_transform_is_unimodular(self, rows):
        a = la.freeze(rows)
        h, u = la.hnf(a)
        assert abs(la.det(u)) == 1
        assert la.mat_mul(u, a) == h


class TestSnf:
    def test_diag(self):
        assert la.snf(la.freeze([[1, 0], [0, 2]])) == (1, 2)
        # a negative, a zero or an out-of-order pair on the diagonal, which
        # the divisor ordering must fix
        assert la.snf(((-2, 0), (0, 3))) == (1, 6)
        assert la.snf(((4, 0), (0, 6))) == (2, 12)
        assert la.snf(((6, 0, 0), (0, 0, 0), (0, 0, 10))) == (2, 30)
        assert la.snf(((0, 2),)) == (2,)
        assert la.snf(((0, 0), (0, -5))) == (5,)

    def test_small(self):
        # gcd of entries 1, determinant 3
        assert la.snf(la.freeze([[2, 1], [1, 2]])) == (1, 3)

    def test_zero(self):
        assert la.snf(((0, 0, 0), (0, 0, 0))) == ()

    @given(small_mats)
    @settings(max_examples=100, deadline=None)
    def test_divisibility_chain(self, rows):
        a = la.freeze(rows)
        d = la.snf(a)
        for x, y in zip(d, d[1:]):
            assert y % x == 0
        if len(a) == len(a[0]):
            dd = la.det(a)
            if dd != 0:
                prod = 1
                for x in d:
                    prod *= x
                assert prod == abs(dd)

    @given(small_mats, st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_unimodular_invariance(self, rows, rng):
        a = la.freeze(rows)
        n = len(a)

        def random_elementary():
            u = [list(r) for r in la.identity(n)]
            for _ in range(4):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.randint(-2, 2)
                    u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            return la.freeze(u)

        left, right = random_elementary(), random_elementary()
        assert la.snf(la.mat_mul(left, a)) == la.snf(a)
        assert la.snf(la.mat_mul(a, right)) == la.snf(a)
        assert la.snf(la.mat_mul(left, la.mat_mul(a, right))) == la.snf(a)


class TestDetAdj:
    @given(small_mats)
    @settings(max_examples=100, deadline=None)
    def test_adjugate_identity(self, rows):
        a = la.freeze(rows)
        if len(a) != len(a[0]):
            return
        d = la.det(a)
        prod = la.mat_mul(a, la.adjugate(a))
        assert prod == tuple(
            tuple(d if i == j else 0 for j in range(len(a))) for i in range(len(a))
        )

    @staticmethod
    def _cofactor_adjugate(a):
        """adj(a)[i][j] = (-1)^(i+j) det(a without row j and column i), with
        the minors' determinants from `leibniz_det`."""
        n = len(a)
        return tuple(
            tuple((-1) ** (i + j) * leibniz_det(la._minor(a, j, i)) for j in range(n))
            for i in range(n)
        )

    @staticmethod
    def _random_squares():
        """Matrices of sizes 1 to 4: random ones, and ones with a zero row,
        two equal rows or a zero leading entry."""
        rng = random.Random(37)
        for n in range(1, 5):
            for trial in range(150):
                a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
                if trial % 5 == 1:
                    a[rng.randrange(n)] = [0] * n
                elif trial % 5 == 2 and n > 1:
                    a[0] = list(a[-1])
                elif trial % 5 == 3:
                    a[0][0] = 0
                yield la.freeze(a)

    def test_det_matches_the_leibniz_sum(self):
        assert la.det(()) == 1
        for a in self._random_squares():
            assert la.det(a) == leibniz_det(a), a
            assert la.det([list(row) for row in a]) == leibniz_det(a), a

    def test_det_of_a_non_square_matrix_raises(self):
        for a in (((1, 2, 3), (4, 5, 6)), ((1, 2), (3, 4), (5, 6)),
                  ((1, 2), (3, 4, 5)), ((1, 2, 3), (4, 5, 6), (7, 8)),
                  ((1, 2, 3, 4),) * 3, ((1, 2, 3),) * 4):
            with pytest.raises(InternalCheckError):
                la.det(a)

    def test_adjugate_2x2_closed_form(self):
        for entries in itertools.product(range(-3, 4), repeat=4):
            a = (entries[:2], entries[2:])
            adj = la.adjugate(a)
            assert adj == self._cofactor_adjugate(a)
            d = la.det(a)
            assert la.mat_mul(a, adj) == ((d, 0), (0, d))

    def test_adjugate_1x1_and_3x3_are_cofactors(self):
        assert la.adjugate(((5,),)) == ((1,),)
        rng = random.Random(2)
        for _ in range(50):
            a = la.freeze([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
            assert la.adjugate(a) == self._cofactor_adjugate(a)
        for a in self._random_squares():
            assert la.adjugate(a) == self._cofactor_adjugate(a), a
        # the cofactor loop of the general path would take the leading
        # square block of the 4 x 5 and 1 x 2 matrices
        for a in (((1, 2, 3), (4, 5, 6), (7, 8)), ((1, 2, 3, 4),) * 3,
                  ((1, 2, 3, 4, 5),) * 4, ((1, 2, 3, 4),) * 5, ((1, 2),),
                  ((1, 2, 3, 4), (5, 6, 7, 8), (1, 2, 3), (4, 5, 6, 7))):
            with pytest.raises(ValueError):
                la.adjugate(a)


class TestContent:
    def test_content_matches_the_loop(self):
        # primitivize divides out exactly the content, up to sign
        for v in _small_vectors():
            if any(v):
                g = loop_content(v)
                assert [g * x for x in la.primitivize(v)] in (list(v), [-x for x in v]), v

    def test_primitivize_matches_the_loop(self):
        for v in _small_vectors():
            if not any(v):
                with pytest.raises(ValueError):
                    la.primitivize(v)
                continue
            got = la.primitivize(v)
            assert got == loop_primitivize(v), v
            assert type(got) is tuple and la.primitivize(list(v)) == got

    def test_freeze_refuses_non_integral_entries(self):
        # int(x) would truncate each of these
        for rows in ([[2.5, 1], [1, 3]], [[1, Fraction(1, 2)]], [[float("inf")]], [["3"]]):
            with pytest.raises(ValueError):
                la.freeze(rows)
        with pytest.raises(ValueError):
            la.reduce_to_e1((2.5, 1))

    def test_freeze_takes_integral_values(self):
        frozen = la.freeze([[2.0, Fraction(6, 3)], (True, -0.0)])
        assert frozen == ((2, 2), (1, 0))
        assert all(type(x) is int for row in frozen for x in row)
        assert la.freeze(((1, 2), [3, 4])) == ((1, 2), (3, 4))


class TestReduceToE1:
    @given(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4)
    )
    @settings(max_examples=100, deadline=None)
    def test_reduces_to_e1_in_sl(self, coords):
        v = tuple(coords)
        if math.gcd(*v) != 1 or v == (-1,):
            with pytest.raises(ValueError):
                la.reduce_to_e1(v)
            return
        g = la.reduce_to_e1(v)
        assert la.vec_mat(v, g) == (1,) + (0,) * (len(v) - 1)
        assert la.det(g) == 1
        assert la.inverse_unimodular(g)[0] == v

    def test_rank_one(self):
        # SL(1,Z) = {1}: (1,) reduces by the identity and (-1,) by nothing
        assert la.reduce_to_e1((1,)) == ((1,),)
        with pytest.raises(ValueError):
            la.reduce_to_e1((-1,))


class TestShortVectors:
    def test_identity_bound_one(self):
        assert la.short_vectors(la.identity(2), 1) == [(0, 1), (1, 0)]

    def test_hexagonal(self):
        g = la.freeze([[2, 1], [1, 2]])
        assert la.short_vectors(g, 2) == [(0, 1), (1, -1), (1, 0)]

    def test_identity3_bound2(self):
        vs = la.short_vectors(la.identity(3), 2)
        assert len(vs) == 9  # 3 unit vectors + 6 two-coordinate vectors

    def test_not_positive_definite(self):
        with pytest.raises(ValueError):
            la.short_vectors(la.freeze([[1, 0], [0, -1]]), 1)

    @given(
        st.integers(min_value=2, max_value=3),
        st.randoms(use_true_random=False),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_enumeration(self, n, rng, bound):
        # random small positive definite form b^T b + I
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        g = la.mat_mul(tuple(zip(*la.freeze(b))), la.freeze(b))
        g = tuple(
            tuple(g[i][j] + (1 if i == j else 0) for j in range(n)) for i in range(n)
        )
        assert la.short_vectors(g, bound) == naive_short_vectors(g, bound)

    def test_matches_naive_enumeration_on_the_neighbor_walk(self, monkeypatch):
        # the walk's forms are skewed, unlike the b^T b + I forms above
        from sharbly import voronoi

        calls = []
        real = la.short_vectors

        def checked(g, bound):
            out = real(g, bound)
            assert out == naive_short_vectors(g, bound), (g, bound)
            calls.append(len(g))
            return out

        monkeypatch.setattr(la, "short_vectors", checked)
        for n in (2, 3, 4):
            voronoi.perfect_forms(n)
        assert [calls.count(n) for n in (2, 3, 4)] == [10, 13, 149]


class TestFields:
    def test_charpoly_two_by_two(self):
        from sharbly.fields import QQ, charpoly

        p = charpoly(QQ, [[1, 2], [3, 4]])
        # x^2 - 5x - 2
        assert p == (Fraction(-2), Fraction(-5), Fraction(1))

    def test_charpoly_matches_det_and_trace_fp(self):
        from sharbly.fields import PrimeField, charpoly

        f = PrimeField(5)
        rows = [[1, 2, 0], [0, 3, 1], [4, 0, 2]]
        p = charpoly(f, rows)
        assert len(p) == 4 and p[-1] == 1
        # constant term = (-1)^n det, x^2 coefficient = -trace
        det = f(la.det(la.freeze(rows)))
        assert p[0] == f(-det)
        assert p[2] == f(-(1 + 3 + 2))

    def test_charpoly_over_q_matches_the_oracle(self):
        """The int recursion against manin's own Fraction Berkowitz, with
        and without denominators (which the d^(n-k) rescale undoes)."""
        import random

        from sharbly.fields import QQ, charpoly
        from sharbly.manin import _charpoly

        rng = random.Random(11)
        for n in range(13):
            for dens in ((1,), (1, 2, 3, 4, 6)):
                rows = _random_square(
                    rng, n, lambda: Fraction(rng.randrange(-5, 6), rng.choice(dens)), False
                )
                cp = charpoly(QQ, rows)
                assert cp == _charpoly(QQ, rows)
                assert all(_canonical_q(c) for c in cp)

    def test_charpoly_over_fp_matches_the_oracle_mod_p(self):
        """det(xI - A) of an int matrix reduces mod p coefficientwise, so the
        oracle's char poly over Q, mapped into F_p, is a reference that
        shares no F_p code."""
        import random

        from sharbly.fields import QQ, PrimeField, charpoly
        from sharbly.manin import _charpoly

        rng = random.Random(12)
        for p in (3, 7, 32003):
            f = PrimeField(p)
            cases = [[[p - 1]], [[(p + 1) // 2 + 1]], [[-1]]]
            cases += [
                _random_square(rng, n, lambda: rng.randrange(-2 * p, 2 * p), n % 3 == 0)
                for n in range(11)
            ]
            for rows in cases:
                cp = charpoly(f, rows)
                assert cp == tuple(f(c) for c in _charpoly(QQ, rows))
                assert all(type(c) is int and 0 <= c < p for c in cp)

    def test_eigenvalues_match_the_reference(self):
        """One scan, on int polynomials, finds what the field-arithmetic
        scan repeated to a fixed point finds, multiplicities included."""
        import random

        from sharbly.fields import QQ, PrimeField, charpoly, eigenvalues

        rng = random.Random(13)
        cases = []
        for n in range(7):
            for tri in (False, True):
                cases.append((QQ, _random_square(rng, n, lambda: rng.randrange(-3, 4), tri)))
                cases.append((PrimeField(7), _random_square(rng, n, lambda: rng.randrange(7), tri)))
        for n in range(4):
            entry = lambda: Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3)))  # noqa: E731
            cases.append((QQ, _random_square(rng, n, entry, True)))
        for n in (2, 5):
            entry = lambda: rng.randrange(-9, 10)  # noqa: E731
            cases.append((PrimeField(32003), _random_square(rng, n, entry, True)))
        polys = [(f, charpoly(f, rows)) for f, rows in cases]

        def times(f, *factors):
            out = [f.one]
            for b in factors:
                prod = [f.zero] * (len(out) + len(b) - 1)
                for i, x in enumerate(out):
                    for j, y in enumerate(b):
                        prod[i + j] = f(prod[i + j] + x * y)
                out = prod
            return out

        # over Q: roots 1/2 (twice), -2/3 (three times) and 5 beside x^2 + x + 1,
        # which has no root, with leading coefficient 5/7 * 4 * 27 or -3
        half, third = [QQ(-1), QQ(2)], [QQ(2), QQ(3)]
        for lead in (Fraction(5, 7), Fraction(-3)):
            polys.append((QQ, times(QQ, [QQ(lead)], half, half, third, third, third,
                                    [QQ(-5), QQ(1)], [QQ(1), QQ(1), QQ(1)])))
        # over F_p: 3 x^2 (x - 2)^2 (x^2 + 1), x^2 + 1 having no root mod 7 or
        # 32003, then with two zero leading coefficients, then times x^2
        for p in (7, 32003):
            f = PrimeField(p)
            base = times(f, [3], [0, 1], [0, 1], [f(-2), 1], [f(-2), 1], [1, 0, 1])
            polys += [(f, base), (f, base + [0, 0]), (f, [0, 0] + base)]
        multiple = 0
        for f, cp in polys:
            got = eigenvalues(f, cp)
            assert got == _reference_eigenvalues(f, cp)
            roots, rem = got
            canonical = (lambda x: type(x) is int) if isinstance(f, PrimeField) else _canonical_q
            assert all(canonical(x) for x, _ in roots)
            assert rem is None or all(canonical(c) for c in rem)
            multiple += any(m > 1 for _, m in roots)
        assert multiple >= 5

    def test_fp_roots_match_the_scan(self):
        """Roots over F_p from gcd(f, x^p - x) and its splitting are what
        the scan of every element of F_p finds: roots, multiplicities,
        order and remainder, on polynomials with repeated roots, factors
        without roots, a non-monic or zero leading coefficient, and the
        zero and constant polynomials."""
        import random

        from sharbly.fields import PrimeField, eigenvalues

        def times(a, b, p):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
            return out

        rng = random.Random(20)
        split = 0
        for p, count in ((3, 150), (7, 150), (32003, 6)):
            f = PrimeField(p)
            polys = [[0], [0, 0, 0], [2]]
            for _ in range(count):
                poly = [rng.randrange(1, p)]
                for _ in range(rng.randrange(6)):
                    poly = times(poly, [-rng.randrange(min(p, 4)) % p, 1], p)
                poly = times(poly, [rng.randrange(p) for _ in range(rng.randrange(4))] + [1], p)
                polys.append(poly + [0] * rng.choice((0, 0, 0, 1)))
            for poly in polys:
                got = eigenvalues(f, poly)
                assert got == _reference_eigenvalues(f, poly)
                split += len(got[0]) > 1
        assert split >= 50

    def test_root_candidates_keep_every_rational_root(self):
        """The candidates bounded by Fujiwara's bound after the rescaling
        x = y/D keep every rational root, with denominators up to 12, a
        leading coefficient of either sign and a factor without roots."""
        import random
        from collections import Counter

        from sharbly.fields import QQ, _int_poly, _rational_root_candidates, eigenvalues

        def times(a, b):
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        rng = random.Random(14)
        for _ in range(60):
            roots = [
                Fraction(rng.randrange(-40, 41), rng.choice((1, 2, 3, 4, 6, 9, 12)))
                for _ in range(rng.randrange(1, 8))
            ]
            sign = rng.choice((1, -1))
            poly = [sign * Fraction(rng.randrange(1, 30), rng.choice((1, 5))), 0, sign * rng.randrange(1, 8)]
            for r in roots:
                poly = times(poly, [-r, 1])
            h, d, ys = _rational_root_candidates(_int_poly(QQ, poly))
            assert h[-1] == 1 and all(type(c) is int for c in h + ys) and ys == sorted(ys)
            assert all((r * d).denominator == 1 and int(r * d) in ys for r in roots)
            got, remainder = eigenvalues(QQ, poly)
            assert got == sorted(Counter(roots).items())
            assert remainder is not None and len(remainder) == 3

    def test_rank_kernel(self):
        from sharbly.fields import QQ, PrimeField, SparseFieldMatrix, rank_kernel

        m = SparseFieldMatrix.from_dense(PrimeField(5), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rank_kernel(m) == (3, [])
        m = SparseFieldMatrix.from_dense(PrimeField(3), [[1, 2], [2, 4]])
        r, k = rank_kernel(m)
        assert r == 1 and len(k) == 1
        assert all(x == 0 for x in m.matvec(k[0]))
        m = SparseFieldMatrix.from_dense(QQ, [[0, 0], [0, 0]])
        r, k = rank_kernel(m)
        assert r == 0 and len(k) == 2

    def test_rank_invariant_under_row_permutation(self):
        """rank_kernel and solve read the RREF, which only the row space
        fixes; LinearSpan.add grows exactly when a dense reference rank does,
        and LinearSpan.reduce leaves a vector's class off the pivots."""
        import random

        from sharbly.fields import QQ, LinearSpan, PrimeField, SparseFieldMatrix, rank_kernel, solve

        rng = random.Random(4)
        probe = random.Random(5)  # a stream of its own, so `rng` draws the same matrices
        for f in (QQ, PrimeField(7)):
            rows = [[f(rng.choice((0, 0, 1, -2, 3))) for _ in range(6)] for _ in range(4)]
            rows.append([f(a + 2 * b) for a, b in zip(rows[0], rows[1])])
            x0 = [f(rng.randrange(-3, 4)) for _ in range(6)]
            m = SparseFieldMatrix.from_dense(f, rows)
            rhs = m.matvec(x0)
            bad = list(rhs)
            bad[4] = f(bad[4] + 1)  # row 4 = row 0 + 2 row 1, so inconsistent
            base = rank_kernel(m)
            base_sol = solve(m, rhs)
            assert base[0] == len(_gauss_jordan(f, rows)) == 6 - len(base[1])
            assert all(not any(m.matvec(v)) for v in base[1])
            assert m.matvec(base_sol) == rhs
            for perm in itertools.permutations(range(len(rows))):
                shuffled = SparseFieldMatrix.from_dense(f, [rows[i] for i in perm])
                assert rank_kernel(shuffled) == base
                assert solve(shuffled, [rhs[i] for i in perm]) == base_sol
                assert solve(shuffled, [bad[i] for i in perm]) is None

            for _ in range(30):
                ncols = rng.randrange(1, 9)
                mat = [
                    [f(rng.randrange(-4, 5)) if rng.random() < 0.3 else f.zero for _ in range(ncols)]
                    for _ in range(rng.randrange(1, 10))
                ]
                mat.append([f(a - b) for a, b in zip(mat[0], mat[-1])])
                span = LinearSpan(f)
                for i, row in enumerate(mat):
                    grew = len(_gauss_jordan(f, mat[: i + 1])) > len(_gauss_jordan(f, mat[:i]))
                    assert span.add(dict(enumerate(row))) == grew
                rref = {min(j for j, x in enumerate(r) if x): r for r in _gauss_jordan(f, mat)}
                assert span.rows.keys() == rref.keys()
                assert all(span.entry(p, j) == x for p, r in rref.items() for j, x in enumerate(r))
                rows = {p: dict(row) for p, row in span.rows.items()}
                for _ in range(3):
                    vec = {j: f(probe.randrange(-4, 5)) for j in range(ncols)}
                    left = span.reduce(vec)
                    assert not left.keys() & rows.keys()
                    assert not span.add({j: f(x - left.get(j, 0)) for j, x in vec.items()})
                    assert span.rows == rows

    @pytest.mark.parametrize("p", [0, 3, 7, 32003], ids=["Q", "F3", "F7", "F32003"])
    def test_int_rows_match_the_dense_reference(self, p):
        """LinearSpan stores int rows: primitive with a positive pivot over Q,
        residues with pivot 1 over F_p, none meeting another pivot column;
        entry, reduce, kernel_vectors and solve give the field values of the
        dense RREF, on entries with denominators 2, 3, 4 and 6 over Q."""
        import random
        from math import gcd

        from sharbly.fields import QQ, PrimeField, SparseFieldMatrix, row_span, solve

        f = PrimeField(p) if p else QQ
        rng = random.Random(40 + p)

        def draw():
            if rng.random() < 0.45:
                return f.zero
            if p:
                return rng.randrange(1, p)
            return Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3, 4, 6)))

        compared = solved = 0
        for _ in range(40):
            ncols = rng.randrange(1, 9)
            mat = [[draw() for _ in range(ncols)] for _ in range(rng.randrange(1, 8))]
            a = draw()
            mat.append([f(x + a * y) for x, y in zip(mat[0], mat[-1])])
            m = SparseFieldMatrix.from_dense(f, mat)
            span = row_span(m)
            rref = {min(j for j, x in enumerate(r) if x): r for r in _gauss_jordan(f, mat)}
            assert span.rows.keys() == rref.keys()
            for q, row in span.rows.items():
                assert min(row) == q and all(type(x) is int and x for x in row.values())
                assert not (row.keys() - {q}) & span.rows.keys()
                if p:
                    assert row[q] == 1 and all(0 <= x < p for x in row.values())
                else:
                    assert row[q] > 0 and gcd(*row.values()) == 1
                assert all(span.entry(q, j) == x for j, x in enumerate(rref[q]))

            free = [c for c in range(ncols) if c not in rref]
            want = []
            for c in free:
                vec = [f.zero] * ncols
                vec[c] = f.one
                for q, r in rref.items():
                    vec[q] = f(-r[c])
                want.append(tuple(vec))
            assert span.kernel_vectors(free, ncols) == want

            for _ in range(3):
                vec = [draw() for _ in range(ncols)]
                left = list(vec)
                for q, r in rref.items():
                    left = _minus(f, left, left[q], r)
                got = span.reduce(dict(enumerate(vec)))
                assert got == {j: x for j, x in enumerate(left) if x}
                assert all(type(x) is int if p else _canonical_q(x) for x in got.values())
                compared += len(got)

                for rhs in ([draw() for _ in range(m.nrows)], m.matvec(vec)):
                    aug = {min(j for j, x in enumerate(r) if x): r
                           for r in _gauss_jordan(f, [r + [b] for r, b in zip(mat, rhs)])}
                    sol = None
                    if ncols not in aug:
                        sol = [f.zero] * ncols
                        for q, r in aug.items():
                            sol[q] = r[ncols]
                        sol = tuple(sol)
                        solved += 1
                    assert solve(m, rhs) == sol
        assert compared > 50 and solved >= 120

    def test_invariants_raise_internal_check_error(self):
        from sharbly.errors import InternalCheckError
        from sharbly.fields import QQ, SparseFieldMatrix, _deflate

        # x^2 - 1 has the root 1 but not 2, over Z and mod 7
        assert _deflate([-1, 0, 1], 1, None) == [1, 1]
        assert _deflate([6, 0, 1], 1, 7) == [1, 1]
        for p in (None, 7):
            with pytest.raises(InternalCheckError):
                _deflate([-1, 0, 1], 2, p)
        a = SparseFieldMatrix.from_dense(QQ, [[1, 2], [3, 4]])
        b = SparseFieldMatrix.from_dense(QQ, [[1, 2, 3]])
        with pytest.raises(InternalCheckError):
            a.compose(b)

    def test_solve_checks_the_rhs_length(self):
        from sharbly.fields import QQ, SparseFieldMatrix, row_span, solve

        m = SparseFieldMatrix.from_dense(QQ, [[1, 0], [0, 1], [1, 1]])
        assert solve(m, [1, 2, 3]) == (1, 2)
        for rhs in ([1, 2, 3, 4], [1, 2], []):
            with pytest.raises(ValueError):
                solve(m, rhs)
            with pytest.raises(ValueError):
                row_span(m, rhs)

    def test_matvec_checks_the_vector_length(self):
        from sharbly.fields import PrimeField, SparseFieldMatrix

        m = SparseFieldMatrix.from_dense(PrimeField(7), [[1, 0], [0, 1]])
        assert m.matvec([3, 9]) == [3, 2]
        for v in ([1, 2, 3], [1], []):
            with pytest.raises(ValueError):
                m.matvec(v)

    def test_qq_is_canonical_and_idempotent(self):
        """QQ(x) is an int exactly when x is integral, equals x, and maps
        its own output to itself."""
        from sharbly.fields import QQ

        rng = random.Random(5)
        integral = 0
        for _ in range(400):
            x = Fraction(rng.randrange(-30, 31), rng.randrange(1, 7))
            q = QQ(x)
            assert q == x and hash(q) == hash(x) and QQ(q) is q
            assert (type(q) is int) == (x.denominator == 1) and _canonical_q(q)
            integral += x.denominator == 1
        assert integral > 50
        assert QQ.zero == 0 and type(QQ.zero) is int and QQ.one == 1 and type(QQ.one) is int

    def test_conversion_takes_ints_and_fractions_only(self):
        from sharbly.fields import QQ, PrimeField

        f7 = PrimeField(7)
        assert type(QQ(3)) is int and type(QQ(Fraction(-1, 2))) is Fraction
        assert QQ(Fraction(-1, 2)) == Fraction(-1, 2) and type(QQ(True)) is int
        assert f7(-1) == 6 and f7(Fraction(1, 2)) == 4 and type(f7(True)) is int
        for f in (QQ, f7):
            for x in (2.7, 2.0, "1/2", "3", None):
                with pytest.raises(TypeError):
                    f(x)

    def test_field_two_rejected(self):
        from sharbly.fields import PreconditionError, PrimeField

        with pytest.raises(PreconditionError):
            PrimeField(2)
        with pytest.raises(PreconditionError):
            PrimeField(9)

    @pytest.mark.parametrize("p, prime", [
        (2**61 - 1, True),
        (1_000_000_000_000_000_003, True),
        (561, False),  # a Carmichael number
        (3_215_031_751, False),  # = 151 * 751 * 28351, strong pseudoprime to 2, 3, 5, 7
        (318_665_857_834_031_151_167_461, False),  # strong pseudoprime to 2, ..., 37
    ])
    def test_primality_is_exact_and_fast(self, p, prime):
        import time

        from sharbly.fields import PreconditionError, PrimeField, _is_prime

        start = time.perf_counter()
        assert _is_prime(p) is prime
        if prime:
            assert PrimeField(p).p == p
        else:
            with pytest.raises(PreconditionError, match="not prime"):
                PrimeField(p)
        assert time.perf_counter() - start < 1.0

    def test_primality_beyond_its_exact_range_rejected(self):
        from sharbly.fields import _MR_BOUND, PreconditionError, PrimeField, _is_prime

        assert _is_prime(_MR_BOUND - 168)  # the largest prime below the bound
        assert not _is_prime(_MR_BOUND - 2)
        with pytest.raises(PreconditionError, match="too large"):
            PrimeField(_MR_BOUND)

    def test_eigenvalues(self):
        from sharbly.fields import QQ, eigenvalues

        # (x - 3)(x + 2)^2 = x^3 + x^2 - 8x - 12
        poly = (Fraction(-12), Fraction(-8), Fraction(1), Fraction(1))
        roots, rem = eigenvalues(QQ, poly)
        assert roots == [(Fraction(-2), 2), (Fraction(3), 1)]
        assert rem is None

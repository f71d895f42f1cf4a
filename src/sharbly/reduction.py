"""Reduction of 1-sharbly chains to Voronoi support, with exact certificates.

Everything here works with plain chains plus explicit bar terms: an element
[gamma | c] with gamma in Gamma_0(N) contributes c*gamma - c, which is the
vertical differential of the bar resolution tensored down.  A reduction of
a chain c is then an exact identity

    c  =  (Voronoi-supported chain)  +  d(homotopy)  +  sum_i (c_i g_i - c_i)

between normalized chains, checkable term by term.  Witnesses for the
chain-level Hecke identity  d1 y + theta(x) s - d2 u = a theta(x)  are
found the same way: grow a support set of cone subdivisions in rounds, and
solve one exact linear system over the coefficient field in the
Gamma_0(N)-coinvariants of the sharbly complex, on orbit labels.  The bar
terms are rebuilt only for the residual of the final solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import congruence as cg
from . import intlinalg as la
from . import sharbly as sh
from .errors import InternalCheckError, PreconditionError
from .fields import SparseFieldMatrix, solve
from .hecke import HeckeOperator, _eigen_report, _complex_for, hecke_cosets, theta_s
from .homology import (
    GammaComplex, chain_to_w, express_cycle, homology, is_cycle, is_voronoi_supported, theta_lift,
)
from .voronoi import (
    VoronoiCell, _orientation_transport_sign, cell_signature, cell_stabilizer, equivalent_cells,
)


@dataclass(frozen=True)
class Undetermined:
    """Search budget exhausted without a certificate; never a wrong answer.

    `closed` is set when the search stopped on a closed support: a round of
    growth added nothing, so no larger budget can find a certificate.
    """

    reason: str
    closed: bool = False


def check_budget(budget: int):
    """Reject a negative certificate search budget."""
    if budget < 0:
        raise PreconditionError(f"budget must be >= 0, got {budget}")


# ---------------------------------------------------------------------------
# Certificate search
# ---------------------------------------------------------------------------

def _bad_pairs(key):
    """Vertex pairs of a 1-sharbly spanning a non-unimodular edge."""
    out = []
    for i in range(len(key)):
        for j in range(i + 1, len(key)):
            d = la.det((key[i], key[j]))
            if abs(d) > 1:
                out.append((key[i], key[j], abs(d)))
    return out


# The three helpers below depend on cells and keys only, never on the level,
# so one process computes each of them once for every support system.

@lru_cache(maxsize=None)
def _cone_candidates(n, key) -> tuple:
    """Cone 2-sharblies subdividing each bad edge of a 1-sharbly."""
    out = []
    for u, v, _d in _bad_pairs(key):
        z = sh._reducing_vector((u, v), exclude=frozenset(key))
        if z is None:
            continue
        tau = sh.normalize(n, (z,) + tuple(key))
        if tau is not None:
            out.append(tau.vectors)
    return tuple(out)


@lru_cache(maxsize=None)
def _tau_boundary(n, tau_key) -> tuple:
    """The boundary of the 2-sharbly [tau_key], as (key, coeff) pairs."""
    return tuple(sh.boundary(sh.SharblyChain(n, 2, {tau_key: 1})).coeffs.items())


@lru_cache(maxsize=None)
def _class_map(rep: VoronoiCell, cell: VoronoiCell):
    """(h, eta, h^-1, p) with rep * h = +-cell, h in SL(n,Z), eta the
    transport sign of rep * h onto cell, and p = e_1 * h^-1, the coset
    point `first_column_cofactors(h)`; None when the cells are not
    equivalent."""
    h = equivalent_cells(rep, cell)
    if h is None:
        return None
    sign = _orientation_transport_sign(rep, h, cell)
    return h, sign, la.inverse_unimodular(h), la.first_column_cofactors(h)


class _SupportSystem:
    """Grown support set and the exact linear system over it, solved in the
    Gamma_0(N)-coinvariants of the sharbly complex.

    Every support key k gets an SL(n,Z) class representative R, a
    standardizing map h with R * h = +-k (kept with h^-1), and the coset
    point q of the first row of h^-1.  R is the cell table's
    representative when k is equivalent to a W_1 generator, so such keys
    share the level's label table with `GammaComplex.labels`; otherwise it
    is the first key placed in k's class.  The key is filed as `homology._cell_coordinate`
    files a W_k generator: the entry at q of the level's
    `ProjectiveSpace.orbit_labels(R)` labels the Gamma_0(N)-orbit of k,
    and eps_k is its character times the transport sign of R * h.  The
    projection k -> eps_k [label] is the quotient map to the
    coinvariants, and keys on a label killed by orientation map to 0.
    On the support, the bars c * gamma - c between keys of one label
    span exactly its kernel (2 is invertible, and a killed key c has
    c * s = -c for some s in Gamma_0(N)), so the system is solved on
    labels and the bar terms are rebuilt only for the final residual,
    by `_bar_terms`.  The SL(n,Z) maps R * h = +-k with their inverses
    and coset points, the cone candidates and the 2-sharbly boundaries do
    not depend on N and come from per-process caches; the representatives,
    point indices, labels and rows are the system's own.

    The system's columns are the projected lifts and 2-sharbly boundaries,
    each built once, in the order [lifts | taus], and its rows are the live
    labels.  The order matters: `solve` returns the solution that is zero
    on the free columns, so it decides which certificate comes back.
    """

    def __init__(self, cx: GammaComplex, chains, with_w1: bool):
        self.n = cx.n
        self.f = cx.field
        self._level = cx.level
        self._space = cg.projective_space(self.n, cx.level)
        self._reps: dict = {}  # cell signature -> representative cells
        for orb in cx.table.orbits[cx.n]:
            rep = orb.representative
            self._reps.setdefault(cell_signature(rep), []).append(rep)
        self._placed: dict = {}  # key -> (label, q, h, h^-1, eps), eps = 0 on a killed label
        self._first: dict = {}  # label -> its first key
        self._rows: dict = {}  # live label -> row
        self._coned: set = set()
        self.lifts: list = []  # (theta-lift of a W_1 generator, its projection)
        self.taus: dict = {}  # 2-sharbly key -> its projected boundary
        for chain in chains:
            self._project(chain.coeffs.items())
        if with_w1:
            for i in range(cx.rank(1)):
                unit = [cx.field.zero] * cx.rank(1)
                unit[i] = cx.field.one
                lift = theta_lift(cx, 1, unit)
                back = chain_to_w(cx, 1, lift)
                if tuple(back) != tuple(unit):
                    raise InternalCheckError("theta lift does not invert chain_to_w")
                self.lifts.append((lift, self._project(lift.coeffs.items())))

    def _project(self, terms) -> dict:
        """{row: coeff}, the image in the coinvariants of the chain with
        (key, coeff) pairs `terms`; its keys are placed first."""
        out: dict = {}
        for key, c in terms:
            if key not in self._placed:
                self._place(key)
            label, _q, _h, _h_inv, eps = self._placed[key]
            if eps:
                row = self._rows[label]
                out[row] = out.get(row, 0) + c * eps
        return {row: v for row, c in out.items() if (v := self.f(c))}

    def _place(self, key):
        """Standardize a key and file it under its Gamma_0(N)-orbit label."""
        cell = VoronoiCell(self.n, key)
        same_sig = self._reps.setdefault(cell_signature(cell), [])
        for rep in same_sig:
            found = _class_map(rep, cell)
            if found is not None:
                break
        else:
            one = la.identity(self.n)
            rep, found = cell, (one, 1, one, la.first_column_cofactors(one))
            same_sig.append(rep)
        h, sign, h_inv, point = found
        q = self._space.index(point)
        best, char = self._space.orbit_labels(rep)[q]
        label, eps = (rep, best), char * sign
        if eps:
            self._rows.setdefault(label, len(self._rows))
        self._first.setdefault(label, key)
        self._placed[key] = (label, q, h, h_inv, eps)

    def _map(self, src, dst, sign=None):
        """(gamma, sigma) with gamma in Gamma_0(N) and src * gamma = sigma * dst
        for keys of one label, with sigma = `sign` when that is given.

        Membership is re-checked on every map: certificates apply their bar
        matrices without testing them, so a slip in the labels would
        otherwise verify.
        """
        label, q_src, _h_src, h_inv, _eps = self._placed[src]
        _label, q_dst, h_dst, _h_inv, _eps = self._placed[dst]
        src_cell, dst_cell = VoronoiCell(self.n, src), VoronoiCell(self.n, dst)
        for s in cell_stabilizer(label[0])[1]:
            if self._space.index(la.vec_mat(self._space.points[q_src], s)) == q_dst:
                gamma = la.mat_mul(la.mat_mul(h_inv, s), h_dst)
                sigma = _orientation_transport_sign(src_cell, gamma, dst_cell)
                if sign in (None, sigma):
                    if not cg.is_gamma0(gamma, self._level):
                        raise InternalCheckError("orbit label admitted a bar outside Gamma_0(N)")
                    return gamma, sigma
        raise InternalCheckError(f"no Gamma_0(N) map from {src} to {dst} with sign {sign}")

    def _bar_terms(self, residual: sh.SharblyChain) -> tuple:
        """Bar terms (gamma, chain), sum(chain * gamma - chain) = residual,
        for a residual on keys that projects to 0.

        A key k = sigma * (c * gamma_k), c the first key of its label, with
        coefficient a gives (gamma_k, a sigma c) and leaves a sigma c.  What
        a label leaves is 0 when it is live, and otherwise a multiple of
        c = -1/2 (c * s - c), with s in Gamma_0(N) and c * s = -c.
        """
        f = self.f
        left: dict = {}  # label -> coefficient left on its first key
        terms = []
        for key, a in residual.coeffs.items():
            label = self._placed[key][0]
            c = self._first[label]
            if key != c:
                gamma, sigma = self._map(c, key)
                a = f(a * sigma)
                terms.append((gamma, sh.SharblyChain(self.n, 1, {c: a})))
            left[label] = left.get(label, 0) + a
        for label, a in left.items():
            if not f(a):
                continue
            if label in self._rows:
                raise InternalCheckError("the residual survives in the coinvariants")
            c = self._first[label]
            gamma, _sigma = self._map(c, c, sign=-1)
            terms.append((gamma, sh.SharblyChain(self.n, 1, {c: f(Fraction(-a, 2))})))
        return tuple(terms)

    def grow(self) -> bool:
        """One round: cone the bad edges of the keys not coned yet, and file
        the new keys under their labels.

        Returns whether the round added a 2-sharbly; if not, the support is
        closed and every later round would add nothing either.
        """
        n_taus = len(self.taus)
        fresh = sorted(self._placed.keys() - self._coned)
        self._coned.update(fresh)
        for key in fresh:
            for tau_key in _cone_candidates(self.n, key):
                if tau_key not in self.taus:
                    self.taus[tau_key] = self._project(_tau_boundary(self.n, tau_key))
        return len(self.taus) > n_taus

    def search(self, rhs_chain: sh.SharblyChain, budget: int, what: str):
        """Solve  w1-part + d(tau-part) = rhs  in the coinvariants exactly;
        while that fails, grow one round and solve again.

        Returns (w1_vec, homotopy, bar_terms), the w1 block first so that
        already-supported inputs come back unchanged; the bar terms carry
        the residual rhs - w1-part - d(tau-part) on plain keys.  Otherwise
        returns Undetermined once `budget` rounds have run, the support is
        closed (then `closed` is set) or growth is unavailable (cone
        subdivision is n = 2 only); its reason says which, with the sizes
        reached.
        """
        f = self.f
        rhs = self._project(rhs_chain.coeffs.items())
        rounds = 0
        while True:
            target = [rhs.get(row, f.zero) for row in range(len(self._rows))]
            columns = [*(col for _lift, col in self.lifts), *self.taus.values()]
            mat = SparseFieldMatrix(f, len(self._rows), len(columns), {
                (row, j): c for j, col in enumerate(columns) for row, c in col.items()})
            sol = solve(mat, target)
            if sol is not None:
                break
            if rounds == budget:
                stop = "budget spent"
            elif self.n != 2:
                stop = "support growth is implemented for n = 2 only"
            elif not self.grow():
                stop = "support closed"
            else:
                rounds += 1
                continue
            return Undetermined(
                f"no {what} within {budget} rounds ({stop}; rounds run {rounds}, "
                f"supports {len(self._placed)}, 2-sharblies {len(self.taus)}, "
                f"orbits {len(self._first)}, largest system {mat.nrows} x {mat.ncols})",
                stop == "support closed",
            )
        w1_vec, tau_part = sol[:len(self.lifts)], sol[len(self.lifts):]
        homotopy = sh.SharblyChain(self.n, 2, {
            key: c for key, c in zip(self.taus, tau_part) if c != f.zero
        })
        residual = self._residual(rhs_chain, w1_vec, homotopy)
        return w1_vec, homotopy, self._bar_terms(residual.reduced(f))

    def _residual(self, rhs_chain: sh.SharblyChain, w1_vec, homotopy: sh.SharblyChain):
        """rhs - w1-part - d(homotopy) on plain keys.  d(homotopy) is summed
        from the cached boundaries of the support's 2-sharblies, in the key
        order `sh.boundary` gives."""
        d_homotopy = sh.SharblyChain(self.n, 1)
        for tau_key, c in homotopy.coeffs.items():
            for key, sign in _tau_boundary(self.n, tau_key):
                d_homotopy.add_key(key, c * sign)
        residual = rhs_chain.copy().add_chain(d_homotopy, -1)
        for x, (lift, _col) in zip(w1_vec, self.lifts):
            residual.add_chain(lift, -x)
        return residual


def _holds(field, level, target: sh.SharblyChain, homotopy: sh.SharblyChain, bar_terms) -> bool:
    """target = d(homotopy) + sum(c gamma - c) over the bar terms (gamma, c),
    exactly over `field`, with every gamma in Gamma_0(level)."""
    if not all(cg.is_gamma0(gamma, level) for gamma, _chain in bar_terms):
        return False
    total = sh.boundary(homotopy)
    for gamma, chain in bar_terms:
        total.add_chain(chain.act(gamma)).add_chain(chain, -1)
    return total.add_chain(target, -1).reduced(field).is_zero()


@dataclass(frozen=True)
class ReductionResult:
    """c = reduced + d(homotopy) + sum(c_i gamma_i - c_i), exactly.

    Every gamma_i must lie in Gamma_0(level); `verify` checks that too.
    """

    field: object
    level: int
    reduced: sh.SharblyChain
    w1_coords: tuple
    homotopy: sh.SharblyChain
    bar_terms: tuple

    def verify(self, original: sh.SharblyChain) -> bool:
        target = original.copy().add_chain(self.reduced, -1)
        return _holds(self.field, self.level, target, self.homotopy, self.bar_terms)


def one_sharbly_reduce_n2(cx: GammaComplex, chain: sh.SharblyChain,
                          budget: int = 4):
    """Rewrite a coinvariant-cycle 1-chain as a Voronoi-supported one.

    Returns a ReductionResult whose identity is exact, or Undetermined when
    the certificate search exhausts its budget or its support closes.
    """
    check_budget(budget)
    if cx.n != 2 or chain.n != 2 or chain.k != 1:
        raise ValueError("this reduction is implemented for n = 2, k = 1")
    f = cx.field
    fchain = chain.reduced(f)
    if is_voronoi_supported(cx, fchain):
        coords = chain_to_w(cx, 1, fchain)
        return ReductionResult(
            f, cx.level, fchain, tuple(coords), sh.SharblyChain(2, 2), ()
        )
    system = _SupportSystem(cx, [fchain], with_w1=True)
    sol = system.search(fchain, budget, "reduction certificate")
    if isinstance(sol, Undetermined):
        return sol
    w1_vec, homotopy, bar_terms = sol
    reduced = theta_lift(cx, 1, w1_vec)
    result = ReductionResult(f, cx.level, reduced, w1_vec, homotopy, bar_terms)
    if not result.verify(fchain):
        raise InternalCheckError("reduction certificate failed to verify")
    return result


@dataclass(frozen=True)
class Witness:
    """Chains certifying  d1 y + theta(x) s - d2 u = a theta(x)  exactly.

    Every bar matrix in u must lie in Gamma_0(level); `verify` checks that too.
    """

    field: object
    level: int
    a: object
    x_chain: sh.SharblyChain  # theta(x)
    s_chain: sh.SharblyChain  # theta(x) * s (sum over cosets)
    y: sh.SharblyChain  # 2-sharbly chain
    u: tuple  # bar terms (gamma, 1-sharbly chain)

    def verify(self) -> bool:
        # theta(x) s - a theta(x) = d(-y) + d2 u
        target = self.s_chain.copy().add_chain(self.x_chain, -self.a)
        return _holds(self.field, self.level, target, self.y.scaled(-1), self.u)


def verify_eigen_chain(cx: GammaComplex, x_vec, op: HeckeOperator, a,
                       budget: int = 4):
    """Search for a chain-level witness that a is the eigenvalue on [x].

    Returns a verified Witness or Undetermined; a wrong a can only produce
    Undetermined, never a witness.  Support growth is n = 2 only, so for
    n != 2 only the unsubdivided support is tried.
    """
    check_budget(budget)
    if cx.level % op.ell == 0:
        raise PreconditionError(f"l = {op.ell} divides N = {cx.level}")
    f = cx.field
    a = f(a)
    x_chain, s_chain = theta_s(cx, 1, op, x_vec)
    if x_chain.is_zero() and s_chain.is_zero():
        return Witness(f, cx.level, a, x_chain, s_chain, sh.SharblyChain(cx.n, 2), ())
    rhs = s_chain.copy().add_chain(x_chain, -a).reduced(f)
    system = _SupportSystem(cx, [x_chain, s_chain], with_w1=False)
    sol = system.search(rhs, budget, f"witness for eigenvalue {a}")
    if isinstance(sol, Undetermined):
        return sol
    # rhs = d(T) + B  ==>  d(-T) + theta(x) s - B = a theta(x)
    _, homotopy, bar_terms = sol
    y = homotopy.scaled(f(-1))
    wit = Witness(f, cx.level, a, x_chain, s_chain, y, bar_terms)
    if not wit.verify():
        raise InternalCheckError("eigen witness failed to verify")
    return wit


def hecke_on_h1_n2(level: int, field, ell: int, budget: int = 4, *, cx: GammaComplex):
    """T(l, 1) on H_1 for n = 2, via one-sharbly reduction of theta-images."""
    check_budget(budget)
    cx = _complex_for(2, level, field, cx)
    if cx.level % ell == 0:
        raise PreconditionError(f"l = {ell} divides N = {cx.level}")
    op = hecke_cosets(2, ell, 1)
    h1 = homology(cx, 1)
    columns = []
    for j, rep_vec in enumerate(h1.homology_reps):
        _, s_chain = theta_s(cx, 1, op, rep_vec)
        result = one_sharbly_reduce_n2(cx, s_chain, budget)
        if isinstance(result, Undetermined):
            return Undetermined(f"column {j}: {result.reason}", result.closed)
        y_vec = list(result.w1_coords)
        if not is_cycle(cx, 1, y_vec):
            raise InternalCheckError("reduced image is not a cycle")
        columns.append(express_cycle(h1, y_vec))
    return _eigen_report(cx, ell, 1, 1, columns)

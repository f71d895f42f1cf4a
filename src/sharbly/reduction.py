"""Reduction of 1-sharbly chains to Voronoi support, with exact certificates.

Everything here works with plain chains plus explicit bar terms: an element
[gamma | c] with gamma in Gamma_0(N) contributes c*gamma - c, which is the
vertical differential of the bar resolution tensored down.  A reduction of
a chain c is then an exact identity

    c  =  (Voronoi-supported chain)  +  d(homotopy)  +  sum_i (c_i g_i - c_i)

between normalized chains, checkable term by term.  Witnesses for the
chain-level Hecke identity  d1 y + theta(x) s - d2 u = a theta(x)  are
found the same way: grow a support set of cone subdivisions and bar pairs
in rounds, then solve one exact linear system over the coefficient field.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import congruence as cg
from . import intlinalg as la
from . import sharbly as sh
from .errors import InternalCheckError, PreconditionError
from .fields import SparseFieldMatrix, solve
from .hecke import HeckeOperator, _eigen_report, hecke_cosets, theta_s
from .homology import (
    GammaComplex, build_complex, chain_to_w, express_cycle, homology, is_cycle, is_voronoi_supported,
    theta_lift,
)
from .voronoi import VoronoiCell, cell_signature, cell_stabilizer, equivalent_cells


@dataclass(frozen=True)
class Undetermined:
    """Search budget exhausted without a certificate; never a wrong answer.

    `closed` is set when the search stopped on a closed support: a round of
    growth added nothing, so no larger budget can find a certificate.
    """

    reason: str
    closed: bool = False


# ---------------------------------------------------------------------------
# Certificate search
# ---------------------------------------------------------------------------

def _bad_pairs(key):
    """Vertex pairs of a 1-sharbly spanning a non-unimodular edge."""
    out = []
    for i in range(len(key)):
        for j in range(i + 1, len(key)):
            d = la.det(la.freeze((key[i], key[j])))
            if abs(d) > 1:
                out.append((key[i], key[j], abs(d)))
    return out


def _cone_candidates(n, key):
    """Cone 2-sharblies subdividing each bad edge of a 1-sharbly."""
    out = []
    for u, v, _d in _bad_pairs(key):
        z = sh._reducing_vector(la.freeze((u, v)), exclude=frozenset(key))
        if z is None:
            continue
        tau = sh.normalize(n, (z,) + tuple(key))
        if tau is not None:
            out.append(tau.vectors)
    return out


class _SupportSystem:
    """Grown support set and the exact linear system over it.

    Bar pairs come from orbit labels.  Every support key gets an SL(n,Z)
    class representative `rep` and a standardizing map h with rep * h = key.
    The maps src -> dst are then exactly h_src^-1 s h_dst for s in the
    stabilizer of rep, and such a map lies in Gamma_0(N) iff s moves q_src
    to q_dst, where q_key is the point of the first row of h_key^-1.  So
    the Gamma_0(N)-orbit of a key is labelled by (rep, least point in the
    stabilizer orbit of q_key), as `homology._canonical_label` labels W_k
    generators, and only keys with equal labels are paired.

    The system's columns are {key: field coeff}, each built once, in the
    order [lifts | taus | bars]; dicts keep that order as they grow.  The
    order matters: `solve` returns the solution that is zero on the free
    columns, so it decides which certificate comes back.
    """

    def __init__(self, cx: GammaComplex, chains, with_w1: bool):
        self.n = cx.n
        self.f = cx.field
        self.s1: set = set()
        for chain in chains:
            self.s1.update(chain.coeffs)
        self._coned: set = set()
        self.lifts: list = []  # theta-lifts of the W_1 generators
        self.taus: dict = {}  # 2-sharbly key -> its boundary
        self.bars: dict = {}  # (gamma, key) -> key * gamma - key
        self._level = cx.level
        self._space = cg.projective_space(self.n, cx.level)
        self._reps: dict = {}  # cell signature -> representative cells
        self._stabs: dict = {}  # representative -> ((s, perm(s)), ...)
        self._placed: dict = {}  # key -> (rep, h^-1, h, q)
        self._orbits: dict = {}  # orbit label -> keys carrying it
        if with_w1:
            for i in range(cx.rank(1)):
                unit = [cx.field.zero] * cx.rank(1)
                unit[i] = cx.field.one
                lift = theta_lift(cx, 1, unit)
                back = chain_to_w(cx, 1, lift)
                if tuple(back) != tuple(unit):
                    raise InternalCheckError("theta lift does not invert chain_to_w")
                self.lifts.append(self._column(lift))
                self.s1.update(lift.coeffs)

    def _column(self, chain: sh.SharblyChain) -> dict:
        return {k: self.f(c) for k, c in chain.coeffs.items()}

    def _place(self, key):
        """Standardize a key and file it under its Gamma_0(N)-orbit label."""
        cell = VoronoiCell(self.n, key)
        same_sig = self._reps.setdefault(cell_signature(cell), [])
        for rep in same_sig:
            h = equivalent_cells(rep, cell)
            if h is not None:
                break
        else:
            rep, h = cell, la.identity(self.n)
            same_sig.append(rep)
            self._stabs[rep] = tuple((s, self._space.perm(s)) for s in cell_stabilizer(rep)[1])
        h_inv = la.inverse_unimodular(h)
        q = self._space.index(h_inv[0])
        self._placed[key] = (rep, h_inv, h, q)
        label = (rep, min(perm[q] for _s, perm in self._stabs[rep]))
        self._orbits.setdefault(label, []).append(key)
        return label

    def _bars_between(self, src, dst):
        """Sorted gamma != 1 in Gamma_0(N) with src * gamma = +-dst.

        Membership is re-checked on every bar: certificates apply their bar
        matrices without testing them, so a slip in the labels would
        otherwise verify.
        """
        rep, h_inv, _h, q_src = self._placed[src]
        _rep, _h_inv, h_dst, q_dst = self._placed[dst]
        one = la.identity(self.n)
        out = []
        for s, perm in self._stabs[rep]:
            if perm[q_src] == q_dst:
                gamma = la.mat_mul(la.mat_mul(h_inv, s), h_dst)
                if gamma != one:
                    if not cg.is_gamma0(gamma, self._level):
                        raise InternalCheckError("orbit label admitted a bar outside Gamma_0(N)")
                    out.append(gamma)
        return sorted(out)

    def grow(self) -> bool:
        """One round: cone the bad edges of the keys not coned yet, then pair
        the new keys with every key in their Gamma_0(N)-orbit.

        Returns whether the round added a 2-sharbly or a bar; if not, the
        support is closed and every later round would add nothing either.
        """
        n_cols = len(self.taus) + len(self.bars)
        fresh = sorted(self.s1 - self._coned)
        self._coned.update(fresh)
        for key in fresh:
            for tau_key in _cone_candidates(self.n, key):
                if tau_key not in self.taus:
                    bd = sh.boundary(sh.SharblyChain(self.n, 2, {tau_key: 1}))
                    self.taus[tau_key] = self._column(bd)
                    self.s1.update(bd.coeffs)
        pairs = set()
        for key in sorted(self.s1 - self._placed.keys()):
            label = self._place(key)
            for other in self._orbits[label]:
                pairs.add((key, other))
                pairs.add((other, key))
        for src, dst in sorted(pairs):
            base = sh.SharblyChain(self.n, 1, {src: 1})
            for gamma in self._bars_between(src, dst):
                self.bars[gamma, src] = self._column(base.act(gamma).add_chain(base, -1))
        return len(self.taus) + len(self.bars) > n_cols

    def search(self, rhs_chain: sh.SharblyChain, budget: int, what: str):
        """Solve  w1-part + d(tau-part) + bar-part = rhs  exactly; while that
        fails, grow one round and solve again.

        Returns (w1_vec, homotopy, bar_terms), the w1 block first so that
        already-supported inputs come back unchanged.  Otherwise returns
        Undetermined once `budget` rounds have run, the support is closed
        (then `closed` is set) or growth is unavailable (cone subdivision
        is n = 2 only); its reason says which, with the sizes reached.
        """
        if budget < 0:
            raise PreconditionError(f"budget must be >= 0, got {budget}")
        f = self.f
        rounds = 0
        while True:
            columns = [*self.lifts, *self.taus.values(), *self.bars.values()]
            row_keys = set(rhs_chain.coeffs).union(*columns)
            row_index = {k: i for i, k in enumerate(sorted(row_keys))}
            triplets = [(row_index[k], j, v) for j, col in enumerate(columns) for k, v in col.items()]
            mat = SparseFieldMatrix.from_triplets(f, len(row_index), len(columns), triplets)
            rhs = [f.zero] * len(row_index)
            for k, v in rhs_chain.coeffs.items():
                rhs[row_index[k]] = f(v)
            sol = solve(mat, rhs)
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
                f"supports {len(self.s1)}, 2-sharblies {len(self.taus)}, bars {len(self.bars)}, "
                f"largest system {mat.nrows} x {mat.ncols})",
                stop == "support closed",
            )
        tau_start = len(self.lifts)
        bar_start = tau_start + len(self.taus)
        homotopy = sh.SharblyChain(self.n, 2, {
            key: c for key, c in zip(self.taus, sol[tau_start:bar_start]) if c != f.zero
        })
        bar_terms = tuple(
            (gamma, sh.SharblyChain(self.n, 1, {src: c}))
            for (gamma, src), c in zip(self.bars, sol[bar_start:]) if c != f.zero
        )
        return tuple(sol[:tau_start]), homotopy, bar_terms


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
        target = self.s_chain.copy().add_chain(self.x_chain, self.field.neg(self.a))
        return _holds(self.field, self.level, target, self.y.scaled(-1), self.u)


def verify_eigen_chain(cx: GammaComplex, x_vec, op: HeckeOperator, a,
                       budget: int = 4):
    """Search for a chain-level witness that a is the eigenvalue on [x].

    Returns a verified Witness or Undetermined; a wrong a can only produce
    Undetermined, never a witness.  Support growth is n = 2 only, so for
    n != 2 only the unsubdivided support is tried.
    """
    if cx.level % op.ell == 0:
        raise PreconditionError(f"l = {op.ell} divides N = {cx.level}")
    f = cx.field
    a = f(a)
    x_chain, s_chain = theta_s(cx, 1, op, x_vec)
    if x_chain.is_zero() and s_chain.is_zero():
        return Witness(f, cx.level, a, x_chain, s_chain, sh.SharblyChain(cx.n, 2), ())
    rhs = s_chain.copy().add_chain(x_chain, f.neg(a)).reduced(f)
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


def hecke_on_h1_n2(level: int, field, ell: int, budget: int = 4,
                   cx: GammaComplex | None = None):
    """T(l, 1) on H_1 for n = 2, via one-sharbly reduction of theta-images."""
    if cx is None:
        cx = build_complex(2, level, field)
    if cx.level % ell == 0:
        raise PreconditionError(f"l = {ell} divides N = {level}")
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

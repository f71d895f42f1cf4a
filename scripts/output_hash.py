"""One digest per group of the package's outputs on a fixed case list.

Each PR that may move a result runs this on its parent and on its change,
and compares the digests group by group:

- basis-free: Betti numbers, the char polys, eigenvalues and remainders of
  every Hecke report, and the witness-or-Undetermined decision of each
  H_1 eigenvalue probe;
- basis-bound: the H_k reps with their positions, the H_0 and H_1 Hecke
  matrices, and `express_cycle` coordinates with their witnesses (of four
  fixed W_0 vectors, and of each H_1 reduction below);
- certificates: the witnesses' y and u, the reduction homotopies and bar
  terms, and every Undetermined reason.

The cases: n = 2 at N in {1, 11, 15, 17, 23, 30, 37, 53} and n = 3 at
N in {1, 7, 11, 13, 17, 53}, over Q and F_32003; T(2,1) and T(3,1) on H_0
where l does not divide N, and T(2,2) at n = 3; at n = 2 and odd N, T(2,1)
on H_1, `verify_eigen_chain` of the first H_1 rep for a in {-2..6} at
budget 2, and `one_sharbly_reduce_n2` of theta(x) * T(2,1) for that rep.

Records are JSON with sorted keys, and every number is written by
`fields.coeff_str`, so a digest depends only on the values.  A Tier-1
test pins the basis-free, basis-bound and certificates digests.

    python scripts/output_hash.py [--dump records.json]
"""

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sharbly.fields import QQ, PrimeField, coeff_str
from sharbly.hecke import hecke_cosets, hecke_on_h0, theta_s
from sharbly.homology import betti_numbers, build_complex, express_cycle, homology
from sharbly.reduction import Undetermined, hecke_on_h1_n2, one_sharbly_reduce_n2, verify_eigen_chain
from sharbly.sharbly import SharblyChain
from sharbly.voronoi import enumerate_cells

LEVELS = {2: (1, 11, 15, 17, 23, 30, 37, 53), 3: (1, 7, 11, 13, 17, 53)}
FIELDS = (QQ, PrimeField(32003))
GROUPS = ("basis-free", "basis-bound", "certificates")
EIGEN_PROBES = range(-2, 7)
BUDGET = 2


def enc(x):
    """x as plain JSON: numbers through coeff_str, chains as sorted terms."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, (int, Fraction)):
        return coeff_str(x)
    if isinstance(x, SharblyChain):
        return sorted([enc(k), enc(c)] for k, c in x.coeffs.items())
    if isinstance(x, dict):
        return {str(k): enc(v) for k, v in x.items()}
    return [enc(v) for v in x]


def hecke_record(report):
    """(basis-free, basis-bound) parts of an EigenReport or Undetermined."""
    if isinstance(report, Undetermined):
        return "undetermined", None
    free = {"charpoly": report.charpoly, "eigen": report.eigen, "remainder": report.remainder}
    return free, report.matrix


def complex_records(cx, out):
    """Add every record of one complex to the three groups of `out`."""
    name = f"n{cx.n}/N{cx.level}/{cx.field.name}"
    free, bound, certs = (out[g] for g in GROUPS)
    free[name + "/betti"] = betti_numbers(cx)
    for k in range(cx.max_degree + 1):
        h = homology(cx, k)
        bound[f"{name}/H{k}/reps"] = [[pos, rep] for pos, rep in h._reps]
    h0 = homology(cx, 0)
    r = cx.rank(0)
    if h0.dimension and cx.max_degree:
        probes = ([1] + [0] * (r - 1), [0] * (r - 1) + [1], [1] * r, list(range(1, r + 1)))
        bound[name + "/H0/express"] = [express_cycle(h0, v, want_witness=True) for v in probes]
    ops = [(2, 1), (3, 1)] + ([(2, 2)] if cx.n == 3 else [])
    for ell, k in ops:
        if cx.level % ell:
            tag = f"{name}/H0/T({ell},{k})"
            free[tag], bound[tag] = hecke_record(hecke_on_h0(cx.n, cx.level, cx.field, ell, k, cx=cx))
    h1 = homology(cx, 1)
    if cx.n != 2 or cx.level % 2 == 0 or not h1.dimension:
        return
    tag = f"{name}/H1/T(2,1)"
    report = hecke_on_h1_n2(cx.level, cx.field, 2, cx=cx)
    free[tag], bound[tag] = hecke_record(report)
    if isinstance(report, Undetermined):
        certs[tag] = report.reason
    x = h1.homology_reps[0]
    op = hecke_cosets(2, 2, 1)
    for a in EIGEN_PROBES:
        probe = f"{name}/H1/x0/a={a}"
        wit = verify_eigen_chain(cx, x, op, a, budget=BUDGET)
        if isinstance(wit, Undetermined):
            free[probe], certs[probe] = "undetermined", wit.reason
        else:
            free[probe], certs[probe] = "witness", {"y": wit.y, "u": wit.u}
    red = one_sharbly_reduce_n2(cx, theta_s(cx, 1, op, x)[1], budget=BUDGET)
    if isinstance(red, Undetermined):
        certs[f"{name}/H1/x0/reduce"] = red.reason
        return
    bound[f"{name}/H1/x0/reduce"] = [red.w1_coords, express_cycle(h1, list(red.w1_coords), True)]
    certs[f"{name}/H1/x0/reduce"] = {"reduced": red.reduced, "homotopy": red.homotopy,
                                     "bar": red.bar_terms}


def digest(records) -> str:
    text = json.dumps(enc(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dump", type=Path, help="also write every record, as sorted-key JSON")
    args = ap.parse_args()
    out = {g: {} for g in GROUPS}
    for n, levels in LEVELS.items():
        table = enumerate_cells(n)
        for level in levels:
            for field in FIELDS:
                complex_records(build_complex(n, level, field, table=table), out)
    for g in GROUPS:
        print(f"{g:13s} {digest(out[g])}  {len(out[g])} records")
    print(f"{'all':13s} {digest(out)}")
    if args.dump:
        args.dump.write_text(json.dumps(enc(out), sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    main()

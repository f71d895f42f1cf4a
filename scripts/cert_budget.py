"""Smallest certificate budget for T(2,1) on H_1 at n = 2, odd N.

For each odd N <= MAX_LEVEL with H_1 != 0 this runs `hecke_on_h1_n2`
with budget 0, 1, 2, ... and prints the first budget at which every column
of the operator gets a reduction certificate.  A search that stops on a
closed support cannot succeed with more rounds, so that level is reported
as "none"; so is a level not certified by budget MAX_BUDGET.

    python scripts/cert_budget.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sharbly.fields import QQ
from sharbly.homology import build_complex, homology
from sharbly.reduction import Undetermined, hecke_on_h1_n2
from sharbly.voronoi import enumerate_cells


MAX_LEVEL = 50
MAX_BUDGET = 8


def smallest_budget(cx):
    """(budget, report) for the first budget that certifies, or (None, reason)."""
    for budget in range(MAX_BUDGET + 1):
        report = hecke_on_h1_n2(cx.level, QQ, 2, budget=budget, cx=cx)
        if not isinstance(report, Undetermined):
            return budget, report
        if report.closed:
            break
    return None, report.reason


def main():
    t0 = time.time()
    table = enumerate_cells(2)
    print(f"{'N':>3}  {'dim H1':>6}  {'budget':>6}  {'seconds':>7}  charpoly of T(2,1), low degree first")
    for level in range(1, MAX_LEVEL + 1, 2):
        cx = build_complex(2, level, QQ, table=table)
        dim = homology(cx, 1).dimension
        if dim == 0:
            continue
        t = time.time()
        budget, out = smallest_budget(cx)
        took = time.time() - t
        if budget is None:
            print(f"{level:3d}  {dim:6d}  {'none':>6}  {took:7.2f}  {out}")
        else:
            poly = " ".join(str(c) for c in out.charpoly)
            print(f"{level:3d}  {dim:6d}  {budget:6d}  {took:7.2f}  {poly}")
    print(f"done in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()

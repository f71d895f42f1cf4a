"""Betti numbers of the Gamma_0(N) coinvariant complex over a level range.

    python scripts/betti_table.py --n 3 --max-level 8 --field Q
    python scripts/betti_table.py --n 3 --max-level 8 --field Q --field Fp:32003

With several --field options it prints one row per (level, field), with a
field column, and builds each level's complex over Z once for all of them.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sharbly.congruence import projective_space
from sharbly.errors import PreconditionError
from sharbly.fields import parse_field
from sharbly.homology import betti_numbers, build_complex
from sharbly.voronoi import enumerate_cells


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2, choices=(2, 3))
    ap.add_argument("--max-level", type=int, default=20)
    ap.add_argument("--field", action="append", help="Q or Fp:<p>; may be given more than once")
    args = ap.parse_args()
    fields = [parse_field(spec) for spec in args.field or ["Q"]]
    many = len(fields) > 1

    t0 = time.time()
    table = enumerate_cells(args.n)
    print(f"cell table for n={args.n}: "
          f"{ {d: len(v) for d, v in sorted(table.orbits.items())} }")
    header = ["N"] + (["field"] if many else [])
    header += [f"rank W{k}" for k in range(args.n * (args.n - 1) // 2 + 1)]
    header += [f"H{k}" for k in range(args.n * (args.n - 1) // 2 + 1)]
    print("  ".join(f"{h:>7}" for h in header))
    for level in range(1, args.max_level + 1):
        complexes = {}  # field -> complex, or the PreconditionError that rejected it
        try:
            for field in fields:
                try:
                    complexes[field] = build_complex(args.n, level, field, table=table)
                except PreconditionError as exc:
                    complexes[field] = exc
        finally:
            projective_space.cache_clear()  # hold one P^{n-1}(Z/N) table at a time
        for field, cx in complexes.items():
            lead = f"{level:7d}" + (f"  {field.name:>7}" if many else "")
            if isinstance(cx, PreconditionError):
                print(f"{lead}  rejected: {cx}")
                continue
            betti = betti_numbers(cx)
            row = [cx.rank(k) for k in range(cx.max_degree + 1)]
            row += [betti[k] for k in range(cx.max_degree + 1)]
            print("  ".join([lead] + [f"{x:7d}" for x in row]))
    print(f"done in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()

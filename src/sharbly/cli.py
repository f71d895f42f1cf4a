"""Command-line front end: cells, homology, hecke, oracle, verify, nofake.

Exit codes: 0 success, 1 invalid configuration (an argument, field spec or
cache file that cannot be parsed, or a file error), 2 precondition
rejection, 3 undetermined result, 4 internal failure (always a bug).
Reports are deterministic given the configuration; the seed only feeds
redundant randomized self-checks inside `verify`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import intlinalg as la
from . import manin
from . import sharbly as sh
from .errors import ConfigError, InternalCheckError, PreconditionError, UnsupportedError
from .fields import Field, QQ, parse_field
from .hecke import hecke_cosets, hecke_on_h0
from .homology import (
    betti_numbers,
    build_complex,
    complex_cache_name,
    complex_to_json,
    homology,
)
from .reduction import Undetermined, hecke_on_h1_n2, verify_eigen_chain
from .voronoi import cells_from_json, cells_to_json, enumerate_cells

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_PRECONDITION = 2
EXIT_UNDETERMINED = 3
EXIT_INTERNAL = 4


@dataclass
class RunConfig:
    command: str
    n: int = 2
    level: int = 1
    field_spec: str = "Q"
    ell: int = 2
    k: int = 1
    degree: int = 0
    a: str | None = None
    out: str | None = None
    cache_dir: str | None = None
    budget: int = 4
    seed: int = 0

    def field(self) -> Field:
        return parse_field(self.field_spec)

    def cache_path(self) -> Path:
        base = self.cache_dir or os.environ.get("SHARBLY_CACHE_DIR") or "."
        return Path(base)


def _coeff_str(x) -> str:
    fr = Fraction(x) if not isinstance(x, int) else Fraction(x)
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def format_poly(coeffs) -> str:
    """Human-readable polynomial from low-degree-first coefficients."""
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        mon = "" if d == 0 else ("x" if d == 1 else f"x^{d}")
        cs = _coeff_str(c)
        if mon and cs == "1":
            cs = ""
        elif mon and cs == "-1":
            cs = "-"
        parts.append(f"{cs}{'*' if cs not in ('', '-') and mon else ''}{mon}" or cs)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def format_factored(eigen, remainder) -> str:
    terms = []
    for root, mult in eigen:
        r = _coeff_str(root)
        base = f"(x - {r})" if not r.startswith("-") else f"(x + {r[1:]})"
        terms.append(base + (f"^{mult}" if mult > 1 else ""))
    if remainder is not None:
        terms.append(f"({format_poly(remainder)})")
    return "".join(terms) if terms else "1"


def _load_or_build_cells(n: int, cache: Path):
    path = cache / f"cells-n{n}.json"
    if path.exists():
        try:
            return cells_from_json(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cell cache {path} is not valid JSON: {exc}") from None
    table = enumerate_cells(n)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(cells_to_json(table))
    return table


def cmd_cells(cfg: RunConfig) -> int:
    table = enumerate_cells(cfg.n)
    text = cells_to_json(table)
    out = Path(cfg.out) if cfg.out else cfg.cache_path() / f"cells-n{cfg.n}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    counts = {d: len(table.orbits[d]) for d in sorted(table.orbits)}
    print(f"cells n={cfg.n}: orbits by dimension {counts}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_homology(cfg: RunConfig) -> int:
    field = cfg.field()
    table = _load_or_build_cells(cfg.n, cfg.cache_path())
    cx = build_complex(cfg.n, cfg.level, field, table=table)
    betti = betti_numbers(cx)
    line = ", ".join(f"H{k}={betti[k]}" for k in sorted(betti))
    print(line)
    cache_file = cfg.cache_path() / complex_cache_name(cfg.n, cfg.level, field)
    cache_file.write_text(complex_to_json(cx))
    doc = {
        "n": cfg.n,
        "level": cfg.level,
        "field": field.name,
        "ranks": {str(k): cx.rank(k) for k in range(cx.max_degree + 1)},
        "betti": {str(k): betti[k] for k in sorted(betti)},
    }
    if cfg.out:
        Path(cfg.out).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        print(f"wrote {cfg.out}")
    return EXIT_OK


def _eigen_csv(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["operator", "degree", "dimension", "charpoly", "eigenvalues"]
    )
    eig = ";".join(f"{_coeff_str(r)}:{m}" for r, m in report.eigen)
    if report.remainder is not None:
        eig += ";unfactored=" + format_poly(report.remainder)
    writer.writerow(
        [
            f"T({report.ell},{report.power})@n={report.n},N={report.level},{report.field.name}",
            report.degree,
            report.dimension,
            format_poly(report.charpoly),
            eig,
        ]
    )
    return buf.getvalue()


def cmd_hecke(cfg: RunConfig) -> int:
    field = cfg.field()
    table = _load_or_build_cells(cfg.n, cfg.cache_path())
    cx = build_complex(cfg.n, cfg.level, field, table=table)
    if cfg.degree == 0:
        report = hecke_on_h0(cfg.n, cfg.level, field, cfg.ell, cfg.k, cx=cx)
    elif cfg.degree == 1 and cfg.n == 2:
        if cfg.k != 1:
            raise PreconditionError("degree-1 action is implemented for T(l, 1)")
        report = hecke_on_h1_n2(cfg.level, field, cfg.ell, budget=cfg.budget, cx=cx)
        if isinstance(report, Undetermined):
            print(f"undetermined: {report.reason}")
            return EXIT_UNDETERMINED
    else:
        raise UnsupportedError(
            f"Hecke action on degree {cfg.degree} for n = {cfg.n} is not supported"
        )
    text = _eigen_csv(report)
    print(f"char poly: {format_factored(report.eigen, report.remainder)}")
    sys.stdout.write(text)
    if cfg.out:
        Path(cfg.out).write_text(text)
        print(f"wrote {cfg.out}")
    return EXIT_OK


def cmd_oracle(cfg: RunConfig) -> int:
    dim = manin.manin_dim(cfg.level)
    print(f"manin_dim({cfg.level}) = {dim}")
    if cfg.ell:
        from .fields import charpoly, eigenvalues

        _, cp = manin.manin_hecke(cfg.level, cfg.ell)
        roots, rem = eigenvalues(QQ, cp)
        print(f"T_{cfg.ell}: charpoly {format_poly(cp)}")
        print(f"T_{cfg.ell}: eigenvalues {';'.join(f'{_coeff_str(r)}:{m}' for r, m in roots)}"
              + (f" unfactored {format_poly(rem)}" if rem else ""))
    return EXIT_OK


def cmd_nofake(cfg: RunConfig) -> int:
    field = cfg.field()
    if cfg.n != 2:
        raise UnsupportedError("the chain-level verification runs for n = 2")
    table = _load_or_build_cells(2, cfg.cache_path())
    cx = build_complex(2, cfg.level, field, table=table)
    h1 = homology(cx, 1)
    if h1.dimension == 0:
        print("H1 is zero; nothing to verify")
        return EXIT_OK
    x = h1.homology_reps[0]
    op = hecke_cosets(2, cfg.ell, 1)
    if cfg.a is None:
        raise PreconditionError("--a <eigenvalue> is required for nofake")
    try:
        a = field(Fraction(cfg.a))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"--a {cfg.a!r} is not a number of {field.name}") from None
    wit = verify_eigen_chain(cx, x, op, a, budget=cfg.budget)
    if isinstance(wit, Undetermined):
        print(f"undetermined: {wit.reason}")
        return EXIT_UNDETERMINED
    ok = wit.verify()
    if not ok:
        raise InternalCheckError("witness failed re-verification")
    print(
        f"witness: a={cfg.a}, |y|={len(wit.y.coeffs)} two-sharblies, "
        f"|u|={len(wit.u)} bar terms; identity d1 y + theta(x)s - d2 u = a theta(x) holds exactly"
    )
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    rng = random.Random(cfg.seed)
    failures = []

    def check(name, fn):
        try:
            ok = fn()
        except Exception as exc:  # a check crashing is a failure
            failures.append((name, repr(exc)))
            print(f"FAIL {name}: {exc!r}")
            return
        if ok:
            print(f"ok   {name}")
        else:
            failures.append((name, "assertion"))
            print(f"FAIL {name}")

    tables = {}

    def structural():
        for n in (2, 3):
            tables[n] = enumerate_cells(n)
            if len(tables[n].orbits[n - 1]) != 1:
                return False
            from .voronoi import cell_dim, is_simplex

            for d, orbs in tables[n].orbits.items():
                for o in orbs:
                    if not is_simplex(o.representative):
                        return False
                    if cell_dim(o.representative) != d:
                        return False
        return True

    check("one orbit of (n-1)-cells and all cells simplices (n = 2, 3)", structural)

    def complexes():
        for n, levels in ((2, (1, 2, 11)), (3, (1, 2))):
            for lvl in levels:
                build_complex(n, lvl, QQ, table=tables[n])  # d o d checked inside
        return True

    check("d o d = 0 for sample complexes over Q", complexes)

    def oracle_dims():
        for lvl in (1, 2, 5, 11):
            cx = build_complex(2, lvl, QQ, table=tables[2])
            if betti_numbers(cx)[0] != manin.manin_dim(lvl):
                return False
        return True

    check("H0 dimension equals the Manin oracle (sample levels)", oracle_dims)

    def hecke_spot():
        rep = hecke_on_h0(2, 11, QQ, 2, 1)
        _, cp = manin.manin_hecke(11, 2)
        return rep.charpoly == cp

    check("T(2,1) char poly at level 11 matches the oracle", hecke_spot)

    def sharbly_laws():
        for _ in range(25):
            vs = [tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(4)]
            if any(not any(v) for v in vs):
                continue
            ch = sh.chain_of(2, vs)
            if ch.is_zero():
                continue
            if not sh.boundary(sh.boundary(ch)).is_zero():
                return False
        return True

    check("random d o d = 0 for 2-sharblies (seeded)", sharbly_laws)

    def ar_equivariance():
        cx = build_complex(2, 11, QQ, table=tables[2])
        h0 = homology(cx, 0)
        from .hecke import symbol_chain_to_w0
        from .homology import express_cycle

        for _ in range(10):
            while True:
                m = la.freeze(
                    [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)]
                )
                if la.det(m) != 0:
                    break
            gamma = _random_gamma0(rng, 11)
            lhs = symbol_chain_to_w0(cx, sh.ar_reduce(la.mat_mul(m, gamma)))
            rhs = symbol_chain_to_w0(cx, sh.ar_reduce(m))
            if express_cycle(h0, lhs) != express_cycle(h0, rhs):
                return False
        return True

    check("ar_reduce class equivariance under Gamma_0(11) (seeded)", ar_equivariance)

    if failures:
        print(f"{len(failures)} verification check(s) failed")
        return EXIT_INTERNAL
    print("all verification checks passed")
    return EXIT_OK


def _random_gamma0(rng, n_mod):
    """A random-ish element of Gamma_0(N) in SL(2,Z), from generators."""
    gens = [
        la.freeze([[1, n_mod], [0, 1]]),
        la.freeze([[1, 0], [1, 1]]),
    ]
    g = la.identity(2)
    for _ in range(rng.randint(2, 6)):
        pick = gens[rng.randrange(2)]
        if rng.randrange(2):
            pick = la.inverse_unimodular(pick)
        g = la.mat_mul(g, pick)
    return g


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sharbly",
        description="Exact Voronoi-cell homology of congruence subgroups with Hecke operators",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, field=True, level=True, n=True):
        if n:
            sp.add_argument("--n", type=int, default=2, choices=(2, 3, 4))
        if level:
            sp.add_argument("--level", "-N", type=int, default=1)
        if field:
            sp.add_argument("--field", default="Q", help="Q or Fp:<p> (p odd prime)")
        sp.add_argument("--cache-dir", default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--budget", type=int, default=4)

    sp = sub.add_parser("cells", help="enumerate the cell complex, write cells-n{n}.json")
    common(sp, field=False, level=False)
    sp = sub.add_parser("homology", help="Betti numbers of the coinvariant complex")
    common(sp)
    sp = sub.add_parser("hecke", help="Hecke operator eigen report (CSV)")
    common(sp)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--degree", type=int, default=0)
    sp = sub.add_parser("oracle", help="classical Manin-symbol results (n = 2)")
    common(sp, field=False, n=False)
    sp.add_argument("--ell", type=int, default=0)
    sp = sub.add_parser("verify", help="run the self-check battery")
    common(sp, field=False, level=False, n=False)
    sp = sub.add_parser("nofake", help="chain-level Hecke eigenvalue witness")
    common(sp)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--a", required=True, help="candidate eigenvalue")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        n=getattr(args, "n", 2),
        level=getattr(args, "level", 1),
        field_spec=getattr(args, "field", "Q"),
        ell=getattr(args, "ell", 0),
        k=getattr(args, "k", 1),
        degree=getattr(args, "degree", 0),
        a=getattr(args, "a", None),
        out=args.out,
        cache_dir=args.cache_dir,
        budget=args.budget,
        seed=args.seed,
    )
    handlers = {
        "cells": cmd_cells,
        "homology": cmd_homology,
        "hecke": cmd_hecke,
        "oracle": cmd_oracle,
        "verify": cmd_verify,
        "nofake": cmd_nofake,
    }
    try:
        return handlers[cfg.command](cfg)
    except (PreconditionError, UnsupportedError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ConfigError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (InternalCheckError, ValueError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

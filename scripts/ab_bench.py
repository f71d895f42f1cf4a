"""Paired benchmark of a parent commit against the working tree.

Puts `git archive PARENT` and the working tree's files (`git ls-files`,
tracked and untracked but not ignored) into the sibling directories
`parent/` and `change/` of one fresh directory, so both paths have the same
length and neither holds a `__pycache__`; every run has
PYTHONDONTWRITEBYTECODE=1.  Then, for seeds FIRST, FIRST+1, ..., it runs
`bench/run.py --trace 0` once on each side, the parent first for even pair
numbers and the change first for odd ones.  Without `--workload` it runs
every workload of BENCHMARK.json, in file order.

Per end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the pairs the change won (ties count for neither side), whether
the change's median is worse than the parent's by more than the metric's
bound, and whether a gain may be claimed: the change wins at least nine
tenths of the pairs and its median beats the parent's by more than the
parent's interquartile range.  A run that prints "correct": false, or
exits non-zero, stops the comparison with exit code 1.

    python scripts/ab_bench.py --parent HEAD --workload n2-h1-cert --pairs 10 --seconds 6
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list) -> tuple:
    """(lower quartile, median, upper quartile); all three equal for a single value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """Compare one metric over pairs run i = (parent[i], change[i]).

    `better` is "lower" or "higher"; `bound` is the relative worsening of
    the median that counts as a regression.  `claim` holds when the change
    won at least 9/10 of the pairs and its median is better than the
    parent's by more than the parent's interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("summarize needs the same positive number of runs per side")
    sign = 1 if better == "lower" else -1  # sign * (change - parent) < 0: the change is better
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = -sign * (cm - pm)
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "regressed": gain < 0 and -gain > bound * abs(pm),
        "claim": 10 * wins >= 9 * len(parent) and gain > p3 - p1,
    }


def _checkout(parent_rev: str, dest: Path) -> None:
    """The parent commit into dest/parent and the working tree into dest/change."""
    archive = subprocess.run(["git", "archive", "--format=tar", parent_rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar:
            if member.isfile():
                target = dest / "parent" / member.name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(tar.extractfile(member).read())
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            target = dest / "change" / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)


def _run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py --trace 0` run; its last stdout line, or exit 1 when
    the run failed or printed a wrong result."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side, env=env, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if out.returncode != 0 or doc.get("correct") is not True:
        sys.stderr.write(out.stdout + out.stderr)
        sys.exit(f"{side.name}, {workload} seed {seed}: the run failed or printed a wrong result")
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--workload", action="append",
                    help="a workload of bench/workloads.py; may be repeated "
                         "(default: every workload of BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=6.0, help="bench/run.py --seconds")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        dest = Path(tmp)
        _checkout(args.parent, dest)
        sides = (dest / "parent", dest / "change")
        for workload in workloads:
            runs = {side.name: [] for side in sides}
            for i in range(args.pairs):
                seed = args.first_seed + i
                for side in sides if i % 2 == 0 else sides[::-1]:
                    runs[side.name].append(_run(side, workload, seed, args.seconds))
            _report(workload, args, spec, runs)
    return 0


def _report(workload: str, args, spec: dict, runs: dict) -> None:
    seeds = f"{args.first_seed}-{args.first_seed + args.pairs - 1}"
    print(f"{workload}: {args.pairs} pairs, seeds {seeds}, --seconds {args.seconds}, "
          f"parent {args.parent}")
    for side, docs in runs.items():
        failed, attempted = sum(d["failed"] for d in docs), sum(d["attempted"] for d in docs)
        print(f"  {side}: {failed} of {attempted} jobs failed")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        s = summarize([d["metrics"][name]["value"] for d in runs["parent"]],
                      [d["metrics"][name]["value"] for d in runs["change"]],
                      metric["better"], metric["bound"])
        p1, pm, p3 = s["parent"]
        c1, cm, c3 = s["change"]
        print(f"  {name:12s} parent {pm:.4f} ({p1:.4f}-{p3:.4f})  change {cm:.4f} "
              f"({c1:.4f}-{c3:.4f})  won {s['wins']}/{s['pairs']}, lost {s['losses']}  "
              f"{'REGRESSED beyond its bound' if s['regressed'] else 'within its bound'}; "
              f"gain {'may' if s['claim'] else 'may not'} be claimed")
        print(f"  {'':12s} change/parent per pair: " + " ".join(
            f"{c['metrics'][name]['value'] / p['metrics'][name]['value']:.3f}"
            for p, c in zip(runs["parent"], runs["change"])))


if __name__ == "__main__":
    sys.exit(main())

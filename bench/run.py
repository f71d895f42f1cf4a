"""The sharbly benchmark: one workload, fresh interpreters, checked results.

    python3 bench/run.py --workload n2-survey --seed 1 --seconds 36 --trace 0

Every pass of the workload runs in a fresh interpreter (bench/worker.py),
so no run times a cache warmed by an earlier one; n3-cli also gets a fresh
cache directory per pass.  Set-up alone is measured in a few more fresh
interpreters.  Passes repeat while the next one still fits in --seconds
(at least one).  Each pass's results are checked against bench/golden.json
and the workload's invariants before the next pass starts; a wrong result
ends the run with exit code 1.

The host this was written on changes speed by up to 2x under the program,
so every time is reported with the host's speed divided out: a worker
times a fixed reference loop every 0.1 s (hostprobe.py) and each timing is
scaled by the loop's mean time around it.  The measured seconds and the
host's slowdown are printed beside the metrics.

With --trace 0 the run prints the end-to-end metrics, medians over passes.
With --trace 1 it alternates untraced and traced passes and prints the
per-layer metrics of LAYER_METRICS, measured from outside by bench/tracer.py,
plus trace.overhead_frac; the call tree goes to .bench_out/.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  The
line before it holds each job's result (Betti numbers, char polys,
Undetermined count), so a change that alters a result shows as a diff.

See workloads.py for why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
SETUP_PROBES = 6  # set-up-only interpreters per run, besides each pass's own
DEADLINE_S = 170  # a run ends, whatever --seconds says, before this

sys.path.insert(0, str(BENCH))
from hostprobe import INTERVAL_S, slowdown  # noqa: E402
from tracer import REDUCTION_ENTRIES  # noqa: E402
from workloads import WORKLOADS, Mismatch, check, failed, jobs_for  # noqa: E402

# Every time is taken with the host's speed divided out (hostprobe.py).  A
# job's latency is its median over the run's untraced passes.
END_TO_END = (
    ("setup_s", "s"),  # interpreter start to cell tables ready, median over interpreters
    ("wall_s", "s"),  # sum of the job latencies
    ("job_p50_s", "s"),  # median of the job latencies
    ("peak_rss_mib", "MiB"),  # peak resident memory of a pass, median over passes
)


def _total(name):
    return lambda t: t["total_s"].get(name, 0.0)


def _self(name):
    return lambda t: t["self_s"].get(name, 0.0)


def _calls(name):
    return lambda t: t["calls"].get(name, 0)


def _count(key):
    return lambda t: t["counts"].get(key, 0)


def _ratio(num, den, empty=0.0):
    return lambda t: num(t) / den(t) if den(t) else empty


# (name, unit, better, what it should move, getter on a trace summary)
LAYER_METRICS = (
    ("voronoi.enumerate_cells_s", "s", "lower", "setup_s, every workload",
     _total("voronoi.enumerate_cells")),
    ("voronoi.equivalent_cells_calls", "count", "lower", "wall_s on n2-h1-cert (calls from reduction)",
     _calls("reduction.equivalent_cells")),
    ("congruence.split_orbits_s", "s", "lower", "wall_s on n3-cli most, n2-survey a tenth",
     _total("congruence.split_orbits")),
    ("congruence.proj_points_s", "s", "lower", "wall_s on n3-cli most, n2-survey a tenth",
     _total("congruence.proj_points")),
    ("congruence.points", "count", "lower", "size of P^{n-1}(Z/N), summed over calls",
     _count("congruence.points")),
    ("congruence.proj_normalize_calls", "count", "lower", "wall_s on n3-cli",
     _calls("congruence.proj_normalize")),
    ("congruence.proj_act_calls", "count", "lower", "wall_s on n3-cli",
     _calls("congruence.proj_act")),
    ("homology.build_complex_self_s", "s", "lower", "wall_s and job_p50_s on n3-cli",
     _self("homology.build_complex")),
    ("homology.homology_s", "s", "lower", "wall_s and job_p50_s on n3-cli",
     _total("homology.homology")),
    ("homology.homology_calls", "count", "lower", "wall_s and job_p50_s on n3-cli",
     _calls("homology.homology")),
    ("homology.homology_reuse", "ratio", "higher", "1 means no (complex, k) is computed twice",
     _ratio(lambda t: t["homology_distinct"], _calls("homology.homology"), 1.0)),
    ("cli.complex_to_json_s", "s", "lower", "wall_s and job_p50_s on n3-cli",
     _total("cli.complex_to_json")),
    ("fields.rank_kernel_s", "s", "lower", "wall_s on n3-cli, Q jobs more than F_p jobs",
     _total("fields.rank_kernel")),
    ("fields.rank_kernel_cells", "count", "lower", "rows*cols handed to the dense kernel",
     _count("fields.rank_kernel_cells")),
    ("fields.linear_span_add_s", "s", "lower", "wall_s on n3-cli",
     _total("fields.LinearSpan.add")),
    ("homology.boundary_nnz", "count", "lower", "size context",
     _count("homology.boundary_nnz")),
    ("homology.boundary_density", "ratio", "lower", "size context: nnz / (rows*cols)",
     _ratio(_count("homology.boundary_nnz"), _count("homology.boundary_cells"))),
    ("homology.rank_w", "count", "lower", "size context: sum of rank W_k over built complexes",
     _count("homology.rank_w")),
    ("homology.express_cycle_s", "s", "lower", "wall_s on n2-survey",
     _total("homology.express_cycle")),
    ("homology.express_cycle_calls", "count", "lower", "wall_s on n2-survey",
     _calls("homology.express_cycle")),
    ("homology.solve_s", "s", "lower", "wall_s on n2-survey (solve reached from homology)",
     _total("homology.solve")),
    ("homology.solve_cells", "count", "lower", "rows*cols of the solves reached from homology",
     _count("homology.solve_cells")),
    ("sharbly.ar_reduce_s", "s", "lower", "wall_s on n2-survey, a little on n3-cli",
     _total("sharbly.ar_reduce")),
    ("sharbly.ar_reduce_calls", "count", "lower", "wall_s on n2-survey",
     _calls("sharbly.ar_reduce")),
    ("sharbly.ar_reduce_terms", "count", "lower", "unimodular terms returned by ar_reduce",
     _count("sharbly.ar_reduce_terms")),
    ("hecke.symbol_chain_to_w0_s", "s", "lower", "wall_s on n2-survey",
     _total("hecke.symbol_chain_to_w0")),
    ("hecke.hecke_cosets_s", "s", "lower", "wall_s on n2-survey",
     _total("hecke.hecke_cosets")),
    ("hecke.hecke_matrix_on_h0_self_s", "s", "lower", "wall_s on n2-survey",
     _self("hecke.hecke_matrix_on_h0")),
    ("reduction.growth_self_s", "s", "lower", "wall_s on n2-h1-cert only",
     lambda t: sum(t["self_s"].get(n, 0.0) for n in REDUCTION_ENTRIES)),
    ("reduction.solve_s", "s", "lower", "wall_s on n2-h1-cert only",
     _total("reduction.solve")),
    ("reduction.solve_calls", "count", "lower", "wall_s on n2-h1-cert only",
     _calls("reduction.solve")),
    ("reduction.solve_hit_ratio", "ratio", "higher", "solves returning a solution / solves",
     _ratio(_count("reduction.solve_hits"), _calls("reduction.solve"))),
    ("reduction.system_rows_max", "count", "lower", "largest support system, rows",
     _count("reduction.system_rows_max")),
    ("reduction.system_cols_max", "count", "lower", "largest support system, columns",
     _count("reduction.system_cols_max")),
    ("reduction.witness_terms", "count", "lower", "2-sharbly plus bar terms of the witnesses found",
     _count("reduction.witness_terms")),
    ("reduction.undetermined", "count", "lower", "Undetermined results of reduction entry points",
     _count("reduction.undetermined")),
)
OVERHEAD = ("trace.overhead_frac", "ratio", "lower", "traced wall_s / untraced wall_s - 1")


class RunFailed(Exception):
    """The run cannot produce metrics (a worker died or ran out of time)."""


def run_pass(workload: str, jobs: list, trace: bool, scratch: Path, timeout: float) -> dict:
    """One fresh interpreter; returns the worker's JSON document."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--scratch", str(scratch), *(["--trace"] if trace else []),
           "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, input=json.dumps(jobs), capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"a {workload} pass exceeded {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def host_free(doc) -> tuple:
    """(set-up seconds, [job seconds]) of a worker document, each divided by
    the host's slowdown measured during it (see hostprobe.py)."""
    samples = doc["samples"]
    overall = slowdown(samples)
    setup = doc["setup_s"] / slowdown(samples[:doc["setup_samples"]], fallback=overall)
    jobs = [j["seconds"] / slowdown(samples, j["start"] - INTERVAL_S, j["end"] + INTERVAL_S, overall)
            for j in doc["jobs"]]
    return setup, jobs


def _job_medians(docs) -> list:
    """Each job's host-free latency: its median over the passes in `docs`."""
    per_pass = [host_free(d)[1] for d in docs]
    return [_median(times) for times in zip(*per_pass)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sharbly" / "__init__.py").is_file():
        print(f"no sharbly sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    start = time.monotonic()
    golden = json.loads(GOLDEN.read_text())
    jobs = jobs_for(args.workload, args.seed)
    scratch_root = OUT / f"run-{os.getpid()}"
    passes = {False: [], True: []}  # traced? -> worker documents
    setups = []
    attempted = failures = 0
    results = None
    pass_no = 0

    def one(job_list, trace):
        nonlocal pass_no
        pass_no += 1
        timeout = DEADLINE_S - (time.monotonic() - start)
        if timeout <= 0:
            raise RunFailed(f"no time left for pass {pass_no}")
        t = time.monotonic()
        doc = run_pass(args.workload, job_list, trace, scratch_root / f"pass-{pass_no}", timeout)
        return doc, time.monotonic() - t

    try:
        for _ in range(SETUP_PROBES):
            setups.append(host_free(one([], False)[0])[0])
        schedule = [False, True] if args.trace else [False]
        unit_seconds = []
        while True:
            t_unit = 0.0
            for traced in schedule:
                doc, took = one(jobs, traced)
                t_unit += took
                res = [r["result"] for r in doc["jobs"]]
                attempted += len(jobs)
                failures += sum(failed(j, r) for j, r in zip(jobs, res))
                check(args.workload, jobs, res, golden)
                if not traced:
                    setups.append(host_free(doc)[0])
                    if results is None:
                        results = {r["id"]: r["result"] for r in doc["jobs"]}
                passes[traced].append(doc)
            unit_seconds.append(t_unit)
            if time.monotonic() - start + _median(unit_seconds) > args.seconds:
                break
    except Mismatch as exc:
        print(f"WRONG RESULT: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failures, "metrics": {}}))
        return 1
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)

    untraced = passes[False]
    latencies = _job_medians(untraced)
    e2e = {
        "setup_s": _median(setups),
        "wall_s": sum(latencies),
        "job_p50_s": _median(latencies),
        "peak_rss_mib": _median([d["peak_rss_mib"] for d in untraced]),
    }
    undetermined = sum("undetermined" in r for r in results.values())
    print(f"{args.workload}: seed {args.seed}, {len(jobs)} jobs per pass, "
          f"{len(untraced)} untraced + {len(passes[True])} traced passes, "
          f"{len(setups)} set-ups")
    for name, unit in END_TO_END:
        print(f"  {name:14s} {e2e[name]:12.4f} {unit}")
    raw_walls = " ".join(f"{sum(j['seconds'] for j in d['jobs']):.3f}" for d in untraced)
    slowdowns = " ".join(f"{slowdown(d['samples']):.3f}" for d in untraced)
    print(f"  measured pass walls {raw_walls} s at host slowdowns {slowdowns}")
    print(f"  {'failed_frac':14s} {failures / attempted:12.4f} ratio ({failures} of {attempted} jobs)")

    if args.trace:
        traced = passes[True]
        summaries = [d["trace"] for d in traced]
        factors = [slowdown(d["samples"]) for d in traced]
        metrics = {}
        for name, unit, _better, _moves, get in LAYER_METRICS:
            values = [get(t) / (f if unit == "s" else 1) for t, f in zip(summaries, factors)]
            metrics[name] = {"value": _median(values), "unit": unit}
        traced_wall = sum(_job_medians(traced))
        metrics[OVERHEAD[0]] = {"value": traced_wall / e2e["wall_s"] - 1, "unit": OVERHEAD[1]}
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
        OUT.mkdir(exist_ok=True)
        tree_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tree_path.write_text(json.dumps(summaries[-1], indent=1, sort_keys=True) + "\n")
        print(f"  call tree of the last traced pass: {tree_path.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    print(json.dumps({"workload": args.workload, "seed": args.seed, "undetermined": undetermined,
                      "results": results}, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failures,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())

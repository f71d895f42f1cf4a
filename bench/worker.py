"""One pass of a workload in a fresh interpreter; started by run.py.

Reads the job list as JSON on stdin, sets up (imports and cell tables),
runs the jobs one at a time, and prints one JSON object on stdout: the
set-up time measured from the parent's spawn time, each job's seconds,
interval and result, the host-speed samples (see hostprobe.py), the peak
resident memory and, when traced, the trace summary.  Every time excludes
the time spent taking host-speed samples.  An empty job list measures
set-up alone.

    python bench/worker.py --workload n2-survey --scratch DIR --t0 T [--trace] < jobs.json
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from hostprobe import HostProbe

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    probe = HostProbe()
    probe.start()  # first: the imports below are part of the set-up
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--scratch", required=True, type=Path)
    ap.add_argument("--t0", required=True, type=float, help="parent's time.monotonic() at spawn")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    jobs = json.load(sys.stdin)
    workload = WORKLOADS[args.workload]

    tracer = Tracer(clock=lambda: time.perf_counter() - probe.spent)
    if args.trace:
        tracer.install()
    ctx = workload.setup(args.scratch)
    setup_s = time.monotonic() - args.t0 - probe.spent
    for _ in range(3):  # samples next to the set-up, however short it was
        probe.sample()
    setup_samples = len(probe.samples)

    records = []
    for job in jobs:
        tracer.job = job["id"]
        spent = probe.spent
        start = time.perf_counter()
        try:
            out = workload.run(ctx, job)
            error = None
        except Exception:  # a crashing job is counted as failed; the pass goes on
            error = traceback.format_exc()
        end = time.perf_counter()
        seconds = end - start - (probe.spent - spent)
        tracer.job = None
        if error is not None:
            print(f"job {job['id']!r} raised:\n{error}", file=sys.stderr)
            result = {"error": error.strip().splitlines()[-1]}
        else:
            result = workload.result(ctx, job, out)
        records.append({"id": job["id"], "seconds": seconds, "start": start, "end": end,
                        "result": result})
    probe.stop()

    doc = {
        "setup_s": setup_s,
        "setup_samples": setup_samples,
        "jobs": records,
        "samples": probe.samples,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.summary() if args.trace else None,
    }
    tracer.uninstall()
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: job lists, running a job, checking its result.

Each workload is a closed loop with one client: one interpreter runs its
jobs one after another.  The seed only permutes the job order (which
matters, because `sharbly._AR_CACHE` carries reduced symbols from one job
to the next) and draws the wrong eigenvalues probed in n2-h1-cert.

Why these jobs, and not the ROADMAP grid: when the benchmark was defined,
the grid's n=3, N=53 point alone cost over ten minutes (88.7 s to build,
~680 s for the Betti numbers) and its n=2, N=211 point ~53 s, while
comparing two commits takes tens of runs of every workload.  Each job list
here is cut to about ten seconds per pass on a 2-core Xeon and still
isolates one layer:

- n2-survey: the library path of scripts/hecke_survey.py over the
  squarefree N in [30, 45], T(l,1) on H_0 for l in {2, 3, 5} with l not
  dividing N.  Most time is the dense solve in `express_cycle`; prime
  levels (small H_0, heavy build) sit beside composite ones (large H_0,
  heavy solve).
- n3-cli: the user-facing CLI, called in process with a fresh cache
  directory: `homology` over Q and over F_32003 and `hecke --ell 2` at
  n=3 for N in {11, 13, 17}.  Most time is `congruence` orbit splitting;
  the rest is dense elimination paid again by every command.
- n2-h1-cert: T(2,1) on H_1 through `hecke_on_h1_n2` and a witness for
  the true eigenvalue 3 at N in {11, 15, 17}, plus wrong-eigenvalue
  probes at N in {11, 13} that must come back Undetermined after the
  full budget.  Most time is support growth and the support-system solve.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _squarefree(n: int) -> bool:
    return all(n % (d * d) for d in range(2, int(n ** 0.5) + 1))


SURVEY_LEVELS = tuple(n for n in range(30, 46) if _squarefree(n))
SURVEY_PRIMES = (2, 3, 5)
CLI_LEVELS = (11, 13, 17)
CLI_COMMANDS = (
    ("homology", "--field", "Q"),
    ("homology", "--field", "Fp:32003"),
    ("hecke", "--ell", "2", "--degree", "0"),
)
CERT_CASES = ((11, 2), (15, 2), (17, 2))  # (N, l): H_1 operator and true-eigenvalue witness
CERT_PROBES = (11, 13)  # levels of the wrong-eigenvalue probes
PROBE_ELL = 2
PROBE_VALUES = tuple(x for x in range(-2, 7) if x != PROBE_ELL + 1)  # l + 1 is the true one

CACHE_MARK = "$CACHE"  # stands for the per-pass cache directory in CLI output


class Mismatch(Exception):
    """A job returned a wrong result; the run is aborted."""


def _poly(coeffs) -> list:
    return [str(c) for c in coeffs]


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------

def survey_jobs(rng: random.Random) -> list:
    levels = list(SURVEY_LEVELS)
    rng.shuffle(levels)
    jobs = []
    for n_ in levels:
        jobs.append({"id": f"N={n_}", "kind": "build", "N": n_})
        ells = [ell for ell in SURVEY_PRIMES if n_ % ell]
        rng.shuffle(ells)
        jobs += [{"id": f"N={n_} T({ell},1)", "kind": "hecke", "N": n_, "ell": ell} for ell in ells]
    return jobs


def cli_jobs(rng: random.Random) -> list:
    jobs = []
    for n_ in CLI_LEVELS:
        for cmd in CLI_COMMANDS:
            argv = [cmd[0], "--n", "3", "--level", str(n_), *cmd[1:]]
            jobs.append({"id": " ".join(argv), "argv": argv, "N": n_})
    rng.shuffle(jobs)
    return jobs


def cert_jobs(rng: random.Random) -> list:
    jobs = []
    for n_, ell in CERT_CASES:
        jobs.append({"id": f"h1 N={n_} T({ell},1)", "kind": "h1", "N": n_, "ell": ell})
        jobs.append({"id": f"witness N={n_} T({ell},1)", "kind": "witness", "N": n_, "ell": ell,
                     "a": ell + 1})
    for n_ in CERT_PROBES:
        jobs.append({"id": f"probe N={n_} T({PROBE_ELL},1)", "kind": "probe", "N": n_,
                     "ell": PROBE_ELL, "a": rng.choice(PROBE_VALUES)})
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Running jobs (inside the worker interpreter)
# ---------------------------------------------------------------------------

def _layer(name: str):
    """The module sharbly.<name>, looked up at call time so that traced
    bindings are used.  (The package attribute `sharbly.homology` is the
    function, not the module, so plain attribute imports do not work.)"""
    return importlib.import_module("sharbly." + name)


def _library_setup(_scratch: Path) -> dict:
    return {"table": _layer("voronoi").enumerate_cells(2), "cx": {}}


def _survey_run(ctx: dict, job: dict):
    homology, QQ = _layer("homology"), _layer("fields").QQ
    n_ = job["N"]
    if job["kind"] == "build":
        cx = homology.build_complex(2, n_, QQ, table=ctx["table"])
        ctx["cx"][n_] = cx
        return homology.betti_numbers(cx)
    return _layer("hecke").hecke_on_h0(2, n_, QQ, job["ell"], 1, cx=ctx["cx"][n_])


def _survey_result(_ctx: dict, job: dict, out) -> dict:
    if job["kind"] == "build":
        return {"betti": {str(k): v for k, v in sorted(out.items())}}
    return {"charpoly": _poly(out.charpoly)}


def _cli_setup(scratch: Path) -> dict:
    scratch.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = _layer("cli").main(["cells", "--n", "3", "--cache-dir", str(scratch)])
    if code != 0:
        raise RuntimeError(f"`cells --n 3` exited {code}")
    return {"cache": scratch}


def _cli_out_path(ctx: dict, job: dict) -> Path | None:
    if job["argv"][0] != "homology":
        return None
    return ctx["cache"] / ("out-" + "-".join(job["argv"][1:]).replace(":", "") + ".json")


def _cli_run(ctx: dict, job: dict):
    argv = job["argv"] + ["--cache-dir", str(ctx["cache"])]
    out_path = _cli_out_path(ctx, job)
    if out_path is not None:
        argv += ["--out", str(out_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = _layer("cli").main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _cli_result(ctx: dict, job: dict, out) -> dict:
    code, stdout, stderr = out
    res = {"exit": code, "stdout": stdout.replace(str(ctx["cache"]), CACHE_MARK)}
    if code != 0:
        res["stderr"] = stderr
    out_path = _cli_out_path(ctx, job)
    if code == 0 and out_path is not None:
        res["doc"] = json.loads(out_path.read_text())
    return res


def _cert_run(ctx: dict, job: dict):
    homology, reduction, QQ = _layer("homology"), _layer("reduction"), _layer("fields").QQ
    cx = homology.build_complex(2, job["N"], QQ, table=ctx["table"])
    if job["kind"] == "h1":
        return reduction.hecke_on_h1_n2(job["N"], QQ, job["ell"], cx=cx)
    x = homology.homology(cx, 1).homology_reps[0]
    op = _layer("hecke").hecke_cosets(2, job["ell"], 1)
    return reduction.verify_eigen_chain(cx, x, op, job["a"])


def _cert_result(_ctx: dict, job: dict, out) -> dict:
    if isinstance(out, _layer("reduction").Undetermined):
        return {"undetermined": out.reason}
    if job["kind"] == "h1":
        return {"charpoly": _poly(out.charpoly)}
    return {"witness_verified": out.verify(), "a": str(out.a)}


# ---------------------------------------------------------------------------
# Checking results (in the parent, outside the timed region)
# ---------------------------------------------------------------------------

def failed(job: dict, result: dict) -> bool:
    """A failure: an exception, a non-zero CLI exit, or Undetermined where a
    certificate was expected."""
    if "error" in result:
        return True
    if "exit" in result:
        return result["exit"] != 0
    return "undetermined" in result and job.get("kind") != "probe"


def check(workload: str, jobs: list, results: list, golden: dict) -> None:
    """Raise Mismatch on the first wrong result of a pass."""
    w = WORKLOADS[workload]
    expected = golden[workload]
    for job, res in zip(jobs, results):
        if "error" in res:
            continue
        want = expected.get(job["id"])
        if want is None:
            raise Mismatch(f"{workload}: no golden value for job {job['id']!r}")
        w.check_job(job, res, want)
    if w.check_pass is not None:
        w.check_pass(jobs, results)


def _same(job, got, want):
    if got != want:
        raise Mismatch(f"{job['id']}: got {got!r}, golden {want!r}")


def _check_cli(job, res, want):
    if res["exit"] == 0:
        _same(job, res["stdout"], want["stdout"])


def _check_cli_invariants(jobs, results):
    """Euler characteristic of each complex, and F_p Betti >= Q Betti."""
    betti = {}
    for job, res in zip(jobs, results):
        doc = res.get("doc")
        if doc is None:
            continue
        ranks = sum((-1) ** int(k) * v for k, v in doc["ranks"].items())
        homs = sum((-1) ** int(k) * v for k, v in doc["betti"].items())
        if ranks != homs:
            raise Mismatch(f"{job['id']}: sum (-1)^k rank W_k = {ranks} != {homs} = sum (-1)^k dim H_k")
        betti[doc["level"], doc["field"]] = doc["betti"]
    for (level, field), fp in betti.items():
        q = betti.get((level, "Q"))
        if field == "Q" or q is None:
            continue
        if any(fp[k] < q[k] for k in q):
            raise Mismatch(f"N={level}: Betti numbers over {field} {fp} fall below those over Q {q}")


def _check_cert(job, res, want):
    if job["kind"] == "probe":
        if "undetermined" not in res:
            raise Mismatch(f"{job['id']} a={job['a']}: a wrong eigenvalue produced a witness")
        return
    if "undetermined" in res:
        return  # counted as a failure, not a wrong result
    if job["kind"] == "witness" and not res["witness_verified"]:
        raise Mismatch(f"{job['id']}: witness failed re-verification")
    _same(job, res, want)


@dataclass(frozen=True)
class Workload:
    jobs: Callable  # rng -> job list
    setup: Callable  # scratch dir -> context (cell tables ready)
    run: Callable  # (context, job) -> raw output; the timed part
    result: Callable  # (context, job, raw output) -> JSON-able result
    check_job: Callable  # (job, result, golden value); raises Mismatch
    check_pass: Callable | None = None  # (jobs, results) invariants; raises Mismatch


WORKLOADS = {
    "n2-survey": Workload(survey_jobs, _library_setup, _survey_run, _survey_result, _same),
    "n3-cli": Workload(cli_jobs, _cli_setup, _cli_run, _cli_result, _check_cli,
                       _check_cli_invariants),
    "n2-h1-cert": Workload(cert_jobs, _library_setup, _cert_run, _cert_result, _check_cert),
}


def jobs_for(workload: str, seed: int) -> list:
    return WORKLOADS[workload].jobs(random.Random(seed))

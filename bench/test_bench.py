"""Tests of the benchmark itself: tracer bindings, result checks, golden values.

    python3 -m pytest bench -q
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostprobe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, Mismatch, check, jobs_for  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())

NAME_IMPORTS = (
    ("homology", "solve"),
    ("reduction", "solve"),
    ("hecke", "express_cycle"),
    ("cli", "complex_to_json"),
    ("reduction", "equivalent_cells"),
)

# Small jobs of each workload's kinds, cheap enough to run twice in process.
SMALL_JOBS = {
    "n2-survey": [
        {"id": "N=11", "kind": "build", "N": 11},
        {"id": "N=11 T(2,1)", "kind": "hecke", "N": 11, "ell": 2},
        {"id": "N=11 T(3,1)", "kind": "hecke", "N": 11, "ell": 3},
    ],
    "n3-cli": [
        {"id": "homology --n 3 --level 5 --field Q",
         "argv": ["homology", "--n", "3", "--level", "5", "--field", "Q"], "N": 5},
        {"id": "homology --n 3 --level 5 --field Fp:32003",
         "argv": ["homology", "--n", "3", "--level", "5", "--field", "Fp:32003"], "N": 5},
        {"id": "hecke --n 3 --level 7 --ell 2 --degree 0",
         "argv": ["hecke", "--n", "3", "--level", "7", "--ell", "2", "--degree", "0"], "N": 7},
    ],
    "n2-h1-cert": [
        {"id": "h1 N=11 T(2,1)", "kind": "h1", "N": 11, "ell": 2},
        {"id": "witness N=11 T(2,1)", "kind": "witness", "N": 11, "ell": 2, "a": 3},
        {"id": "probe N=11 T(2,1)", "kind": "probe", "N": 11, "ell": 2, "a": 0},
    ],
}


def _sharbly_attrs():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "sharbly" or name.startswith("sharbly."):
            for attr, value in vars(mod).items():
                out[name, attr] = value
    linear_span = sys.modules["sharbly.fields"].LinearSpan
    out["LinearSpan", "add"] = linear_span.__dict__["add"]
    return out


def test_every_binding_is_wrapped_and_restored():
    tracer = Tracer()
    bindings = tracer.bindings()
    before = _sharbly_attrs()
    originals = {id(b[2]) for b in bindings}
    assert {b[4] for b in bindings} == set(TRACED), "a traced function has no binding"
    tracer.install()
    try:
        for owner, attr, original, _name, _spec in bindings:
            assert getattr(owner, attr).__wrapped__ is original
        for module, attr in NAME_IMPORTS:
            assert hasattr(getattr(sys.modules["sharbly." + module], attr), "__wrapped__")
        leaks = [key for key, value in _sharbly_attrs().items() if id(value) in originals]
        assert not leaks, f"unwrapped bindings of traced functions: {leaks}"
    finally:
        tracer.uninstall()
    after = _sharbly_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _run_jobs(workload, jobs, scratch, tracer=None):
    w = WORKLOADS[workload]
    if tracer is not None:
        tracer.install()
    try:
        ctx = w.setup(scratch)
        return [w.result(ctx, job, w.run(ctx, job)) for job in jobs]
    finally:
        if tracer is not None:
            tracer.uninstall()


@pytest.mark.parametrize("workload", sorted(SMALL_JOBS))
def test_traced_run_returns_the_untraced_results(workload, tmp_path):
    jobs = SMALL_JOBS[workload]
    plain = _run_jobs(workload, jobs, tmp_path / "plain")
    tracer = Tracer()
    traced = _run_jobs(workload, jobs, tmp_path / "traced", tracer)
    assert traced == plain
    summary = tracer.summary()
    assert summary["calls"]["homology.build_complex"] >= 1
    assert summary["calls"]["congruence.proj_normalize"] >= 1
    if workload == "n2-h1-cert":
        assert summary["calls"]["reduction.solve"] >= 1
        assert summary["counts"]["reduction.undetermined"] == 1


def test_self_time_excludes_children(tmp_path):
    tracer = Tracer()
    _run_jobs("n2-survey", SMALL_JOBS["n2-survey"][:2], tmp_path, tracer)
    s = tracer.summary()
    name = "hecke.hecke_matrix_on_h0"
    assert 0 < s["self_s"][name] < s["total_s"][name]
    assert any(path.endswith(name + "/homology.express_cycle") for path in s["tree"])


def test_host_probe_samples_and_accounts_for_its_own_time():
    probe = hostprobe.HostProbe()
    probe.start()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.35:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 2
    assert 0 < probe.spent < 0.35
    assert all(r > 0 for _t, r in probe.samples)
    samples = [(1.0, 0.010), (2.0, 0.020)]
    assert hostprobe.slowdown(samples) == pytest.approx(0.015 / hostprobe.REFERENCE_S)
    assert hostprobe.slowdown(samples, 1.5, 2.5) == pytest.approx(0.020 / hostprobe.REFERENCE_S)
    assert hostprobe.slowdown(samples, 3.0, 4.0, fallback=7.0) == 7.0


def test_host_free_times_divide_by_the_local_slowdown():
    ref = hostprobe.REFERENCE_S
    doc = {
        "setup_s": 0.3, "setup_samples": 1,
        "samples": [(0.0, 2 * ref), (1.0, ref), (5.0, 4 * ref)],
        "jobs": [{"seconds": 1.0, "start": 0.9, "end": 1.5}, {"seconds": 2.0, "start": 2.0, "end": 3.0}],
    }
    setup, jobs = run.host_free(doc)
    assert setup == pytest.approx(0.15)
    assert jobs[0] == pytest.approx(1.0)  # only the sample at 1.0 is near it
    assert jobs[1] == pytest.approx(2.0 / (7 / 3))  # none near it: the pass mean


def test_golden_survey_values_match_the_manin_oracle():
    from sharbly import manin

    for job_id, want in GOLDEN["n2-survey"].items():
        if "betti" in want:
            level = int(job_id.split("=")[1])
            assert want["betti"]["0"] == manin.manin_dim(level), job_id
        else:
            level = int(job_id.split()[0].split("=")[1])
            ell = int(job_id.split("(")[1].split(",")[0])
            _, cp = manin.manin_hecke(level, ell)
            assert want["charpoly"] == [str(c) for c in cp], job_id


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_permutes_the_same_jobs(workload):
    ids = [sorted(j["id"] for j in jobs_for(workload, seed)) for seed in range(5)]
    assert all(i == sorted(GOLDEN[workload]) for i in ids)
    orders = {tuple(j["id"] for j in jobs_for(workload, seed)) for seed in range(5)}
    assert len(orders) > 1
    assert jobs_for(workload, 3) == jobs_for(workload, 3)
    for seed in range(20):
        for job in jobs_for(workload, seed):
            if job.get("kind") == "probe":
                assert job["a"] != job["ell"] + 1


def _golden_pass(workload):
    """Results of a pass that reproduces the golden values exactly."""
    jobs = jobs_for(workload, 0)
    results = [copy.deepcopy(GOLDEN[workload][j["id"]]) for j in jobs]
    if workload == "n3-cli":
        for res in results:
            res["exit"] = 0
    return jobs, results


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_check_rejects_a_perturbed_golden_value(workload):
    jobs, results = _golden_pass(workload)
    check(workload, jobs, results, GOLDEN)
    for i, job in enumerate(jobs):
        if job.get("kind") == "probe":
            continue
        golden = copy.deepcopy(GOLDEN)
        want = golden[workload][job["id"]]
        key = next(iter(k for k in want if k != "a"))
        want[key] = "perturbed"
        with pytest.raises(Mismatch):
            check(workload, jobs, results, golden)


def test_check_rejects_wrong_certificates():
    jobs, results = _golden_pass("n2-h1-cert")
    probe = next(i for i, j in enumerate(jobs) if j["kind"] == "probe")
    bad = copy.deepcopy(results)
    bad[probe] = {"witness_verified": True, "a": "0"}
    with pytest.raises(Mismatch, match="wrong eigenvalue"):
        check("n2-h1-cert", jobs, bad, GOLDEN)
    witness = next(i for i, j in enumerate(jobs) if j["kind"] == "witness")
    bad = copy.deepcopy(results)
    bad[witness]["witness_verified"] = False
    with pytest.raises(Mismatch, match="re-verification"):
        check("n2-h1-cert", jobs, bad, GOLDEN)
    undetermined = copy.deepcopy(results)
    undetermined[witness] = {"undetermined": "budget"}
    check("n2-h1-cert", jobs, undetermined, GOLDEN)  # a failure, not a wrong result
    assert workloads.failed(jobs[witness], undetermined[witness])
    assert not workloads.failed(jobs[probe], results[probe])


def _cli_doc(level, field, ranks, betti):
    return {"level": level, "field": field, "ranks": ranks, "betti": betti}


@pytest.mark.parametrize("docs, message", [
    ([_cli_doc(11, "Q", {"0": 3, "1": 2}, {"0": 2, "1": 0})], "sum"),
    ([_cli_doc(11, "Q", {"0": 3, "1": 2}, {"0": 1, "1": 0}),
      _cli_doc(11, "F32003", {"0": 3, "1": 2}, {"0": 2, "1": 1})], None),
    ([_cli_doc(11, "Q", {"0": 3, "1": 1}, {"0": 2, "1": 0}),
      _cli_doc(11, "F32003", {"0": 3, "1": 2}, {"0": 1, "1": 0})], "fall below"),
])
def test_cli_invariants(docs, message):
    jobs = [{"id": f"job{i}"} for i in range(len(docs))]
    results = [{"exit": 0, "doc": d} for d in docs]
    if message is None:
        workloads._check_cli_invariants(jobs, results)
    else:
        with pytest.raises(Mismatch, match=message):
            workloads._check_cli_invariants(jobs, results)


def test_perturbed_golden_fails_the_run(tmp_path, monkeypatch, capsys):
    golden = copy.deepcopy(GOLDEN)
    golden["n3-cli"]["hecke --n 3 --level 11 --ell 2 --degree 0"]["stdout"] += " "
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(run, "GOLDEN", path)
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    assert run.main(["--workload", "n3-cli", "--seed", "1", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


def test_benchmark_json_matches_the_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == [name for name, _unit in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    layers = [m[:3] for m in run.LAYER_METRICS] + [run.OVERHEAD[:3]]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == layers


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "n2-survey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

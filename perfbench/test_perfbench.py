"""Self-tests of the benchmark harness (fast; run with pytest)."""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from worker import run_job, run_jobs  # noqa: E402

import resatlas.cli  # noqa: E402


def test_job_generation_is_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 7, 20) == workloads.generate(w, 7, 20)
    for w in ("atlas", "finite-reps", "complexes"):
        assert workloads.generate(w, 7, 20) != workloads.generate(w, 8, 20)


def test_every_generated_job_has_a_catalogue_entry():
    catalogue = verify.load_catalogue()
    for w, variants in workloads.all_variants().items():
        for argv in variants:
            assert verify.job_key(argv) in catalogue, argv
    for seconds in (1, 5, 20, 60):
        for seed in range(3):
            for w in workloads.WORKLOADS:
                for argv in workloads.generate(w, seed, seconds):
                    assert verify.job_key(argv) in catalogue, argv


def test_known_defect_jobs_stay_in_finite_reps():
    catalogue = verify.load_catalogue()
    jobs = workloads.generate("finite-reps", 0, 20)
    crashed = [a for a in jobs if catalogue[verify.job_key(a)]["error"]]
    assert crashed and all(a[0] in ("bgg-check", "kstar-check") for a in crashed)


def test_golden_passes_and_perturbed_digest_fails():
    catalogue = verify.load_catalogue()
    argv = ("verify-monomial", "--t", "3", "--seed", "1")
    out = run_job(resatlas.cli.main, argv)
    entry = catalogue[verify.job_key(argv)]
    assert verify.judge(entry, argv, out).passed
    # Must-fail twin: one changed byte of output, or of the golden, fails
    # and is not excused as a known defect.
    bad = verify.judge(entry, argv, replace(out, stdout=out.stdout.replace("X1", "X2", 1)))
    assert not bad.passed and not bad.known
    flipped = dict(entry, sha256=entry["sha256"][::-1])
    assert not verify.judge(flipped, argv, out).passed
    false_verdict = replace(out, stdout=out.stdout.replace('"ok": true', '"ok": false'))
    assert verify.judge(entry, argv, false_verdict).reason == "verdict false"


def test_a_job_prints_as_in_a_fresh_process_after_other_jobs():
    # Term order follows variable interning; a q1 on one format interns
    # variables that reorder the terms of a q1 on another, unless each job
    # gets a fresh registry.
    catalogue = verify.load_catalogue()
    q1 = workloads._q1_variants()
    for argv in (q1[0], q1[12]):
        out = run_job(resatlas.cli.main, argv)
        assert verify.judge(catalogue[verify.job_key(argv)], argv, out).passed, argv


def test_a_job_that_raises_counts_as_failed_and_the_run_continues():
    def main(argv):
        if argv[0] == "boom":
            raise RuntimeError("internal error")
        print(json.dumps({"ok": True}))
        return 0

    good = verify.digest(("fine",), json.dumps({"ok": True}) + "\n")
    catalogue = {"boom": {"sha256": good, "error": None}, "fine": {"sha256": good, "error": None}}
    intervals, judged = run_jobs(main, [("boom",), ("fine",)], catalogue)
    assert len(intervals) == 2
    assert not judged[0].passed and not judged[0].known
    assert judged[0].reason == "raised RuntimeError@main"
    assert judged[1].passed


def test_a_known_crash_is_failed_but_excused():
    catalogue = verify.load_catalogue()
    argv = ("bgg-check", "--pqr", "2", "2", "3", "--lam", "zero", "--cutoff", "2")
    entry = catalogue[verify.job_key(argv)]
    j = verify.judge(entry, argv, run_job(resatlas.cli.main, argv))
    assert not j.passed and j.known


def test_tail_percentile_leaves_ten_jobs_beyond():
    assert run.tail([0.1] * 10) is None
    for n in (11, 42, 79, 100, 185):
        value, pct, beyond = run.tail([float(i) for i in range(n)])
        assert beyond >= 10 and value == n - 1 - beyond


def test_tracer_counts_a_d4_bgg_job_and_uninstalls():
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.job = 0
        out = run_job(resatlas.cli.main, ("bgg-check", "--pqr", "2", "2", "2", "--lam", "w:z1", "--cutoff", "2"))
    finally:
        tracer.uninstall()
    assert out.rc == 0
    assert not hasattr(resatlas.cli.main, "__wrapped__")
    summary = tracer.summary(1)
    values = spans.per_layer_metrics(summary, 0.0)
    assert values["kacmoody.weyl_elements.elements"] == 192       # |W(D4)|
    assert values["kacmoody.enumerate_WS.kept"] == 8              # |W(D4)| / |W(A3)|
    assert values["kacmoody.reflect.calls"] > 0
    assert values["formats.tpqr_cartan_matrix.calls"] >= values["kacmoody.reflect.calls"]
    assert values["cli.main.self_s"] > 0
    own = tracer.self_times()
    assert min(own) > -1e-6


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_speed_log_samples_inside_a_long_job_and_leaves_its_time_out():
    with speed.SpeedLog() as log:
        c0, t0 = log.clock(), time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.SAMPLE_EVERY_S:
            pass
        t1, c1 = time.perf_counter(), log.clock()
    assert len(log.refs) >= 2
    assert 0 < log.paused_within(t0, t1) < 0.5 * (t1 - t0)
    # The span clock stops while the kernel runs.
    assert abs((t1 - t0) - (c1 - c0) - log.paused_within(t0, t1)) < 1e-3
    assert log.factor(t0, t1) > 0

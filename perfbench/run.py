"""Run a resatlas benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout; it imports `resatlas` from the
checkout's `src/`.  Workloads: atlas, finite-reps, complexes, paper-checks
(see README.md).  Each run starts one fresh worker process that runs the
workload's seeded job list once, one job at a time, with
`RESATLAS_BUDGET_MS` unset.  Before it, setup-only workers are started to
time set-up.

With `--trace 0` the last line holds the end-to-end metrics (run_s,
setup_s, peak_rss_mb).  With `--trace 1` one fresh worker runs the job
list untraced and then a second fresh worker runs it traced; the last line
holds the per-layer metrics from the traced worker, including the tracing
overhead (traced minus untraced run_s).  The lines before it print every
metric by name and unit, plus job_p50_s, job_tail_s and failed_ratio,
which are not defined for every workload.  Full results and spans go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 10
DEADLINE_S = 170.0
# A bare interpreter importing the stdlib modules resatlas uses: timed next to
# each set-up probe, it tracks the machine's speed at starting processes.
BARE_START = ("-c", "import argparse, dataclasses, fractions, itertools, json, random")
BARE_START_NOMINAL_S = 0.08

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class WorkerFailed(RuntimeError):
    pass


def _worker(workload, seed, seconds, deadline, trace=None, setup_only=False):
    """Start one worker; return (set-up seconds, parsed result or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    if trace:
        cmd += ["--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    # Bytecode is cached next to the sources in the checkout, so every
    # set-up probe after the first imports resatlas the same way whether or
    # not the caller's environment turns the cache off or moves it.
    unset = ("RESATLAS_BUDGET_MS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed(f"{workload}: worker passed the {DEADLINE_S:.0f} s deadline")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerFailed(f"{workload}: worker exited with code {proc.returncode}")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def tail(latencies):
    """The highest whole percentile with at least ten jobs beyond it:
    (value, percentile, jobs beyond), or None below eleven jobs."""
    n = len(latencies)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    idx = math.ceil(pct * n / 100) - 1
    return sorted(latencies)[idx], pct, n - idx - 1


def summarize(result):
    lat = result["latencies"]
    judged = result["judgements"]
    failed = sum(1 for passed, _, _ in judged if not passed)
    return {
        "correct": all(passed or known for passed, known, _ in judged),
        "attempted": len(lat),
        "failed": failed,
        "run_s": sum(lat),
        "wall_s": sum(result["wall"]),
        "job_p50_s": statistics.median(lat) if len(lat) > 1 else None,
        "job_tail": tail(lat),
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_ratio": failed / len(lat),
    }


def _print_failures(result):
    for argv, (passed, known, reason) in zip(result["jobs"], result["judgements"]):
        if not passed:
            kind = "known defect" if known else "WRONG"
            print(f"  failed [{kind}] {' '.join(argv)}: {reason}")


def run_untraced(workload, seed, seconds, deadline):
    samples, bare = [], []
    for _ in range(SETUP_PROBES):
        samples.append(_worker(workload, seed, seconds, deadline, setup_only=True)[0])
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *BARE_START], check=True)
        bare.append(time.perf_counter() - t0)
    setup, result = _worker(workload, seed, seconds, deadline)
    samples.append(setup)
    s = summarize(result)
    setup_s = statistics.median(samples) * BARE_START_NOMINAL_S / statistics.median(bare)
    metrics = {"run_s": s["run_s"], "setup_s": setup_s, "peak_rss_mb": s["peak_rss_mb"]}
    print(f"workload {workload}  seed {seed}  seconds {seconds}  jobs {s['attempted']}  "
          f"failed {s['failed']}  correct {s['correct']}")
    for name, unit in END_TO_END:
        print(f"  {name:<14s} {metrics[name]:12.4f} {unit}")
    print(f"  {'setup samples':<14s} {len(samples):12d} count")
    print(f"  {'wall_s':<14s} {s['wall_s']:12.4f} s  (unscaled run_s)")
    print(f"  {'setup_wall_s':<14s} {statistics.median(samples):12.4f} s  (unscaled setup_s)")
    if s["job_p50_s"] is not None:
        print(f"  {'job_p50_s':<14s} {s['job_p50_s']:12.4f} s")
    if s["job_tail"] is not None:
        value, pct, beyond = s["job_tail"]
        print(f"  {'job_tail_s':<14s} {value:12.4f} s  (p{pct} of {s['attempted']} jobs, {beyond} beyond)")
    print(f"  {'failed_ratio':<14s} {s['failed_ratio']:12.4f} ratio")
    _print_failures(result)
    detail = dict(s, metrics=metrics, setup_samples=samples, bare_start=bare, seed=seed, seconds=seconds, **result)
    _write(f"{workload}-seed{seed}.json", detail)
    return s, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def run_traced(workload, seed, seconds, deadline):
    """An untraced and then a traced fresh worker on the same job list; both
    runs' outputs are checked."""
    OUT.mkdir(exist_ok=True)
    _, plain = _worker(workload, seed, seconds, deadline)
    _, traced = _worker(workload, seed, seconds, deadline, trace=OUT / f"{workload}.spans.json")
    s = summarize(traced)
    untraced = summarize(plain)
    s["correct"] = s["correct"] and untraced["correct"]
    values = spans.per_layer_metrics(traced["trace"], s["run_s"] - untraced["run_s"])
    print(f"workload {workload}  seed {seed}  traced run_s {s['run_s']:.4f} s  "
          f"untraced run_s {untraced['run_s']:.4f} s  jobs {s['attempted']}  failed {s['failed']}")
    for name, unit, _ in spans.PER_LAYER:
        print(f"  {name:<44s} {values[name]:16.6f} {unit}")
    anchor = list(workloads.E6_ANCHOR)
    for i, argv in enumerate(traced["jobs"]):
        if argv == anchor:
            job = traced["trace"]["per_job"][i]
            print(f"  job {i} {' '.join(argv)}: "
                  f"weyl_elements.elements {job.get('kacmoody.weyl_elements.elements', 0):.0f}, "
                  f"enumerate_WS.kept {job.get('kacmoody.enumerate_WS.kept', 0):.0f}, "
                  f"tpqr_cartan_matrix.calls {job.get('formats.tpqr_cartan_matrix.calls', 0):.0f}")
    _print_failures(plain)
    _print_failures(traced)
    _write(f"{workload}-seed{seed}.trace.json", dict(s, per_layer=values, seed=seed, seconds=seconds, **traced))
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    return s, {name: {"value": values[name], "unit": units[name]} for name in units}


def _write(name, payload):
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w") as fh:
        json.dump(payload, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="resatlas benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "resatlas" / "__init__.py").is_file():
        print(f"no resatlas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runner = run_traced if args.trace else run_untraced
    results = {}
    try:
        for w in names:
            results[w] = runner(w, args.seed, args.seconds, time.monotonic() + DEADLINE_S)
    except WorkerFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if len(names) == 1:
        s, metrics = results[names[0]]
    else:
        s = {
            "correct": all(r[0]["correct"] for r in results.values()),
            "attempted": sum(r[0]["attempted"] for r in results.values()),
            "failed": sum(r[0]["failed"] for r in results.values()),
        }
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r[1].items()}
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"], "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run: a fresh process that runs one workload's job list once.

Usage (normally started by run.py):

    python3 perfbench/worker.py --workload atlas --seed 1 --seconds 20 \
        [--trace <spans.json>] [--setup-only]

The worker imports `resatlas` from the checkout's `src/` (the parent of
this directory), generates the job list from the seed, prints `ready`,
then calls `resatlas.cli.main(argv + ["--json"])` for each job in turn
with stdout and stderr captured: a closed loop with one client.  With
`--trace` every job runs under the span tracer (spans.py).  The last line
it prints is a JSON result with the per-job wall times and scaled
latencies (see speed.py), the peak RSS and the judgement of every job.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from speed import SpeedLog
from verify import Outcome, job_key, judge, load_catalogue

SRC = Path(__file__).resolve().parent.parent / "src"


def _error_name(exc: BaseException) -> str:
    frames = traceback.extract_tb(exc.__traceback__)
    where = frames[-1].name if frames else "?"
    return f"{type(exc).__name__}@{where}"


def _fresh_registry() -> None:
    """Give the job an empty variable registry, as a fresh process has.
    Printed term order follows the order in which variables were interned,
    so without this a job's output would depend on the jobs before it,
    while its golden comes from a fresh process."""
    exact = sys.modules.get("resatlas.exact")
    registry = getattr(exact, "REGISTRY", None)
    if registry is not None:
        exact.REGISTRY = type(registry)()


def run_job(main, argv) -> Outcome:
    """Run one job in process.  An exception escaping `main` is returned as
    the job's error, never raised."""
    _fresh_registry()
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv) + ["--json"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the run goes on; the job counts as failed
            error = _error_name(exc)
    return Outcome(rc=rc, stdout=out.getvalue(), error=error)


def run_jobs(main, jobs, catalogue, tracer=None):
    """Run the job list; return each job's (start, end) and judgement.
    Only the calls into `main` are timed."""
    intervals, judgements = [], []
    for i, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        outcome = run_job(main, argv)
        intervals.append((t0, time.perf_counter()))
        judgements.append(judge(catalogue.get(job_key(argv)), argv, outcome))
    return intervals, judgements


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import resatlas.cli

    if Path(resatlas.__file__).resolve().parent.parent != SRC:
        print(f"resatlas imported from {resatlas.__file__}, not {SRC}", file=sys.stderr)
        return 3

    jobs = workloads.generate(args.workload, args.seed, args.seconds)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    catalogue = load_catalogue()

    log = SpeedLog()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(clock=log.clock)
        tracer.install()
    try:
        with log:
            intervals, judgements = run_jobs(resatlas.cli.main, jobs, catalogue, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = [t1 - t0 - log.paused_within(t0, t1) for t0, t1 in intervals]

    result = {
        "jobs": [list(j) for j in jobs],
        "wall": wall,
        "latencies": [w * log.factor(t0, t1) for w, (t0, t1) in zip(wall, intervals)],
        "reference_s": log.refs,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "judgements": [[j.passed, j.known, j.reason] for j in judgements],
    }
    if tracer is not None:
        result["trace"] = tracer.summary(len(jobs))
        tracer.write(args.trace, jobs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

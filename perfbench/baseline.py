"""Measure the benchmark over many seeds and write BASELINE.json.

    python3 perfbench/baseline.py [--seeds 10] [--workloads atlas complexes] [--traced] \
        [--compare earlier.json]

For each workload, runs `run.py` once per seed 1..N with the run length from
BENCHMARK.json, then reports each metric's median, quartiles
(`statistics.quantiles(n=4)`), spread (quartile distance over median) and,
for the gated metrics, the bound from BENCHMARK.json.  With `--traced` it
adds one traced run (seed 1) per workload for the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} failed:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    name = f"{workload}-seed{seed}.trace.json" if trace else f"{workload}-seed{seed}.json"
    with open(OUT / name) as fh:
        return last, json.load(fh)


def _stats(values, unit, bound=None):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    out = {"unit": unit, "median": q2, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / q2 if q2 else None, "samples": len(values)}
    if bound is not None:
        out["bound"] = bound
    return out


def _anchor(detail):
    """Work counts of the E6 anchor job, when the traced run has it."""
    for argv, job in zip(detail["jobs"], detail["trace"]["per_job"]):
        if tuple(argv) == workloads.E6_ANCHOR:
            keys = ("kacmoody.weyl_elements.elements", "kacmoody.enumerate_WS.kept",
                    "formats.tpqr_cartan_matrix.calls", "kacmoody.reflect.calls")
            return {"e6_anchor_job": {"argv": argv, **{k: job.get(k, 0) for k in keys}}}
    return {}


def _compare(earlier, report):
    """Per workload and gated metric: the earlier median, this median and
    the relative change, which must stay within the bound."""
    out = {}
    for w, entry in report["workloads"].items():
        if w not in earlier["workloads"]:
            continue
        out[w] = {}
        for name, st in entry["end_to_end"].items():
            before = earlier["workloads"][w]["end_to_end"][name]["median"]
            change = st["median"] / before - 1
            out[w][name] = {"earlier": before, "now": st["median"], "change": change,
                            "within_bound": abs(change) <= st["bound"]}
            print(f"{w:<13s} {name:<13s} earlier {before:10.4f}  now {st['median']:10.4f}  "
                  f"change {change:+.4f}  bound {st['bound']}")
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default=str(HERE / "BASELINE.json"))
    ap.add_argument("--compare", help="an earlier BASELINE.json: record how far each gated median moved")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    gated = {m["name"]: m for m in bench["end_to_end"]}

    report = {
        "run_seconds": seconds,
        "seeds": list(range(1, args.seeds + 1)),
        "python": platform.python_version(),
        "workloads": {},
    }
    for w in args.workloads:
        runs = [_run(w, seed, seconds, 0) for seed in report["seeds"]]
        entry = {"jobs": runs[0][0]["attempted"], "end_to_end": {}, "printed": {}}
        for name, m in gated.items():
            values = [last["metrics"][name]["value"] for last, _ in runs]
            entry["end_to_end"][name] = _stats(values, m["unit"], m["bound"])
        entry["printed"]["wall_s"] = _stats([d["wall_s"] for _, d in runs], "s")
        entry["printed"]["setup_wall_s"] = _stats([statistics.median(d["setup_samples"]) for _, d in runs], "s")
        entry["printed"]["failed_ratio"] = _stats([d["failed_ratio"] for _, d in runs], "ratio")
        if runs[0][1]["job_p50_s"] is not None:
            entry["printed"]["job_p50_s"] = _stats([d["job_p50_s"] for _, d in runs], "s")
        if runs[0][1]["job_tail"] is not None:
            entry["printed"]["job_tail_s"] = _stats([d["job_tail"][0] for _, d in runs], "s")
            entry["printed"]["job_tail_s"]["percentile"] = runs[0][1]["job_tail"][1]
        for name, st in list(entry["end_to_end"].items()) + list(entry["printed"].items()):
            flag = ""
            if "bound" in st and name != "setup_s" and st["spread"] > st["bound"] / 3:
                flag = "  above a third of the bound"
            print(f"{w:<13s} {name:<13s} median {st['median']:10.4f} {st['unit']:<5s} "
                  f"spread {st['spread'] if st['spread'] is not None else 0:7.4f}{flag}", flush=True)
        if args.traced:
            last, detail = _run(w, 1, seconds, 1)
            entry["per_layer_seed1"] = {k: v["value"] for k, v in last["metrics"].items()}
            entry.update(_anchor(detail))
        report["workloads"][w] = entry
    if args.compare:
        report["compared_with_earlier_set"] = _compare(json.loads(Path(args.compare).read_text()), report)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

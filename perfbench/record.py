"""Record catalogue.json: the golden outcome of every job variant.

    python3 perfbench/record.py

Each variant runs in its own fresh process, so a golden cannot pick up
in-process call history.  For each job the catalogue keeps the sha256 of
its stdout (suite `seconds` stripped), the exit code, the exception that escaped
`resatlas.cli.main` if any, and the seconds the call took.  Run it at the
commit whose outputs are the reference; it overwrites the catalogue.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def record_one(argv) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import resatlas.cli
    from verify import digest
    from worker import run_job

    t0 = time.perf_counter()
    out = run_job(resatlas.cli.main, argv)
    seconds = time.perf_counter() - t0
    ok = out.error is None and out.rc == 0
    return {
        "rc": out.rc,
        "error": out.error,
        "sha256": digest(argv, out.stdout) if ok else None,
        "seconds": round(seconds, 4),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--one", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        print(json.dumps(record_one(json.loads(args.one))))
        return 0

    import workloads

    entries = {}
    for w, variants in workloads.all_variants().items():
        for v in variants:
            cmd = [sys.executable, str(HERE / "record.py"), "--one", json.dumps(list(v))]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"recording failed for {' '.join(v)}", file=sys.stderr)
                return 1
            entry = json.loads(proc.stdout.strip().splitlines()[-1])
            entry["workload"] = w
            entries[" ".join(v)] = entry
            status = entry["error"] or f"exit {entry['rc']}"
            print(f"{entry['seconds']:8.3f}s  {status:<32s} {' '.join(v)}", flush=True)
    with open(HERE / "catalogue.json", "w") as fh:
        json.dump({"jobs": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

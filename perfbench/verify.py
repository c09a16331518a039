"""Output checks: golden digests, JSON verdicts and the known defects.

A job passes only if it returns exit code 0, its JSON verdict (`ok` or
`euler_ok`, where present) is true and the sha256 of its stdout equals the
golden digest recorded in a fresh process at the seed commit.  The suite's
`seconds` fields are stripped before hashing.

One known defect of the seed commit makes jobs fail without a wrong
answer, and they stay visible as failed jobs: `bgg-check` and `kstar-check`
on a graph whose z-arm has a second vertex raise AssertionError in
`kacmoody.bgg_initial_terms`.  Those jobs have no golden; a fix must record
one.  Any other failure makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

CATALOGUE_PATH = Path(__file__).with_name("catalogue.json")


def job_key(argv) -> str:
    return " ".join(argv)


def load_catalogue(path: Path = CATALOGUE_PATH) -> Dict[str, dict]:
    with open(path) as fh:
        return json.load(fh)["jobs"]


def _strip_seconds(payload):
    if isinstance(payload, dict):
        return {k: _strip_seconds(v) for k, v in payload.items() if k != "seconds"}
    if isinstance(payload, list):
        return [_strip_seconds(v) for v in payload]
    return payload


def digest(argv, stdout: str) -> str:
    if argv and argv[0] == "suite":
        stdout = json.dumps(_strip_seconds(json.loads(stdout)), sort_keys=True) + "\n"
    return hashlib.sha256(stdout.encode()).hexdigest()


def verdict(stdout: str) -> Optional[bool]:
    """The JSON verdict: `ok`, else `euler_ok`, else None."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return False
    if not isinstance(payload, dict):
        return None
    for key in ("ok", "euler_ok"):
        if key in payload:
            return payload[key] is True
    return None


@dataclass(frozen=True)
class Outcome:
    rc: Optional[int]        # exit code; None when an exception escaped
    stdout: str
    error: Optional[str]     # "<ExceptionType>@<innermost function>"


@dataclass(frozen=True)
class Judgement:
    passed: bool
    known: bool              # failed through a known defect, not a wrong answer
    reason: str


def judge(entry: Optional[dict], argv, out: Outcome) -> Judgement:
    if entry is None:
        return Judgement(False, False, "no catalogue entry")
    if out.error is not None:
        known = entry.get("error") == out.error
        return Judgement(False, known, f"raised {out.error}")
    if out.rc != 0:
        return Judgement(False, False, f"exit code {out.rc}")
    if entry.get("sha256") is None:
        return Judgement(False, True, "no golden: the job failed at the seed commit")
    if verdict(out.stdout) is False:
        return Judgement(False, False, "verdict false")
    if digest(argv, out.stdout) != entry["sha256"]:
        return Judgement(False, False, "output differs from golden")
    return Judgement(True, False, "ok")

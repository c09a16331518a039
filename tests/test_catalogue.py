"""Every benchmark catalogue variant, judged in process as the benchmark
judges it: `perfbench/worker.run_job` runs the job and
`perfbench/verify.judge` compares its stdout digest with the golden recorded
in a fresh process.  So every output that the catalogue pins is a tier-1
fact, and a change that moves one byte of it fails here."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import verify  # noqa: E402
from worker import run_job  # noqa: E402

import resatlas.cli  # noqa: E402

# The known defect that the catalogue records: on a graph whose z-arm has a
# second vertex, these commands raise in `kacmoody.bgg_initial_terms`.
KNOWN_ERROR = "AssertionError@bgg_initial_terms"
KNOWN_COMMANDS = ("bgg-check", "kstar-check")


def test_every_catalogue_variant_passes_or_hits_the_known_crash():
    catalogue = verify.load_catalogue()
    assert catalogue
    wrong = []
    for key, entry in catalogue.items():
        argv = key.split(" ")
        outcome = run_job(resatlas.cli.main, argv)
        judgement = verify.judge(entry, argv, outcome)
        known = judgement.known and outcome.error == KNOWN_ERROR and argv[0] in KNOWN_COMMANDS
        if not (judgement.passed or known):
            wrong.append((key, judgement.reason))
    assert wrong == []


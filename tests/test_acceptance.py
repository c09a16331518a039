"""Acceptance criteria: one test per entry of `resatlas.checks.CHECKS`, the
same code `resatlas suite paper-checks` runs.

Tests keep their `test_criterion_<nn>_<name>` ids; each runs its check
under the wall-clock bound of its criterion, where one is stated, and
prints `CRITERION nn <check>: PASS (t s)`.
"""

import time

from resatlas.checks import CHECKS, Budget

# check name -> (test id suffix, wall-clock bound in seconds or None)
CRITERIA = {
    "classification": ("classification_table", 5),
    "root-counts": ("root_enumeration", 30),
    "denominator-identity": ("denominator_identity_t237", 60),
    "defect-dims": ("defect_dims", None),
    "kostant-length-2": ("kostant_displays_t334", None),
    "bgg-euler": ("bgg_euler_d4", 60),
    "spin-branching": ("spin_branching", None),
    "ra-truncations": ("ra_truncations", 60),
    "dictionary-crosscheck": ("dictionary_crosscheck", None),
    "generic-family": ("generic_family", 120),
    "monomial-family": ("monomial_family", 60),
    "d4-relation": ("example_relation", None),
    "be-multipliers": ("be_factorization", None),
    "existence-predicates": ("existence_predicates", None),
}


def _criterion(number, name, fn, bound_seconds):
    def test():
        start = time.monotonic()
        fn(Budget(None))
        elapsed = time.monotonic() - start
        if bound_seconds is not None:
            assert elapsed < bound_seconds, f"{name} took {elapsed:.1f}s (bound {bound_seconds}s)"
        print(f"CRITERION {number:02d} {name}: PASS ({elapsed:.2f}s)")

    return test


assert set(CRITERIA) == {name for name, _ in CHECKS}
for _number, (_name, _fn) in enumerate(CHECKS, 1):
    _suffix, _bound = CRITERIA[_name]
    globals()[f"test_criterion_{_number:02d}_{_suffix}"] = _criterion(_number, _name, _fn, _bound)

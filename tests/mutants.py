"""Mutants of the package that the tier-1 suite must catch, kept as data.

Each `Mutant` is one exact text `old` in a file of the package, the text
`new` that replaces it, and the pytest node ids of the tests that must fail
once it is replaced.  `tests/test_mutants.py` checks in tier-1 that each
`old` still occurs exactly once in its file and each named test still
exists, so the ledger cannot rot silently.

Replay (stdlib only; each mutant runs its named tests in a temporary copy
of the repository, one process at a time):

    python tests/mutants.py            # every mutant
    python tests/mutants.py 3 25       # mutants 3 and 25, by index

It prints one line per mutant and exits 1 if any named test passes.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    what: str               # the check and leg, or the function, it breaks
    file: str               # from the repository root
    old: str                # occurs exactly once in `file`
    new: str
    fails: Tuple[str, ...]  # pytest node ids that must fail


MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        "classification: anchors (kind, Dynkin name)",
        "src/resatlas/formats.py",
        'return f"E{arms[2] + 3}"',
        'return f"E{arms[2] + 2}"',
        ("tests/test_acceptance.py::test_criterion_01_classification_table",),
    ),
    Mutant(
        "classification: signatures of T_{3,3,3} and T_{2,3,7}",
        "src/resatlas/formats.py",
        "return TpqrClass(kind, dynkin, sig)",
        "return TpqrClass(kind, dynkin, sig[::-1])",
        ("tests/test_acceptance.py::test_criterion_01_classification_table",),
    ),
    Mutant(
        "root-counts: root count",
        "src/resatlas/kacmoody.py",
        "if gamma[j] + (i == j) >= r else 0",
        "if gamma[j] + (i == j) > r else 0",
        ("tests/test_checks.py::test_root_counts_catch_a_dropped_highest_root",),
    ),
    Mutant(
        "root-counts: all multiplicities 1",
        "src/resatlas/kacmoody.py",
        "mults: Dict[Coords, int] = dict.fromkeys(simple, 1)",
        "mults: Dict[Coords, int] = dict.fromkeys(simple, 2)",
        ("tests/test_acceptance.py::test_criterion_02_root_enumeration",),
    ),
    Mutant(
        "denominator-identity: T_{2,3,7} identity to height 8",
        "src/resatlas/kacmoody.py",
        'out[tuple(v.to_bytes(n + 1, "little")[:n])] = sign',
        'out[tuple(v.to_bytes(n + 1, "little")[:n])] = -sign',
        ("tests/test_checks.py::test_denominator_identity_catches_one_wrong_multiplicity",),
    ),
    Mutant(
        "denominator-identity: null root of T_{3,3,3} has multiplicity 6",
        "src/resatlas/kacmoody.py",
        "coef = norm + 2 * l + 2 - 2 * h",
        "coef = 2 * (norm + 2 * l + 2 - 2 * h)",
        ("tests/test_checks.py::test_denominator_identity_catches_a_wrong_imaginary_multiplicity",),
    ),
    Mutant(
        "defect-dims: dims (its dims clause)",
        "src/resatlas/kacmoody.py",
        "dims[m] += mult",
        "dims[m - 1] += mult",
        ("tests/test_acceptance.py::test_criterion_04_defect_dims",),
    ),
    Mutant(
        "defect-dims: dims (its total clause)",
        "src/resatlas/kacmoody.py",
        "total += mult",
        "total += mult + 1",
        ("tests/test_acceptance.py::test_criterion_04_defect_dims",),
    ),
    Mutant(
        "defect-dims: closed formulas",
        "src/resatlas/schur.py",
        "return (r - 1) * comb(p + q, p)",
        "return r * comb(p + q, p)",
        ("tests/test_checks.py::test_defect_dims_catch_a_wrong_closed_formula",),
    ),
    Mutant(
        "kostant-length-2: the two weights",
        "src/resatlas/kacmoody.py",
        "k: [tuple(x - 1 for x in labels)",
        "k: [tuple(x - 1 for x in labels[::-1])",
        ("tests/test_checks.py::test_kostant_catches_a_dropped_length_2_element",),
    ),
    Mutant(
        "bgg-euler: Euler identity",
        "src/resatlas/kacmoody.py",
        "lhs = {k: v for k, v in lhs.items() if v}",
        "lhs = {k: v for k, v in lhs.items() if v and k[z1] < 2}",
        ("tests/test_checks.py::test_bgg_euler_catches_a_dropped_ws_element",),
    ),
    Mutant(
        "spin-branching: S-graded dims and total",
        "src/resatlas/kacmoody.py",
        "mults[beta] = m",
        "mults[beta] = m + (beta[z1] == 2)",
        ("tests/test_checks.py::test_spin_branching_catches_a_dropped_lowest_weight",),
    ),
    Mutant(
        "ra-truncations: the two R_a formulas agree",
        "src/resatlas/rings.py",
        "w0 = (0,) * r0 + (-c,)",
        "w0 = (0,) * r0 + (c,)",
        ("tests/test_checks.py::test_ra_truncations_catch_a_shifted_general_weight",),
    ),
    Mutant(
        "dictionary-crosscheck: K*/BGG match",
        "src/resatlas/rings.py",
        "(tau[r1] + t, tau[r1 + 1] + u)",
        "(tau[r1] + t, tau[r1 + 1] + u + 1)",
        ("tests/test_checks.py::test_dictionary_crosscheck_catches_a_shifted_layer_2_weight",),
    ),
    Mutant(
        "generic-family: certificate",
        "src/resatlas/complexes.py",
        "delta_data[j][i] = -m",
        "delta_data[j][i] = m",
        ("tests/test_checks.py::test_generic_family_catches_a_broken_skew_pattern",),
    ),
    Mutant(
        "generic-family and monomial-family: ranks (each check's last leg)",
        "src/resatlas/complexes.py",
        "spec = complex_.substitute(seeded_random_point(seed * 1000 + attempt, names))",
        "spec = complex_.substitute({v: 0 for v in names})",
        (
            "tests/test_acceptance.py::test_criterion_10_generic_family",
            "tests/test_acceptance.py::test_criterion_11_monomial_family",
        ),
    ),
    Mutant(
        "monomial-family: compositions vanish",
        "src/resatlas/complexes.py",
        "d2_data[i - 1][(i - 2) % m] = -xv(i - 1)",
        "d2_data[i - 1][(i - 2) % m] = xv(i - 1)",
        (
            "tests/test_checks.py::test_families_name_the_entry_of_a_nonzero_composition[monomial-family]",
        ),
    ),
    Mutant(
        "monomial-family: generator degree",
        "src/resatlas/complexes.py",
        "ps.append(prod)",
        "ps.append(prod * X[0])",
        ("tests/test_checks.py::test_monomial_family_catches_a_wrong_generator_degree",),
    ),
    Mutant(
        "d4-relation: both sides equal the Pfaffian",
        "src/resatlas/complexes.py",
        "3: b[(1, 3)]",
        "3: -b[(1, 3)]",
        (
            "tests/test_acceptance.py::test_criterion_12_example_relation",
            "tests/test_complexes.py::test_d4_split_model_tables",
            "tests/test_cli.py::test_verify_d4_json_golden",
            "tests/test_catalogue.py::test_every_catalogue_variant_passes_or_hits_the_known_crash",
        ),
    ),
    Mutant(
        "d4-relation: the paper's Pfaffian",
        "src/resatlas/complexes.py",
        'exact.ring(f"b{i}{j}" for i, j in keys)',
        'exact.ring(f"b{j}{i}" for i, j in keys)',
        (
            "tests/test_acceptance.py::test_criterion_12_example_relation",
            "tests/test_complexes.py::test_d4_split_model_tables",
        ),
    ),
    Mutant(
        "be-multipliers: factorization",
        "src/resatlas/complexes.py",
        "return -1 if (s - r * (r - 1) // 2) % 2 else 1",
        "return 1",
        ("tests/test_checks.py::test_be_multipliers_catch_a_wrong_complement_sign",),
    ),
    Mutant(
        "existence-predicates: cyclic table",
        "src/resatlas/formats.py",
        "if n_param == 1 and l_param % 2 == 0:",
        "if n_param == 1 and l_param % 2 == 1:",
        ("tests/test_checks.py::test_existence_predicates_catch_a_flipped_answer",),
    ),
    Mutant(
        "existence-predicates: format_exists against the ranks",
        "src/resatlas/formats.py",
        "return fmt.r[1] > 1",
        "return fmt.r[1] > 0",
        ("tests/test_checks.py::test_existence_predicates_catch_a_flipped_answer",),
    ),
    Mutant(
        "existence-predicates: anchors (1, 4, 4, 1) and (1, 1, 1, 1)",
        "src/resatlas/formats.py",
        "if ri < 1:",
        "if ri < 2:",
        ("tests/test_acceptance.py::test_criterion_14_existence_predicates",),
    ),
    Mutant(
        "walk: the length that ends each key",
        "src/resatlas/kacmoody.py",
        "new[-1] += 1",
        "new[-1] += 0",
        (
            "tests/test_kacmoody.py::test_weyl_elements_are_labels_then_length_and_untracked_after_collection[D4]",
            "tests/test_kacmoody.py::test_the_walk_equals_the_dedupe_walk_layer_by_layer[D4]",
            "tests/test_poincare.py::test_the_walk_has_steinbergs_counts[D4]",
        ),
    ),
    Mutant(
        "enumerate_WS: the labels of a kept record",
        "src/resatlas/kacmoody.py",
        "sorted(rec[:-1] for rec in elems[first:end])",
        "sorted(rec[1:] for rec in elems[first:end])",
        (
            "tests/test_kacmoody.py::test_enumerate_ws_equals_the_inversion_set_definition[D4]",
            "tests/test_kacmoody.py::test_kostant_anchor_t334",
        ),
    ),
    Mutant(
        "bgg_euler_check: the Levi's roots are the level-0 part of the supply",
        "src/resatlas/kacmoody.py",
        "not alpha[z1]",
        "alpha[z1] <= 1",
        (
            "tests/test_acceptance.py::test_criterion_06_bgg_euler_d4",
            "tests/test_kacmoody.py::test_bgg_euler_d4",
            "tests/test_catalogue.py::test_every_catalogue_variant_passes_or_hits_the_known_crash",
        ),
    ),
    Mutant(
        "bgg_euler_check: only W^S elements of length <= cutoff get a drop",
        "src/resatlas/kacmoody.py",
        "length <= cutoff",
        "length < cutoff",
        (
            "tests/test_acceptance.py::test_criterion_06_bgg_euler_d4",
            "tests/test_kacmoody.py::test_bgg_euler_d4",
            "tests/test_kacmoody.py::test_the_bgg_check_derives_drops_only_up_to_its_cutoff",
            "tests/test_catalogue.py::test_every_catalogue_variant_passes_or_hits_the_known_crash",
        ),
    ),
    Mutant(
        "exact._sum_products: the degree guard",
        "src/resatlas/exact.py",
        ">= DEGREE_LIMIT",
        "> DEGREE_LIMIT",
        (
            "tests/test_exact.py::test_degree_past_the_field_raises",
            "tests/test_exact.py::test_degree_overflow_raises_under_python_O",
        ),
    ),
    Mutant(
        "exact._mac: the product's sign",
        "src/resatlas/exact.py",
        "ca *= sign",
        "ca *= 1",
        (
            "tests/test_acceptance.py::test_criterion_10_generic_family",
            "tests/test_acceptance.py::test_criterion_13_be_factorization",
            "tests/test_complexes.py::test_thm112_seeded_build",
        ),
    ),
    Mutant(
        "cli.main: bad input exits 2",
        "src/resatlas/cli.py",
        "return 2",
        "return 1",
        (
            "tests/test_cli.py::test_analyze_invalid_exits_2",
            "tests/test_cli.py::test_a_malformed_entry_is_named_and_exits_2[lam-repeated]",
            "tests/test_cli.py::test_suite_unknown_name",
        ),
    ),
    Mutant(
        "cli._parse_lam: a vertex given twice is refused",
        "src/resatlas/cli.py",
        "given.add(name)",
        "given.discard(name)",
        ("tests/test_cli.py::test_a_malformed_entry_is_named_and_exits_2[lam-repeated]",),
    ),
    Mutant(
        "root-counts: the detail string's numbers",
        "src/resatlas/checks.py",
        "positive-root counts 12/36/120",
        "positive-root counts 12/36/121",
        (
            "tests/test_checks.py::test_root_counts_catch_a_dropped_highest_root",
            "tests/test_cli.py::test_fresh_process_suite_json_matches_golden_without_seconds",
            "tests/test_catalogue.py::test_every_catalogue_variant_passes_or_hits_the_known_crash",
        ),
    ),
)


def replay(mutant: Mutant) -> List[str]:
    """The tests of `mutant.fails` that pass with the mutant applied to a
    temporary copy of the repository (none when it is caught)."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        skip = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")
        shutil.copytree(ROOT, copy, ignore=skip)
        path = copy / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.old!r} is not once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.fails],
            cwd=copy, capture_output=True, text=True,
        )
    # pytest -rf ends with one "FAILED <node id> - <message>" per failure.
    failed = {line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")}
    return [test for test in mutant.fails if test not in failed]


def main(argv: List[str]) -> int:
    picked = [int(a) for a in argv] or range(len(MUTANTS))
    survived = 0
    for k in picked:
        mutant = MUTANTS[k]
        passing = replay(mutant)
        survived += bool(passing)
        verdict = f"SURVIVED, passing {passing}" if passing else "caught"
        print(f"{k:2d} {mutant.what}: {verdict}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

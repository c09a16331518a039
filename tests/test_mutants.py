import importlib
from pathlib import PurePosixPath

from mutants import MUTANTS, ROOT


def test_each_mutant_replaces_one_text_and_names_tests_that_exist():
    # The ledger's anchor: replaying is slow (`python tests/mutants.py`), so
    # tier-1 checks only that each mutant still applies to exactly one place
    # in the package and that each test it must fail is still defined.
    assert len(MUTANTS) == len({(m.file, m.old) for m in MUTANTS})
    for m in MUTANTS:
        assert m.file.startswith("src/resatlas/") and m.fails, m
        assert (ROOT / m.file).read_text().count(m.old) == 1, m
        assert m.new != m.old, m
        for test in m.fails:
            path, name = test.split("::")
            module = importlib.import_module(PurePosixPath(path).stem)
            assert callable(getattr(module, name.split("[")[0], None)), (m.what, test)

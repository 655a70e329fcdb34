"""The mutant catalogue of ``tests/mutants.py`` matches the code: each old
text occurs exactly once in its module, so every mutant changes the
program, and each names tests that exist."""

import pytest

from mutants import CATALOGUE, PACKAGE, ROOT


def test_names_are_distinct():
    assert len({m.name for m in CATALOGUE}) == len(CATALOGUE)


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    text = (PACKAGE / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    assert all((ROOT / test.split("::")[0]).is_file() for test in mutant.tests)

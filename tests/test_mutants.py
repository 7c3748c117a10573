"""The mutant catalogue still applies: every fragment occurs exactly once in
its file, and every mutant names an existing test file.  The mutants
themselves run only under `python tests/mutants.py`."""

import pytest

from mutants import MUTANTS, ROOT, mutated


def test_mutant_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_fragment_applies_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert mutated(text, mutant) != text
    assert (ROOT / mutant.killed_by).is_file()

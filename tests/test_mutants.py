"""The mutant list of ``scripts/mutants.py`` stays applicable.

Running the mutants takes minutes, too long for these tests, so this only
checks that each mutant's text occurs exactly once in its file: a mutant
whose text an edit removed would otherwise pass unseen.
"""

from __future__ import annotations

import importlib.util

import pytest

from conftest import REPO_ROOT

# scripts/ is not a package, so the list is loaded by path
_spec = importlib.util.spec_from_file_location("mutants", REPO_ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_text_occurs_once(mutant):
    text = (REPO_ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.text) == 1
    assert mutant.replacement != mutant.text


def test_mutant_names_are_distinct():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)

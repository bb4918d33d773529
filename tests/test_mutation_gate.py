"""The mutation gate's list stays in step with the source it mutates."""

import os

from mutation_gate import MUTANTS, ROOT


def test_every_mutant_snippet_occurs_once_and_its_tests_exist():
    for mutant in MUTANTS:
        with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as f:
            assert f.read().count(mutant.snippet) == 1, mutant.name
        assert mutant.replacement != mutant.snippet, mutant.name
        for path in mutant.tests:
            assert os.path.isfile(os.path.join(ROOT, path)), mutant.name

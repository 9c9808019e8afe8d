"""The hand-made mutants of `mutants.py` still fit the code: each one's old
text occurs once in its file and each test it names exists.  Runs no
mutant and no pytest child, so a stale mutant shows up in the suite and not
only when the mutants are run by hand."""

import re

from mutants import MUTANTS, ROOT


def test_each_mutant_old_text_occurs_once_in_its_file():
    stale = [mutant.name for mutant in MUTANTS
             if (ROOT / "src" / mutant.path).read_text().count(mutant.old) != 1]
    assert stale == []


def test_each_named_test_exists():
    missing = []
    for test_id in sorted({test_id for mutant in MUTANTS
                           for test_id in mutant.tests}):
        path, _, name = test_id.partition("::")
        name = name.split("[")[0]
        test_file = ROOT / path
        if not test_file.is_file() or name and not re.search(
                rf"^def {re.escape(name)}\(", test_file.read_text(),
                re.MULTILINE):
            missing.append(test_id)
    assert missing == []

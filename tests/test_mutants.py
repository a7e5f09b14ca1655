"""The committed mutant list of tools/mutants.py still fits the code:
each mutant's text occurs once in its file and its tests exist.  No
mutant is run here; ``python tools/mutants.py`` runs them."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", _ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_every_listed_mutant_applies_to_the_code():
    listed = mutants.load()
    assert listed
    for m in listed:
        for test in m["tests"]:
            assert (_ROOT / test.split("::")[0]).is_file(), (m["id"], test)

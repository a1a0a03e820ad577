"""The mutant table of scripts/mutants.py: each mutant's text is found
exactly once in its file, so a refactor that moves a mutated line fails
here rather than at the script's next run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_text_is_found_once():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.check_table(ROOT) == []

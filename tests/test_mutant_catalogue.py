"""The mutant catalogue of ``tests/mutants/`` stays applicable.

``python tests/mutants/run.py`` applies each entry of
``tests/mutants/catalogue.json`` to a copy of the tree and runs the tests it
names, which must fail; that is too slow for Tier-1.  This module only
checks that every entry still applies: its old text occurs exactly once in
today's file and the mutated file still compiles, every named test is
defined, and the CHANGES.md phrase it cites is there.  A change that moves
mutated code updates its entries."""

import ast
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENTRIES = json.loads((ROOT / "tests" / "mutants" / "catalogue.json").read_text(encoding="utf-8"))


def _text(lines):
    return "\n".join(lines) + "\n"


def _defined_tests(path: Path) -> set:
    """The test names of a test module: its functions, and Class::method."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names |= {f"{node.name}::{item.name}" for item in node.body if isinstance(item, ast.FunctionDef)}
    return names


def test_the_entries_have_unique_ids_and_every_field():
    assert len({entry["id"] for entry in ENTRIES}) == len(ENTRIES)
    for entry in ENTRIES:
        assert set(entry) == {"id", "file", "old", "new", "tests", "changes"}, entry["id"]
        assert entry["tests"] and entry["old"] != entry["new"], entry["id"]


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["id"] for entry in ENTRIES])
def test_the_entry_applies_to_todays_tree(entry):
    source = (ROOT / entry["file"]).read_text(encoding="utf-8")
    assert source.count(_text(entry["old"])) == 1
    compile(source.replace(_text(entry["old"]), _text(entry["new"])), entry["file"], "exec")
    for node in entry["tests"]:
        module, _, name = node.partition("::")
        assert (ROOT / module).is_file(), node
        if name:
            assert re.sub(r"\[.*\]$", "", name) in _defined_tests(ROOT / module), node
    assert entry["changes"] in (ROOT / "CHANGES.md").read_text(encoding="utf-8")

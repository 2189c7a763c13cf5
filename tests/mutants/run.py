"""Re-run the source mutants of ``catalogue.json`` against the tests that
must catch them.

    python tests/mutants/run.py                 # every entry
    python tests/mutants/run.py <id> [<id> ...] # the named entries

Each entry names a file of the tree, a text that occurs in it exactly once
(``old``, as a list of lines), its replacement (``new``), the pytest node
ids that must fail on the mutant (``tests``) and a phrase of the CHANGES.md
entry the mutant comes from (``changes``).  For each entry the runner copies
the tree (without ``.git`` and the benchmark's outputs) into a temporary
directory, applies the entry there, and runs the named tests with ``-x`` in
a subprocess whose working directory is the copy.  It prints the mutant as
caught, survived or broken (the old text is not there once, or pytest
could not run the tests), with the time, and exits 1 unless every mutant
is caught.  It never writes to the repository tree.  It is not part of the
Tier-1 suite; ``tests/test_mutant_catalogue.py`` keeps the entries fresh.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CATALOGUE = Path(__file__).resolve().with_name("catalogue.json")
CACHES = {"__pycache__", ".hypothesis", ".pytest_cache"}


def skipped(directory: str, names: list[str]) -> list[str]:
    """What the copy leaves out: git, the benchmark's records and outputs, caches."""
    here = Path(directory)
    return [name for name in names if name in CACHES
            or here == ROOT and (name == ".git" or name.startswith("BENCH_"))
            or here == ROOT / "bench" and name == "out"]


def load() -> list[dict]:
    return json.loads(CATALOGUE.read_text(encoding="utf-8"))


def text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def run(entry: dict) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=skipped)
        target = tree / entry["file"]
        source, old = target.read_text(encoding="utf-8"), text(entry["old"])
        if source.count(old) != 1:
            return f"broken (old text occurs {source.count(old)} times)"
        target.write_text(source.replace(old, text(entry["new"])), encoding="utf-8")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *entry["tests"]]
        status = subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode
    return {0: "survived", 1: "caught"}.get(status, f"broken (pytest exit {status})")


def main(ids: list[str]) -> int:
    entries = load()
    unknown = set(ids) - {entry["id"] for entry in entries}
    if unknown:
        sys.exit(f"unknown mutant ids: {', '.join(sorted(unknown))}")
    outcomes = []
    for entry in entries:
        if ids and entry["id"] not in ids:
            continue
        start = time.perf_counter()
        outcomes.append(outcome := run(entry))
        print(f"{entry['id']}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    caught = outcomes.count("caught")
    print(f"{caught} of {len(outcomes)} mutants caught")
    return 0 if caught == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

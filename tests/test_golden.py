"""Byte-for-byte outputs of the demos and of the ``check`` verbs.

The stdout of each demo, of ``quivercoalg check <verb> <input> --json``
for every quiver verb on the 16 corpus quivers and every poset verb on the
13 corpus posets, and of ``quivercoalg paths`` on the corpus quivers and
three families (``PATHS_RUNS``), run in-process through ``cli.main``, must
equal the files under ``tests/golden/``.  So must the stdout of the
product verbs on corpus quivers (``PRODUCT_RUNS``, ``FACTOR_RUNS``), and
of ``check thm33 --json`` at the bounds and cycle lengths of
``THM33_RUNS``, and of ``counterexample --json`` at the windows of
``COUNTEREXAMPLE_RUNS``, and of every ``check`` verb on every family
token of its input kind (``FAMILY_TOKENS``), and of ``rep-locnilp`` in text
and ``--json`` form on the representations of ``REP_RUNS``, each with its
own flags.
The test only reads those files.  After a deliberate output change,
rewrite them with

    PYTHONPATH=src python tests/test_golden.py --rewrite

and review the diff before committing it.
"""

import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

from quivercoalg import cli
from quivercoalg.corpus import ACYCLIC_CORPUS, CYCLIC_CORPUS, POSET_CORPUS, named_poset, named_quiver
from quivercoalg.quiver import FAMILIES, Path as QuiverPath, family_kinds
from quivercoalg.representation import Representation, cycle_quotient_module
from quivercoalg.scalars import QQ
from quivercoalg.textio import poset_to_text, quiver_to_text
from test_work_counts import TAILS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# verb -> the corpus kinds it reads ("coreflexive" reads both).
VERBS = {name: ("quiver", "poset") if kind is None else (kind,) for name, (kind, *_) in cli.CHECKS.items()}
INPUTS = {
    "quiver": [(name, quiver_to_text(named_quiver(name))) for name in ACYCLIC_CORPUS + CYCLIC_CORPUS],
    "poset": [(name, poset_to_text(named_poset(name))) for name in POSET_CORPUS],
}
# (input, --max-len, --json): every corpus quiver at three windows, three
# families, and one text-mode record.
PATHS_RUNS = [(f"quiver:{name}", window, True) for name, _ in INPUTS["quiver"] for window in (0, 3, 6)]
PATHS_RUNS += [(f"family:{token}", 5, True) for token in ("loop", "cycle:3", "multiarrow")]
PATHS_RUNS += [("quiver:two_loops", 3, False)]
# (left, right, left element, right element): ``product --json`` and
# ``alpha`` on each pair; (quiver, element): ``factor-perp --json`` at
# seeds 0 and 1.
PRODUCT_RUNS = [
    ("single_arrow", "single_arrow", "[x]", "[a] + [x]"),
    ("line3", "parallel_pair", "[x.y] - 2*[a]", "[x] + 1/2*[y]"),
    ("diamond", "loop", "[x1.y1] + [x2]", "[x.x]"),
    ("star_out", "cycle2", "[x1]", "[x0.x1]"),
    ("two_loops", "loop_with_tail", "[x.y] - [y.x]", "[x.y]"),
    ("point", "branching", "[a]", "[x.z] + 3*[y]"),
]
FACTOR_RUNS = [
    ("line3", "[a]"),
    ("line4", "[x.y]"),
    ("diamond", "[x1.y1]"),
    ("branching", "[x] + [z]"),
    ("star_in", "[x1]"),
    ("parallel_pair", "[x]"),
]
# (input, --codim-bound): cycle lengths and bounds past the corpus runs
# (bound 10, cycles of length at most 3), and a cycle with two tails.
THM33_RUNS = [("family:cycle:3", 4), ("family:cycle:3", 40), ("family:cycle:5", 10), ("tails", 2), ("tails", 6)]
THM33_RUNS += [("family:cycle:12", 10)]
# (kind, input, --max-len, extra flags): the s-cycles at s, 2s + 1, 12 and
# 24, the 6-cycle at 6 and 13, the cycle with two tails, one run over GF(5)
# and the parallel bundle.
COUNTEREXAMPLE_RUNS = [("cycle", f"family:cycle:{s}", w, []) for s in (1, 2, 3) for w in (s, 2 * s + 1, 12, 24)]
COUNTEREXAMPLE_RUNS += [("cycle", "family:cycle:6", w, []) for w in (6, 13)]
COUNTEREXAMPLE_RUNS += [("cycle", "tails", w, []) for w in (3, 12, 18)]
COUNTEREXAMPLE_RUNS += [("cycle", "family:cycle:3", 12, ["--field", "fp:5"])]
COUNTEREXAMPLE_RUNS += [("multiarrow", None, w, []) for w in (2, 5)]
# Carrier -> the family tokens of ``FAMILIES`` (the cycle at length 2).
FAMILY_TOKENS = {
    carrier: [f"{kind}:2" if FAMILIES[kind].parametrized else kind for kind in family_kinds(carrier)]
    for carrier in ("quiver", "poset")
}
# (name, representation, extra flags): a nilpotent one on line3, the loop
# acting by one, the cycle-quotient module of the 3-cycle, two loops whose
# walk branches (x unipotent, y nilpotent), and the loop acting by 5, which
# is nilpotent over GF(5) only.
REP_RUNS = [
    ("line3-nilpotent", Representation(named_quiver("line3"), {"a": 1, "b": 2, "c": 1},
                                       {"x": ((QQ.one, QQ.of(2)),), "y": ((QQ.one,), (QQ.zero,))}), []),
    ("loop-scalar-one", Representation(named_quiver("loop"), {"v": 1}, {"x": ((QQ.one,),)}), []),
    ("cycle-quotient-3", cycle_quotient_module(3), []),
    ("two-loops-branching", Representation(named_quiver("two_loops"), {"v": 2},
                                           {"x": ((QQ.one, QQ.one), (QQ.zero, QQ.one)),
                                            "y": ((QQ.zero, QQ.one), (QQ.zero, QQ.zero))}), []),
    ("loop-scalar-five", Representation(named_quiver("loop"), {"v": 1}, {"x": ((QQ.of(5),),)}), ["--field", "fp:5"]),
]


def demo_output(demo: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    return out.getvalue()


def check_output(verb: str, directory: Path) -> str:
    """One record per input: a header with the exit code, then stdout."""
    records = []
    for kind in VERBS[verb]:
        for name, text in INPUTS[kind]:
            path = directory / f"{kind}-{name}.txt"
            path.write_text(text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = cli.main(["check", verb, str(path), "--json"])
            records.append(f"$ check {verb} {kind}:{name} --json -> exit {status}\n{out.getvalue()}")
    return "".join(records)


def families_output() -> str:
    """One record per check verb and family token of its input kind: a
    header with the exit code, then stdout."""
    records = []
    for verb in sorted(VERBS):
        for kind in VERBS[verb]:
            for token in FAMILY_TOKENS[kind]:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    status = cli.main(["check", verb, f"family:{token}", "--json"])
                records.append(f"$ check {verb} family:{token} --json -> exit {status}\n{out.getvalue()}")
    return "".join(records)


def rep_text(rep: Representation) -> str:
    """The rep file of ``rep``: a dim line per vertex, a map line per arrow."""
    lines = ["rep"] + [f"dim {v} {rep.dims[v]}" for v in rep.quiver.vertices]
    lines += [f"map {label} " + " ; ".join(" ".join(map(str, row)) for row in m) for label, m in rep.maps.items()]
    return "\n".join(lines) + "\n"


def rep_locnilp_output(directory: Path) -> str:
    """One record per run of ``REP_RUNS``, with its own flags, in text and
    ``--json`` form: a header with the exit code, then stdout."""
    records = []
    for name, rep, extra in REP_RUNS:
        quiver, source = directory / f"quiver-{name}.txt", directory / f"rep-{name}.txt"
        quiver.write_text(quiver_to_text(rep.quiver))
        source.write_text(rep_text(rep))
        for flags in (extra, [*extra, "--json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = cli.main(["rep-locnilp", str(quiver), str(source), *flags])
            records.append(f"$ {' '.join(['rep-locnilp', name, *flags])} -> exit {status}\n{out.getvalue()}")
    return "".join(records)


def paths_output(directory: Path) -> str:
    """One record per run of ``PATHS_RUNS``: a header with the exit code,
    then stdout."""
    texts = dict(INPUTS["quiver"])
    records = []
    for source, window, as_json in PATHS_RUNS:
        if source.startswith("quiver:"):
            name = source[len("quiver:") :]
            target = directory / f"quiver-{name}.txt"
            target.write_text(texts[name])
            target = str(target)
        else:
            target = source
        flags = ["--max-len", str(window)] + ["--json"] * as_json
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(["paths", target, *flags])
        records.append(f"$ paths {source} {' '.join(flags)} -> exit {status}\n{out.getvalue()}")
    return "".join(records)


def products_output(directory: Path) -> str:
    """One record per run of ``PRODUCT_RUNS`` and ``FACTOR_RUNS``: a header
    with the exit code, then stdout."""
    files = {}
    for name, text in INPUTS["quiver"]:
        files[name] = directory / f"quiver-{name}.txt"
        files[name].write_text(text)
    runs = []
    for left, right, left_element, right_element in PRODUCT_RUNS:
        runs.append(["product", left, right, "--json"])
        runs.append(["alpha", left, right, left_element, right_element])
    runs += [["factor-perp", name, element, "--json", "--seed", str(seed)] for name, element in FACTOR_RUNS for seed in (0, 1)]
    records = []
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main([str(files.get(a, a)) for a in argv])
        records.append(f"$ {' '.join(argv)} -> exit {status}\n{out.getvalue()}")
    return "".join(records)


def thm33_output(directory: Path) -> str:
    """One record per run of ``THM33_RUNS``: a header with the exit code,
    then stdout."""
    tails = directory / "quiver-tails.txt"
    tails.write_text(quiver_to_text(TAILS))
    records = []
    for source, bound in THM33_RUNS:
        argv = ["check", "thm33", str(tails) if source == "tails" else source, "--codim-bound", str(bound), "--json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv)
        records.append(f"$ check thm33 {source} --codim-bound {bound} --json -> exit {status}\n{out.getvalue()}")
    return "".join(records)


def counterexample_output(directory: Path) -> str:
    """One record per run of ``COUNTEREXAMPLE_RUNS``: a header with the exit
    code, then stdout."""
    tails = directory / "quiver-tails.txt"
    tails.write_text(quiver_to_text(TAILS))
    records = []
    for kind, source, window, extra in COUNTEREXAMPLE_RUNS:
        inputs = [] if source is None else [str(tails) if source == "tails" else source]
        flags = ["--max-len", str(window), *extra, "--json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(["counterexample", kind, *inputs, *flags])
        shown = " ".join(["counterexample", kind, *([source] if source else []), *flags])
        records.append(f"$ {shown} -> exit {status}\n{out.getvalue()}")
    return "".join(records)


def golden_files(directory: Path) -> dict:
    """Golden file name -> the output it must hold."""
    files = {f"demo-{demo.stem}.txt": demo_output(demo) for demo in DEMOS}
    files.update({f"check-{verb}.txt": check_output(verb, directory) for verb in VERBS})
    files["paths.txt"] = paths_output(directory)
    files["products.txt"] = products_output(directory)
    files["thm33.txt"] = thm33_output(directory)
    files["counterexample.txt"] = counterexample_output(directory)
    files["families.txt"] = families_output()
    files["rep-locnilp.txt"] = rep_locnilp_output(directory)
    return files


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_the_golden_files_are_exactly_these():
    expected = {f"demo-{demo.stem}.txt" for demo in DEMOS} | {f"check-{verb}.txt" for verb in VERBS}
    expected.add("paths.txt")
    expected.add("products.txt")
    expected.add("thm33.txt")
    expected.add("counterexample.txt")
    expected.add("families.txt")
    expected.add("rep-locnilp.txt")
    assert {path.name for path in GOLDEN.iterdir()} == expected


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_stdout_is_unchanged(demo):
    assert demo_output(demo) == golden(f"demo-{demo.stem}.txt")


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_check_stdout_is_unchanged(verb, tmp_path):
    assert check_output(verb, tmp_path) == golden(f"check-{verb}.txt")


def test_paths_stdout_is_unchanged(tmp_path):
    assert paths_output(tmp_path) == golden("paths.txt")


def test_product_verbs_stdout_is_unchanged(tmp_path):
    assert products_output(tmp_path) == golden("products.txt")


def test_thm33_stdout_is_unchanged(tmp_path):
    assert thm33_output(tmp_path) == golden("thm33.txt")


def test_counterexample_stdout_is_unchanged(tmp_path):
    assert counterexample_output(tmp_path) == golden("counterexample.txt")


def test_family_check_stdout_is_unchanged():
    assert families_output() == golden("families.txt")


def test_rep_locnilp_stdout_is_unchanged(tmp_path):
    assert rep_locnilp_output(tmp_path) == golden("rep-locnilp.txt")


def _values(value):
    """``value`` and every key and item inside it, containers first."""
    yield value
    if isinstance(value, QuiverPath):
        return
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _values(item)


def test_no_report_holds_a_path(monkeypatch, tmp_path):
    # A path is a tuple, so ``json.dumps(default=str)`` would write it as an
    # array of its fields, where the text form prints its label: every
    # report of the ``check``, ``counterexample`` and ``rep-locnilp`` runs
    # above holds labels only.
    reports, emit = [], cli._emit

    def recording(report, as_json):
        reports.append(report)
        emit(report, as_json)

    monkeypatch.setattr(cli, "_emit", recording)
    for verb in VERBS:
        check_output(verb, tmp_path)
    families_output()
    for output in (thm33_output, counterexample_output, rep_locnilp_output):
        output(tmp_path)
    assert {report["command"].split("-")[0] for report in reports} == {"check", "counterexample", "rep"}
    assert [(report["command"], value) for report in reports for value in _values(report)
            if isinstance(value, QuiverPath)] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --rewrite")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in golden_files(Path(scratch)).items():
            (GOLDEN / name).write_text(text, encoding="utf-8")

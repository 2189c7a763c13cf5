import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quivercoalg
from quivercoalg import cli, quiver, suites
from quivercoalg.cli import main
from quivercoalg.corpus import named_quiver
from quivercoalg.quiver import FAMILIES, VERDICT_STATUSES, Family, Quiver, family_kinds
from quivercoalg.textio import quiver_to_text
from test_golden import FAMILY_TOKENS, INPUTS, VERBS

LINE = """quiver
vertex a
vertex b
vertex c
arrow x a b
arrow y b c
"""

POSET = """poset
element p
element q
element r
cover p q
cover q r
"""

REP = """rep
dim a 1
dim b 1
dim c 1
map x 1
map y 1
"""


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.txt"
    path.write_text(LINE)
    return str(path)


@pytest.fixture
def poset_file(tmp_path):
    path = tmp_path / "poset.txt"
    path.write_text(POSET)
    return str(path)


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_paths_verb(line_file, capsys):
    status, out, _ = run(capsys, "paths", line_file, "--max-len", "2")
    assert status == 0
    assert "count: 6" in out
    assert "x.y" in out


def test_delta_and_mul(line_file, capsys):
    status, out, _ = run(capsys, "delta", line_file, "[x.y]")
    assert status == 0 and "[x] (x) [y]" in out
    status, out, _ = run(capsys, "mul", line_file, "[x]", "[y]")
    assert status == 0 and "product: [x.y]" in out


def test_check_bialgebra_exit_codes(line_file, capsys, tmp_path):
    status, out, _ = run(capsys, "check", "bialgebra", line_file)
    assert status == 1
    assert "witness" in out
    single = tmp_path / "single.txt"
    single.write_text("quiver\nvertex u\nvertex v\narrow x u v\n")
    status, out, _ = run(capsys, "check", "bialgebra", str(single))
    assert status == 0


def test_check_thm33_family(capsys):
    status, out, _ = run(capsys, "check", "thm33", "family:loop", "--codim-bound", "10")
    assert status == 1
    assert "rule:eval(1)" in out
    assert "no_up_to_bound" in out


def test_check_coreflexive_tensor(line_file, capsys):
    status, out, _ = run(capsys, "check", "coreflexive", line_file, line_file)
    assert status == 0
    assert "tensor rule" in out


def test_rep_locnilp(line_file, tmp_path, capsys):
    rep = tmp_path / "rep.txt"
    rep.write_text(REP)
    status, out, _ = run(capsys, "rep-locnilp", line_file, str(rep))
    assert status == 0
    assert "locally_nilpotent: True" in out
    assert "consistent" in out


def test_rep_locnilp_on_a_long_all_ones_line_is_consistent_at_every_codim_bound(tmp_path, capsys):
    # Dimension 13, and e_v0 survives the path of length 12: a walk bounded
    # by --codim-bound 10 saw it as unkilled and printed "inconsistent".
    vertices = [f"v{i}" for i in range(13)]
    arrows = [f"arrow x{i} v{i} v{i + 1}" for i in range(12)]
    line, rep = tmp_path / "line13.txt", tmp_path / "rep13.txt"
    line.write_text("\n".join(["quiver", *(f"vertex {v}" for v in vertices), *arrows]) + "\n")
    rep.write_text("\n".join(["rep", *(f"dim {v} 1" for v in vertices), *(f"map x{i} 1" for i in range(12))]) + "\n")
    runs = [run(capsys, "rep-locnilp", str(line), str(rep), "--json", "--codim-bound", bound) for bound in ("0", "10", "40")]
    assert runs[0] == runs[1] == runs[2]
    status, out, err = runs[0]
    report = json.loads(out)
    assert (status, err) == (0, "")
    assert report["annihilator_crosscheck"] == "consistent" and report["vanishing_level"] == 13


def test_check_prop41_and_thm42(poset_file, capsys):
    status, out, _ = run(capsys, "check", "prop41", poset_file)
    assert status == 0 and "agreement: True" in out
    status, out, _ = run(capsys, "check", "thm42", poset_file)
    assert status == 0 and "dimension: 6" in out


def test_json_reports_round_trip(line_file, capsys):
    status, out, _ = run(capsys, "check", "bialgebra", line_file, "--json")
    report = json.loads(out)
    assert report["command"] == "check-bialgebra"
    assert report["compatible"] is False
    status, out, _ = run(capsys, "paths", line_file, "--json")
    report = json.loads(out)
    assert report["count"] == 6


def test_reports_are_deterministic(line_file, capsys):
    first = run(capsys, "factor-perp", line_file, "[a]", "--seed", "5")
    second = run(capsys, "factor-perp", line_file, "[a]", "--seed", "5")
    assert first == second
    reseeded = run(capsys, "factor-perp", line_file, "[a]", "--seed", "6")
    assert reseeded != first


@pytest.mark.parametrize("field", ["fp:2", "fp:3"])
def test_factor_perp_draws_denominators_that_are_units_of_the_field(line_file, capsys, field):
    # η's denominators are drawn from 1..3, and again while p divides them:
    # a denominator 0 in GF(p) ended most of these seeds in a traceback.
    for seed in range(8):
        status, out, err = run(capsys, "factor-perp", line_file, "[a]", "--seed", str(seed), "--field", field, "--json")
        assert (status, err) == (0, "")
        assert json.loads(out)["verified"] is True


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("quiver\nvertex a\narrow x a\n")
    status, out, err = run(capsys, "paths", str(bad))
    assert status == 2
    assert "line 3" in err


def test_poset_truncate_level_must_be_an_integer(tmp_path, capsys):
    bad = tmp_path / "bad_poset.txt"
    bad.write_text("family natchain\ntruncate x\n")
    status, _, err = run(capsys, "phi", str(bad), "0", "1")
    assert status == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "body, argv",
    [("family loop\ntruncate -1\n", ["paths"]), ("family natchain\ntruncate -3\n", ["check", "thm42"])],
)
def test_negative_family_truncate_level_exits_2(body, argv, tmp_path, capsys):
    # Quiver and poset family files fail alike: no traceback, no empty poset.
    family = tmp_path / "family.txt"
    family.write_text(body)
    assert run(capsys, *argv, str(family)) == (2, "", "error: line 2: truncate level must be nonnegative\n")


@pytest.mark.parametrize("token", ["family:cycle", "family:cycle:abc", "family:cycle:2:3"])
def test_cycle_token_without_an_integer_length_names_the_form(token, capsys):
    for argv in (["paths", token], ["check", "thm33", token], ["check", "coreflexive", token]):
        assert run(capsys, *argv) == (2, "", "error: cycle family needs a length: cycle:<n>\n")


@pytest.mark.parametrize(
    "body, argv, expected",
    [
        ("quiver\nvertex a\n# a comment\nvertex b\nvertex a\narrow x a b\n", ["paths"],
         "error: line 5: duplicate vertex labels\n"),
        ("quiver\nvertex a\nvertex b\narrow x a b\narrow y b c\n", ["paths"],
         "error: line 5: arrow y has undeclared endpoint\n"),
        ("poset\nelement p\nelement q\ncover p q\ncover q r\n", ["check", "thm42"],
         "error: line 5: relation pair (q,r) uses undeclared elements\n"),
        ("poset\nelement p\nelement q\nelement p\n", ["check", "thm42"], "error: line 4: duplicate poset elements\n"),
        # The second of two arrows with one label.
        ("quiver\nvertex a\narrow x a a\narrow x a a\n", ["paths"], "error: line 4: duplicate arrow labels\n"),
    ],
    ids=["repeated-vertex", "undeclared-endpoint", "undeclared-element", "repeated-element", "repeated-arrow-label"],
)
def test_constructor_errors_name_the_line_of_their_record(body, argv, expected, tmp_path, capsys):
    source = tmp_path / "input.txt"
    source.write_text(body)
    assert run(capsys, *argv, str(source)) == (2, "", expected)


def test_ragged_rep_matrix_exit_code(line_file, tmp_path, capsys):
    rep = tmp_path / "ragged.txt"
    rep.write_text("rep\ndim a 2\ndim b 2\nmap x 1 2 ; 3\n")
    status, _, err = run(capsys, "rep-locnilp", line_file, str(rep))
    assert status == 2
    assert "ragged" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "[x.zz]"],
        ["mul", "[x.zz]", "[y]"],
        ["conv", "dual{[x.zz]:1}", "dual{[x]:1}"],
        ["alpha", "QUIVER", "[x.zz]", "[y]"],
        ["factor-perp", "[x.zz]"],
    ],
)
def test_unknown_arrow_in_a_dotted_path_exit_code(argv, line_file, capsys):
    verb, *rest = argv
    rest = [line_file if a == "QUIVER" else a for a in rest]
    assert run(capsys, verb, line_file, *rest) == (2, "", "error: unknown arrow 'zz'\n")


@pytest.mark.parametrize(
    "left, right, elements, message",
    [
        # ('a', 'b,c') and ('a,b', 'c') are both written (a,b,c).
        ("vertex a\nvertex a,b\n", "vertex b,c\nvertex c\n", ["[a]", "[c]"],
         "two vertex pairs of the product get the label '(a,b,c)'"),
        # The arrow p beside the vertex q,r, and the vertex p,q beside the
        # arrow r, are both written (p,q,r).
        ("vertex a\nvertex p,q\narrow p a a\n", "vertex q,r\nvertex c\narrow r c c\n", ["[a]", "[c]"],
         "two arrow pairs of the product get the label '(p,q,r)'"),
        # The vertex pair (p,q) and r, and the arrow p beside the vertex q,r.
        ("vertex p,q\nvertex s\narrow p s s\n", "vertex r\nvertex q,r\n", ["[s]", "[r]"],
         "label '(p,q,r)' names both a vertex and an arrow"),
    ],
    ids=["vertex-pairs", "arrow-pairs", "vertex-and-arrow"],
)
@pytest.mark.parametrize("verb", ["product", "alpha"])
def test_product_labels_shared_by_two_pairs_exit_2(verb, left, right, elements, message, tmp_path, capsys):
    files = []
    for name, body in (("left", left), ("right", right)):
        files.append(tmp_path / f"{name}.txt")
        files[-1].write_text("quiver\n" + body)
    argv = [verb, *map(str, files)] + elements * (verb == "alpha")
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "body, argv, expected",
    [
        ("vertex a.b\n", ["delta", "[a.b]"], "line 2: bad label 'a.b': a label has no whitespace, '[', ']' or '.'"),
        ("vertex a]b\n", ["delta", "[a]b]"], "line 2: bad label 'a]b': a label has no whitespace, '[', ']' or '.'"),
        ("vertex x\nvertex u\narrow x x u\n", ["mul", "[x]", "[x]"], "line 4: label 'x' names both a vertex and an arrow"),
        ("vertex x\nvertex u\narrow x x u\n", ["paths"], "line 4: label 'x' names both a vertex and an arrow"),
    ],
    ids=["dot", "bracket", "vertex-and-arrow-mul", "vertex-and-arrow-paths"],
)
def test_labels_that_no_element_can_name_exit_2(body, argv, expected, tmp_path, capsys):
    # Each of these files used to build, although its label could not be
    # named in an element expression, or named a vertex and an arrow at once.
    source = tmp_path / "q.txt"
    source.write_text("quiver\n" + body)
    verb, *rest = argv
    assert run(capsys, verb, str(source), *rest) == (2, "", f"error: {expected}\n")


def test_conv_reads_pair_labels_with_commas(tmp_path, capsys):
    # A product quiver's labels are pairs: the comma inside the brackets of
    # a dual{...} entry belongs to the label, not between two entries.
    source = tmp_path / "pairs.txt"
    source.write_text("quiver\nvertex (a,b)\nvertex (c,d)\narrow (x,y) (a,b) (c,d)\n")
    assert run(capsys, "delta", str(source), "[(x,y)]")[0] == 0
    status, out, err = run(capsys, "conv", str(source), "dual{[(x,y)]:1}", "dual{[(c,d)]:1}", "--json")
    assert (status, err) == (0, "")
    assert json.loads(out)["values"] == ["[(x,y)] -> 1"]
    status, out, _ = run(capsys, "conv", str(source), "dual{[(a,b)]:1}", "dual{[(x,y)]:2, [(c,d)]:-1}", "--json")
    assert status == 0 and json.loads(out)["values"] == ["[(x,y)] -> 2"]
    # Without a comma between two entries, the first entry's coefficient
    # does not run on into the next one's brackets.
    assert run(capsys, "conv", str(source), "dual{[(x,y)]:1 [(c,d)]:2}", "rule:gamma") == (
        2, "", "error: expected '[path]:coeff', got '[(x,y)]:1 [(c,d)]:2'\n")


def test_rep_naming_an_unknown_arrow_exit_code(line_file, tmp_path, capsys):
    rep = tmp_path / "unknown.txt"
    rep.write_text(REP + "map q 1\n")
    assert run(capsys, "rep-locnilp", line_file, str(rep)) == (2, "", "error: line 7: unknown arrow 'q'\n")


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("dim a 1\ndim a 2\n", 3, "second 'dim' line for vertex 'a'"),
        ("dim a 1\ndim b 1\nmap x 1\n# again\nmap x 2\n", 6, "second 'map' line for arrow 'x'"),
        ("dim a -1\n", 2, "dimensions must be nonnegative"),
        ("dim a 1\ndim b 1\nmap x 1 2\n", 4, "matrix for x has shape 1x2, expected 1x1"),
        ("map x 1 2 ; 3\ndim a 2\ndim b 2\n", 2, "matrix for x is ragged: its rows differ in length"),
    ],
)
def test_rep_record_errors_name_their_line(body, line, message, line_file, tmp_path, capsys):
    # A repeated dim line used to overwrite the first one, and exit 0; a
    # map is checked against dimensions given after it.
    rep = tmp_path / "rep.txt"
    rep.write_text("rep\n" + body)
    assert run(capsys, "rep-locnilp", line_file, str(rep)) == (2, "", f"error: line {line}: {message}\n")


def test_unknown_suite_exit_code(capsys):
    status, _, err = run(capsys, "suite", "nonsense")
    assert status == 2
    assert "unknown suite" in err


def test_suite_runs(capsys):
    status, out, _ = run(capsys, "suite", "prop32", "--seed", "7")
    assert status == 0
    assert "[PASS]" in out


def test_prop32_check_on_a_long_line_takes_under_a_second(tmp_path, capsys):
    # Both finiteness clauses come down to acyclicity: no walk over the
    # 2^40 vertex subsets of this line.
    line = Quiver([f"v{i}" for i in range(40)], [(f"x{i}", f"v{i}", f"v{i + 1}") for i in range(39)])
    source = tmp_path / "line40.txt"
    source.write_text(quiver_to_text(line))
    start = time.process_time()
    status, out, _ = run(capsys, "check", "prop32", str(source), "--json")
    assert time.process_time() - start < 1
    assert status == 0 and json.loads(out)["shared_value"] is True


def test_counterexample_verbs(capsys):
    status, out, _ = run(capsys, "counterexample", "multiarrow", "--max-len", "5")
    assert status == 0
    assert "codimension: 3" in out
    status, out, _ = run(capsys, "counterexample", "cycle", "family:cycle:2", "--max-len", "8")
    assert status == 0
    assert "codimension: 4" in out


def test_counterexample_multiarrow_rejects_an_input(capsys):
    # The multiarrow ideal lives on its family; a given input is an error,
    # as a missing one is for the cycle kind.
    status, out, err = run(capsys, "counterexample", "multiarrow", "family:cycle:3", "--json")
    assert (status, out) == (2, "")
    assert err == "error: counterexample multiarrow takes no input, got family:cycle:3\n"
    status, _, err = run(capsys, "counterexample", "cycle", "--json")
    assert status == 2 and err == "error: counterexample cycle needs a quiver input\n"


def test_prime_field_flag(line_file, capsys):
    status, out, _ = run(capsys, "mul", line_file, "3*[x]", "5*[y]", "--field", "fp:7")
    assert status == 0
    assert "[x.y]" in out
    status, _, err = run(capsys, "paths", line_file, "--field", "fp:6")
    assert status == 2


def test_family_file_truncate_level_is_honoured(tmp_path, capsys):
    family = tmp_path / "line1.txt"
    family.write_text("family line1\ntruncate 2\n")
    status, out, _ = run(capsys, "paths", str(family), "--max-len", "4", "--json")
    assert status == 0 and json.loads(out)["count"] == 6
    # Without a level in the file, --max-len is the truncation stage.
    family.write_text("family line1\n")
    status, out, _ = run(capsys, "paths", str(family), "--max-len", "4", "--json")
    assert status == 0 and json.loads(out)["count"] == 15


def test_poset_family_file_truncate_level_is_honoured(tmp_path, capsys):
    family = tmp_path / "chain.txt"
    family.write_text("family natchain\ntruncate 2\n")
    status, out, _ = run(capsys, "phi", str(family), "n0", "n2", "--max-len", "5", "--json")
    assert status == 0 and json.loads(out)["hasse_arrows"] == 2
    status, _, err = run(capsys, "phi", str(family), "n0", "n4", "--max-len", "5")
    assert status == 2 and "not an interval" in err


def test_check_rejects_prime_field(line_file, capsys):
    for argv in (["thm33", "family:cycle:2"], ["bialgebra", line_file]):
        status, out, err = run(capsys, "check", *argv, "--field", "fp:7")
        assert status == 2 and out == ""
        assert err.count("\n") == 1 and "fp:7" in err


@pytest.mark.parametrize("suite", ["thm36", "bialgebra"])
def test_suite_output_does_not_depend_on_the_hash_seed(suite):
    src = str(Path(quivercoalg.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "quivercoalg.cli", "suite", suite, "--json", "--seed", "0"],
            env=env,
            capture_output=True,
            check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["passed"] is True


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["counterexample", "cycle", "family:cycle:3", "--max-len", "-1"], "--max-len"),
        (["counterexample", "multiarrow", "--max-len", "-2"], "--max-len"),
        (["paths", "family:loop", "--max-len", "-1"], "--max-len"),
        (["check", "thm33", "family:cycle:3", "--codim-bound", "-1"], "--codim-bound"),
    ],
)
def test_negative_flags_exit_2(argv, flag, capsys):
    status, out, err = run(capsys, *argv)
    assert status == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} must be nonnegative")


# The conv verb on family:loop and family:line1 at --max-len 3:
# finite x finite, finite x rule, rule x finite and rule x rule on each,
# one case over GF(5) and the zero functional.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["family:loop", "dual{[x]:2, [v]:1}", "dual{[x.x]:1/3, [v]:-1}"],
            '{"command": "conv", "left": "dual{[v]:1, [x]:2}", "right": "dual{[v]:-1, [x.x]:1/3}", "values": ["[v] -> -1", "[x] -> -2", "[x.x] -> 1/3", "[x.x.x] -> 2/3"], "window": 3}',
        ),
        (
            ["family:loop", "dual{[x]:2}", "rule:eval(2)"],
            '{"command": "conv", "left": "dual{[x]:2}", "right": "rule:eval(2)", "values": ["[x] -> 2", "[x.x] -> 4", "[x.x.x] -> 8"], "window": 3}',
        ),
        (
            ["family:loop", "rule:gamma", "dual{[x.x]:1/3}"],
            '{"command": "conv", "left": "rule:gamma", "right": "dual{[x.x]:1/3}", "values": ["[x.x] -> 1/3", "[x.x.x] -> 1/3"], "window": 3}',
        ),
        (
            ["family:loop", "rule:gamma", "rule:eval(-1/2)"],
            '{"command": "conv", "left": "rule:gamma", "right": "rule:eval(-1/2)", "values": ["[v] -> 1", "[x] -> 1/2", "[x.x] -> 3/4", "[x.x.x] -> 5/8"], "window": 3}',
        ),
        (
            ["family:line1", "dual{[a0]:2, [v1]:-1}", "dual{[a1]:3}"],
            '{"command": "conv", "left": "dual{[v1]:-1, [a0]:2}", "right": "dual{[a1]:3}", "values": ["[a1] -> -3", "[a0.a1] -> 6"], "window": 3}',
        ),
        (
            ["family:line1", "dual{[v1]:1/2}", "rule:starts-at(v1)"],
            '{"command": "conv", "left": "dual{[v1]:1/2}", "right": "rule:starts-at(v1)", "values": ["[v1] -> 1/2", "[a1] -> 1/2", "[a1.a2] -> 1/2"], "window": 3}',
        ),
        (
            ["family:line1", "rule:starts-at(v0)", "dual{[a1]:-1}"],
            '{"command": "conv", "left": "rule:starts-at(v0)", "right": "dual{[a1]:-1}", "values": ["[a0.a1] -> -1"], "window": 3}',
        ),
        (
            ["family:line1", "rule:starts-at(v0)", "rule:gamma"],
            '{"command": "conv", "left": "rule:starts-at(v0)", "right": "rule:gamma", "values": ["[v0] -> 1", "[a0] -> 2", "[a0.a1] -> 3", "[a0.a1.a2] -> 4"], "window": 3}',
        ),
        (
            ["family:loop", "dual{[x]:3, [v]:1/2}", "rule:eval(2)", "--field", "fp:5"],
            '{"command": "conv", "left": "dual{[v]:3, [x]:3}", "right": "rule:eval(2)", "values": ["[v] -> 3", "[x] -> 4", "[x.x] -> 3", "[x.x.x] -> 1"], "window": 3}',
        ),
        (
            ["family:loop", "dual{}", "rule:gamma"],
            '{"command": "conv", "left": "dual{}", "right": "rule:gamma", "values": [], "window": 3}',
        ),
    ],
    ids=[
        "loop-finite-finite", "loop-finite-rule", "loop-rule-finite", "loop-rule-rule",
        "line1-finite-finite", "line1-finite-rule", "line1-rule-finite", "line1-rule-rule",
        "loop-fp5", "zero-functional",
    ],
)
def test_conv_verb_output_is_pinned(argv, expected, capsys):
    status, out, _ = run(capsys, "conv", *argv, "--max-len", "3", "--json")
    assert status == 0
    assert out.strip() == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (["conv", "family:loop", "rule:eval(1/0)", "rule:gamma"], "zero denominator in '1/0'"),
        (["conv", "family:loop", "dual{[x]:1/0}", "rule:gamma"], "bad coefficient '1/0'"),
        (["mul", "family:loop", "1/0*[x]", "[x]"], "zero denominator in '1/0'"),
        (["delta", "family:loop", "1/5*[x]", "--field", "fp:5"], "'1/5' has no value in GF(5)"),
    ],
    ids=["eval-rule", "dual-coefficient", "element", "prime-field"],
)
def test_zero_denominator_exits_2(argv, message, capsys):
    status, out, err = run(capsys, *argv)
    assert status == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "rule, extra, message",
    [
        ("rule:eval(abc)", [], "bad number 'abc'"),
        ("rule:eval(abc)", ["--field", "fp:5"], "bad number 'abc'"),
        ("rule:eval()", [], "rule:eval needs a scalar argument"),
        ("rule:starts-at()", [], "rule:starts-at needs a vertex argument"),
        ("rule:starts-at(zz)", [], "unknown vertex 'zz'"),
    ],
    ids=["eval-word", "eval-word-fp5", "eval-empty", "starts-at-empty", "starts-at-unknown"],
)
def test_bad_rule_argument_exits_2(rule, extra, message, line_file, capsys):
    status, out, err = run(capsys, "conv", line_file, rule, "rule:gamma", *extra)
    assert status == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("kind", family_kinds("quiver"))
def test_starts_at_on_a_family_needs_a_vertex_of_some_truncation(kind, capsys):
    family = Family(kind, 3 if FAMILIES[kind].parametrized else None)
    token = str(family)
    for vertex in family.truncate(8).vertices:
        status, _, err = run(capsys, "conv", token, f"rule:starts-at({vertex})", "rule:gamma")
        assert status == 0 and err == ""
    for vertex in ["zz"] + (["v-1"] if kind == "line1" else []):
        status, out, err = run(capsys, "conv", token, f"rule:starts-at({vertex})", "rule:gamma")
        assert status == 2 and out == ""
        assert err == f"error: unknown vertex '{vertex}'\n"


@pytest.mark.parametrize("token, vertex", [
    ("family:line1", "v40"),
    ("family:line1", "v" + "9" * 5000),  # past Python's int parsing limit
    ("family:line2", "v-10001"),
    ("family:star51", "b9999"),  # its stage 9999 has about 10^8 arrows
    ("family:cycle:10002", "v10001"),
])
def test_starts_at_on_a_family_accepts_a_vertex_outside_the_window(token, vertex, monkeypatch, capsys):
    # The name is checked without building a stage past the window: every
    # stage is built afresh, none past level 2, and the arrows are counted.
    family = quiver.family_from_token(token.removeprefix("family:"))
    stage_arrows = len(family.facts.build(2, family.param)[1])
    built = []
    monkeypatch.setattr(quiver, "_TRUNCATION_CACHE", {})
    for kind, spec in FAMILIES.items():
        def build(level, param, exact=spec.build):
            assert level <= 2, f"stage {level} built"
            points, links = exact(level, param)
            built.append(len(links))
            return points, links

        monkeypatch.setitem(FAMILIES, kind, dataclasses.replace(spec, build=build))
    status, out, err = run(capsys, "conv", token, f"rule:starts-at({vertex})", "rule:gamma", "--max-len", "2")
    assert status == 0 and err == "" and "values:" in out
    assert 0 < sum(built) <= 2 * stage_arrows


def test_check_thm33_on_two_loops_builds_no_window(tmp_path, capsys):
    # Bound 20 widens the window to 22, where two loops have 2^23 - 1 paths.
    path = tmp_path / "two_loops.txt"
    path.write_text(quiver_to_text(named_quiver("two_loops")))
    status, out, err = run(capsys, "check", "thm33", str(path), "--codim-bound", "20", "--json")
    report = json.loads(out)
    assert status == 1 and err == ""
    assert report["witness_monomial_verdict"] == "no_up_to_bound"
    assert "cofinite ideal of codimension 1)" in report["explanation"]


@pytest.mark.parametrize("entry, field", [("1/0", "q"), ("2/5", "fp:5")])
def test_zero_denominator_in_a_rep_matrix_exits_2(line_file, tmp_path, capsys, entry, field):
    rep = tmp_path / "rep.txt"
    rep.write_text(f"rep\ndim a 1\ndim b 1\nmap x {entry}\n")
    status, out, err = run(capsys, "rep-locnilp", line_file, str(rep), "--field", field)
    assert status == 2 and out == ""
    assert err.startswith("error: line 4: bad matrix entry")


def test_counterexample_window_shorter_than_the_cycle(capsys):
    status, out, err = run(capsys, "counterexample", "cycle", "family:cycle:3", "--max-len", "2")
    assert status == 2 and out == ""
    assert err == "error: window 2 is shorter than the cycle of length 3\n"
    status, out, _ = run(capsys, "counterexample", "cycle", "family:cycle:3", "--max-len", "3", "--json")
    assert status == 0 and json.loads(out)["difference_generators"] == 3


def test_parser_is_built_once_and_commands_are_looked_up_per_call(monkeypatch, capsys):
    assert cli._parser() is cli._parser()
    seen = []
    exact = cli.cmd_paths

    def wrapped(args, field):
        seen.append(args.input)
        return exact(args, field)

    monkeypatch.setattr(cli, "cmd_paths", wrapped)
    status, out, _ = run(capsys, "paths", "family:loop", "--max-len", "2")
    assert status == 0 and seen == ["family:loop"] and "count: 3" in out


@pytest.mark.parametrize("header", ["familyfoo loop", "family_x natchain"])
def test_family_header_with_a_longer_first_word_exits_2(header, tmp_path, capsys):
    path = tmp_path / "family.txt"
    path.write_text(header + "\n")
    for check in ("thm33", "thm43", "coreflexive"):
        status, out, err = run(capsys, "check", check, str(path))
        assert status == 2 and out == ""
        assert err.count("\n") == 1 and "line 1: expected header" in err


def test_phi_diagnostic_does_not_depend_on_the_hash_seed(tmp_path):
    # Covers p < q and q < p: the antisymmetry error names the least pair.
    path = tmp_path / "cyclic-cover.txt"
    path.write_text("poset\nelement p\nelement q\nelement r\ncover p q\ncover q p\ncover q r\n")
    src = str(Path(quivercoalg.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-m", "quivercoalg", "phi", str(path), "p", "q"],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src),
            capture_output=True,
            check=False,
        )
        outputs.append((done.returncode, done.stdout, done.stderr))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 2
    assert outputs[0][2] == b"error: antisymmetry fails: p and q are comparable both ways\n"


def test_python_dash_m_runs_the_cli():
    src = str(Path(quivercoalg.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "quivercoalg", "paths", "family:loop", "--max-len", "2", "--json"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        check=False,
    )
    assert done.returncode == 0
    assert json.loads(done.stdout)["count"] == 3


@pytest.mark.parametrize("token", ["family:bogus", "family:cycle:x", "family:cycle:abc", "family:natchain:3"])
def test_check_coreflexive_bad_family_exits_2(token, line_file, capsys):
    for argv in ([token], [token, line_file], [line_file, token]):
        status, out, err = run(capsys, "check", "coreflexive", *argv)
        assert status == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")


def test_check_statuses_come_from_the_closed_set(line_file, poset_file, tmp_path, capsys):
    cyclic = tmp_path / "cyclic.txt"
    cyclic.write_text("quiver\nvertex a\nvertex b\narrow x a b\narrow y b a\n")
    families = ["family:" + kind for kind in ("loop", "line1", "line2", "cycle:2", "multiarrow", "star51", "star56")]
    quivers = [line_file, str(cyclic)] + families
    runs = [("thm57", q) for q in quivers]
    runs += [("coreflexive", t) for t in quivers + [poset_file, "family:natchain", "family:natantichain"]]
    runs += [("coreflexive", line_file, poset_file), ("coreflexive", "family:line1", "family:star51")]
    seen = set()
    for name, *inputs in runs:
        status, out, _ = run(capsys, "check", name, *inputs, "--json")
        report = json.loads(out)
        assert report["status"] in VERDICT_STATUSES
        assert status == (0 if report["status"] == "yes" else 1)
        seen.add(report["status"])
    assert seen == {"yes", "no", "unknown"}


@pytest.mark.parametrize("kind", ["natchain", "natantichain"])
def test_check_coreflexive_poset_family_file_answers_like_its_token(kind, line_file, tmp_path, capsys):
    path = tmp_path / f"{kind}.txt"
    path.write_text(f"family {kind}\ntruncate 3\n")
    family_file = str(path)
    token = "family:" + kind
    for by_file, by_token in (
        ([family_file], [token]),
        ([family_file, line_file], [token, line_file]),
        ([line_file, family_file], [line_file, token]),
    ):
        status, out, err = run(capsys, "check", "coreflexive", *by_file, "--json")
        assert (status, out, err) == run(capsys, "check", "coreflexive", *by_token, "--json")
        assert status == 0 and err == "" and json.loads(out)["status"] == "yes"


def test_check_coreflexive_one_cycle_token_answers_like_the_one_loop_file(tmp_path, capsys):
    # family:cycle:1 is the one-loop quiver: rule (b), as the same quiver
    # written as a file, and not "outside the rule set".
    path = tmp_path / "one-loop.txt"
    path.write_text("quiver\nvertex v0\narrow x0 v0 v0\n")
    by_token = run(capsys, "check", "coreflexive", "family:cycle:1", "--json")
    assert by_token == run(capsys, "check", "coreflexive", str(path), "--json")
    assert by_token[0] == 0 and json.loads(by_token[1])["status"] == "yes"
    assert json.loads(by_token[1])["chain"][0].startswith("(b) one loop")


QUIVER_CHECKS = ("thm33", "semiperfect", "bialgebra", "prop32", "thm57")
POSET_CHECKS = ("prop41", "thm42", "thm43")


def test_every_check_but_coreflexive_takes_one_input_kind():
    kinds = {name: kind for name, (kind, *_) in cli.CHECKS.items()}
    assert kinds == {**dict.fromkeys(QUIVER_CHECKS, "quiver"), **dict.fromkeys(POSET_CHECKS, "poset"), "coreflexive": None}


@pytest.mark.parametrize("name", [name for name, check in cli.CHECKS.items() if check.kind is not None])
def test_check_of_one_input_kind_refuses_a_second_input(name, line_file, poset_file, capsys):
    first = line_file if cli.CHECKS[name].kind == "quiver" else poset_file
    for second in (line_file, "family:loop"):
        message = f"error: check {name} takes one input, got a second: {second}\n"
        assert run(capsys, "check", name, first, second) == (2, "", message)


@pytest.mark.parametrize(
    "names, wrong, message",
    [
        (QUIVER_CHECKS, "poset_file", "line 1: expected header 'quiver' or 'family <token>'"),
        (QUIVER_CHECKS, "family:natchain", "unknown family kind 'natchain'"),
        (POSET_CHECKS, "line_file", "line 1: expected header 'poset' or 'family <token>'"),
        (POSET_CHECKS, "family:loop", "unknown poset family 'loop'"),
    ],
)
def test_check_of_the_wrong_input_kind_exits_2(names, wrong, message, request, capsys):
    token = wrong if wrong.startswith("family:") else request.getfixturevalue(wrong)
    for name in names:
        assert run(capsys, "check", name, token) == (2, "", f"error: {message}\n")


def test_readme_lists_exactly_the_check_and_suite_names():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

    def listed(verb):
        return tuple(re.search(rf"^quivercoalg {verb} \{{([^}}]*)\}}", readme, re.M).group(1).split("|"))

    assert listed("check") == tuple(cli.CHECKS)
    assert listed("suite") == tuple(suites.SUITES)
    # The family tokens, by carrier, are the kinds of the family table.
    quiver_tokens = re.search(r"with tokens\n`([^`]*)`", readme).group(1).split(" | ")
    poset_tokens = re.search(r"poset inputs are files or `family:\{([^}]*)\}`", readme).group(1).split("|")
    assert quiver_tokens == [f"{kind}:<n>" if FAMILIES[kind].parametrized else kind for kind in family_kinds("quiver")]
    assert poset_tokens == list(family_kinds("poset"))


def _check_sources(kinds, directory):
    """The corpus inputs of the given kinds, written as files, and the
    family tokens of those kinds."""
    sources = []
    for kind in kinds:
        for name, text in INPUTS[kind]:
            path = directory / f"{kind}-{name}.txt"
            path.write_text(text)
            sources.append(str(path))
        sources += [f"family:{token}" for token in FAMILY_TOKENS[kind]]
    return sources


def test_prop32_shared_value_is_thm33_recovered(tmp_path, capsys):
    # Both read the recovery condition of Thm 3.3: no oriented cycle and
    # finitely many arrows between any two vertices.
    for source in _check_sources(["quiver"], tmp_path):
        answers = [json.loads(run(capsys, "check", name, source, "--json")[1]) for name in ("prop32", "thm33")]
        assert answers[0]["shared_value"] == answers[1]["recovered"], source


def test_only_prop32_is_declared_always_passing():
    assert [name for name, check in cli.CHECKS.items() if check.always_passes] == ["prop32"]


@pytest.mark.parametrize("name", list(cli.CHECKS))
def test_check_exit_code_follows_the_verdict_status(name, tmp_path, monkeypatch, capsys):
    # The verdict function is wrapped under its name in the cli module,
    # where the row looks it up: each run's verdict is seen, and the run
    # prints exactly its data and exits 0 exactly when the verdict is true
    # (yes or yes_up_to_bound), except on the always-passing prop32.
    check = cli.CHECKS[name]
    exact, seen = getattr(cli, check.verdict), []

    def recording(*args, **kwargs):
        seen.append(exact(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, check.verdict, recording)
    outcomes = set()
    for source in _check_sources(VERBS[name], tmp_path):
        status, out, _ = run(capsys, "check", name, source, "--json")
        (verdict,) = seen
        seen.clear()
        assert json.loads(out) == json.loads(json.dumps({"command": f"check-{name}", **verdict.data}, default=str))
        assert status == (0 if name == "prop32" or verdict else 1), source
        outcomes.add(bool(verdict))
    # Every row but prop41 and thm42 meets a no on these inputs.
    assert outcomes == ({True} if name in ("thm42", "prop41") else {True, False})

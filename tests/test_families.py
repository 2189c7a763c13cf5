"""The family table: every closed-form fact against bounded evidence on
truncations, and no kind-name dispatch outside the table's module.

The evidence is read off three truncation levels L < 2L < 3L with
``enumerate_paths``, never off the table: a count that stays put at every
level is evidence of a finite fact, a count that grows strictly is evidence
of an infinite one, and anything else fails as inconclusive.  A poset
family is read through its Hasse quiver.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import pytest

from quivercoalg.incidence import Poset, hasse_quiver
from quivercoalg.quiver import FAMILIES, Family, Quiver, enumerate_paths, is_acyclic

LEVELS = (2, 4, 6)
FACTS = ("carrier", "acyclic", "finite_arrows", "finite_paths", "semiperfect", "rule")
SAMPLES = [Family(kind) for kind, spec in FAMILIES.items() if not spec.parametrized]
SAMPLES += [Family(kind, n) for kind, spec in FAMILIES.items() if spec.parametrized for n in (1, 2, 3)]
SRC = Path(__file__).resolve().parent.parent / "src" / "quivercoalg"


def _stages(family):
    """(quiver, paths within the window) at each level; the window covers
    every path of an acyclic stage and grows with the level on a cyclic one."""
    for level in LEVELS:
        stage = family.truncate(level)
        quiver = hasse_quiver(stage) if isinstance(stage, Poset) else stage
        yield quiver, enumerate_paths(quiver, max(level, len(quiver.vertices) - 1)).paths


def _arrows_between(quiver, paths):
    return Counter((a.source, a.target) for a in quiver.arrows)


def _paths_between(quiver, paths):
    return Counter((p.source, p.target) for p in paths)


def _paths_at_each_vertex(quiver, paths):
    return Counter([("from", p.source) for p in paths] + [("to", p.target) for p in paths])


def _bounded(family, count) -> bool:
    """True when every count on the first stage's vertices is the same at
    all levels, False when one of them grows strictly."""
    stages = [(quiver, count(quiver, paths)) for quiver, paths in _stages(family)]
    vertices = stages[0][0].vertices
    keys = [(u, v) for u in vertices for v in vertices] + [(d, v) for d in ("from", "to") for v in vertices]
    series = [[counts[key] for _, counts in stages] for key in keys]
    if all(len(set(values)) == 1 for values in series):
        return True
    if any(a < b < c for a, b, c in series):
        return False
    raise AssertionError(f"inconclusive evidence on {family}: {series}")


def _rule(family):
    """The coreflexivity rule the truncations support: (b) one vertex with
    one loop, (c) finitely many paths between any two vertices, (d) finitely
    many arrows between any two vertices but parallel bundles that grow."""
    quivers = [quiver for quiver, _ in _stages(family)]
    if all(len(q.vertices) == 1 and len(q.arrows) == 1 for q in quivers):
        return "b"
    if _bounded(family, _paths_between):
        return "c"
    bundles = [max(Counter((a.source, a.target) for a in q.arrows).values(), default=0) for q in quivers]
    if _bounded(family, _arrows_between) and bundles[0] < bundles[1] < bundles[2]:
        return "d"
    return None


def _acyclic(family):
    verdicts = {is_acyclic(quiver) for quiver, _ in _stages(family)}
    assert len(verdicts) == 1, f"acyclicity changes with the level on {family}"
    return verdicts.pop()


EVIDENCE = {
    "carrier": lambda family: {Quiver: "quiver", Poset: "poset"}[type(family.truncate(LEVELS[0]))],
    "acyclic": _acyclic,
    "finite_arrows": lambda family: _bounded(family, _arrows_between),
    "finite_paths": lambda family: _bounded(family, _paths_between),
    "semiperfect": lambda family: _bounded(family, _paths_at_each_vertex),
    "rule": _rule,
}


def _mismatches(table, families):
    """(fact, table value at the family's parameter) for every fact of
    ``table`` that the evidence on the families contradicts."""
    return [
        (fact, getattr(table[family.kind].at(family.param), fact))
        for family in families
        for fact in FACTS
        if getattr(table[family.kind].at(family.param), fact) != EVIDENCE[fact](family)
    ]


@pytest.mark.parametrize("fact", FACTS)
@pytest.mark.parametrize("family", SAMPLES, ids=str)
def test_table_fact_agrees_with_the_truncations(family, fact):
    assert getattr(family.facts, fact) == EVIDENCE[fact](family)


def _wrong_values(fact, value):
    if fact == "carrier":
        return [{"quiver": "poset", "poset": "quiver"}[value]]
    if fact == "rule":
        return [rule for rule in ("b", "c", "d", None) if rule != value]
    return [not value]


MUTANTS = [
    pytest.param(kind, fact, wrong, id=f"{kind}-{fact}-{wrong}")
    for kind, spec in FAMILIES.items()
    for fact in FACTS
    for wrong in _wrong_values(fact, getattr(spec, fact))
]


@pytest.mark.parametrize("kind, fact, wrong", MUTANTS)
def test_cross_check_fails_on_a_table_with_one_wrong_fact(kind, fact, wrong):
    # A sample whose rule ``rules`` overrides keeps it under a wrong
    # ``rule``; every other sample of the kind must report the wrong fact.
    table = dict(FAMILIES)
    table[kind] = dataclasses.replace(FAMILIES[kind], **{fact: wrong})
    samples = [family for family in SAMPLES if family.kind == kind]
    changed = [f for f in samples if getattr(table[kind].at(f.param), fact) != getattr(f.facts, fact)]
    assert changed and _mismatches(table, changed) == [(fact, wrong)] * len(changed)
    assert _mismatches(table, [f for f in samples if f not in changed]) == []


OVERRIDES = [
    pytest.param(kind, param, wrong, id=f"{kind}:{param}-rule-{wrong}")
    for kind, spec in FAMILIES.items()
    for param, rule in spec.rules
    for wrong in _wrong_values("rule", rule)
]


@pytest.mark.parametrize("kind, param, wrong", OVERRIDES)
def test_cross_check_fails_on_a_wrong_rule_at_one_parameter(kind, param, wrong):
    table = dict(FAMILIES)
    table[kind] = dataclasses.replace(FAMILIES[kind], rules=((param, wrong),))
    families = [family for family in SAMPLES if family.kind == kind]
    assert _mismatches(table, families) == [("rule", wrong)]


@pytest.mark.parametrize("family", SAMPLES, ids=str)
def test_has_vertex_agrees_with_the_stages(family):
    # The closed-form name check against the built stages: a name whose
    # integer is at most 8 is a vertex of some stage exactly when it is one
    # of the stages 0-8.  The names tried are every vertex of stage 8 of
    # every family, plus near misses.
    stages = {name for level in range(9) for name in family.facts.build(level, family.param)[0]}
    names = {name for other in SAMPLES for name in other.facts.build(8, other.param)[0]}
    names |= {"zz", "", "v-0", "v01", "v+1", "v1_2", "b0", "b-1", "n-1", "n01", "x0", "V1", " v1", "v1\n", "v1١"}
    assert {name for name in names if family.has_vertex(name)} == stages & names
    assert stages <= names


@pytest.mark.parametrize("kind", ["loop", "natchain"])
def test_truncate_rejects_a_negative_level_for_either_carrier(kind):
    with pytest.raises(ValueError, match="nonnegative"):
        Family(kind).truncate(-1)


def _kind_name_comparisons(source: str, kinds) -> list:
    """Line numbers where an attribute ``.kind`` is compared with a family
    kind name, or with a tuple, list or set holding one."""

    def names_a_kind(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(names_a_kind(e) for e in node.elts)
        return isinstance(node, ast.Constant) and node.value in kinds

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "kind" for o in operands) and any(
                names_a_kind(o) for o in operands
            ):
                lines.append(node.lineno)
    return lines


def test_no_module_but_the_tables_compares_a_family_kind_with_a_kind_name():
    kinds = set(FAMILIES)
    # The scan finds the shapes it forbids.
    probe = 'if f.kind == "loop": pass\nif f.kind in ("line1", "x"): pass\nif "star51" != t.kind: pass\n'
    assert _kind_name_comparisons(probe, kinds) == [1, 2, 3]
    assert _kind_name_comparisons('if f.rule.kind == "eval": pass\nif kind == "cycle": pass\n', kinds) == []
    offenders = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if path.name != "quiver.py" and (lines := _kind_name_comparisons(path.read_text(encoding="utf-8"), kinds))
    }
    assert offenders == {}

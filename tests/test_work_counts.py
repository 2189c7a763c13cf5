"""Work counts of the acceptance checks, of the ``paths`` verb, of sparse
elimination and of the cycle and poset certificates, taken by wrapping library functions during one call: a regression that rebuilds per
row what a check builds once per call shows up as a count, without timing
anything."""

import inspect
import json
import random
import sys
from collections import Counter

import pytest

from quivercoalg import algebra, cli, dual, finite_dual, incidence, linalg, products, quiver, representation, suites
from quivercoalg.corpus import named_poset, named_quiver
from quivercoalg.scalars import QQ
from quivercoalg.quiver import Quiver
from quivercoalg.textio import quiver_to_text


def _count_calls(monkeypatch, calls, owner, name):
    """Count the calls of ``owner.name`` (a module function, a method or a
    static method) under its name in ``calls``."""
    exact = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return exact(*args, **kwargs)

    static = isinstance(inspect.getattr_static(owner, name), staticmethod)
    monkeypatch.setattr(owner, name, staticmethod(counting) if static else counting)


def test_rational_part_convolves_nothing(monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, calls, dual, "convolve")
    _count_calls(monkeypatch, calls, dual.RationalCertificate, "verify")
    # The dimension guard compares path counts; it ranks nothing, under any
    # module's name for ``linalg.rank``.
    for module in [m for name, m in sys.modules.items() if name.startswith("quivercoalg") and getattr(m, "rank", None) is linalg.rank]:
        _count_calls(monkeypatch, calls, module, "rank")
    assert suites.check_rational_part()
    assert calls == {"verify": 53}


def test_semiperfect_check_verifies_one_certificate_per_interval(monkeypatch):
    # The poset certificates are the rational-part certificates of the
    # dual-basis functionals: one verify each, and no pair of intervals
    # convolved.
    calls = Counter()
    _count_calls(monkeypatch, calls, incidence.Poset, "compose")
    _count_calls(monkeypatch, calls, dual.RationalCertificate, "verify")
    assert len(incidence.incidence_semiperfect_check(named_poset("chain5")).witness) == 15
    assert calls == {"verify": 15}


def test_unique_path_embedding_enumerates_each_hasse_window_once(monkeypatch):
    calls = Counter()
    # ``_paths_between`` reads each window through ``Quiver.basis``.
    _count_calls(monkeypatch, calls, quiver, "enumerate_paths")
    assert suites.check_unique_path_embedding().details == {"posets": 87}
    assert calls == {"enumerate_paths": 87}


def test_paths_verb_builds_no_path(monkeypatch, tmp_path, capsys):
    source = tmp_path / "two_loops.txt"
    source.write_text(quiver_to_text(named_quiver("two_loops")))
    calls = Counter()
    for module in (cli, quiver):
        _count_calls(monkeypatch, calls, module, "enumerate_paths")
    _count_calls(monkeypatch, calls, quiver.Path, "__new__")
    assert cli.main(["paths", str(source), "--max-len", "12", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2**13 - 1
    assert calls == {}


def test_walk_embedding_builds_each_shape_once_per_product(monkeypatch):
    # The check makes one alpha table per product quiver and reads its rows
    # before it makes the next, so the number of tables made so far names
    # the product.  Its own count loop and round trips reach lattice_walks
    # through the suites namespace, which stays unwrapped.
    tables, builds = [], Counter()
    alpha_table, lattice_walks = products.alpha_table, products.lattice_walks

    def counting_table(product):
        tables.append(product)
        return alpha_table(product)

    def counting_walks(n, k):
        builds[len(tables), n, k] += 1
        return lattice_walks(n, k)

    monkeypatch.setattr(suites, "alpha_table", counting_table)
    monkeypatch.setattr(products, "lattice_walks", counting_walks)
    assert suites.check_walk_embedding(0)
    assert len(tables) == 100
    assert max(builds.values()) == 1 and sum(builds.values()) == 521


def benchmark_system(n, field=QQ, signs=None):
    """The 6-sparse n x 3n system of the finite-dual benchmark: the pattern
    and the magnitudes (1 to 3) drawn from random.Random(n), each row's sign
    from the generator ``signs``, or + without one."""
    shape, rows = random.Random(n), []
    for _ in range(n):
        columns, sign = shape.sample(range(3 * n), 6), signs.choice((-1, 1)) if signs else 1
        rows.append(linalg.SparseVector({c: field.of(sign * shape.randint(1, 3)) for c in columns}))
    return rows


def test_peeled_systems_reach_no_elimination(monkeypatch):
    # The 6-sparse 100 x 300 system of the finite-dual benchmark: every row
    # is peeled (it alone holds a column once the rows peeled before it are
    # gone), so neither call hands a row to the elimination.
    rows = benchmark_system(100)
    handed = Counter()
    exact = linalg._echelon

    def counting(echelon_rows, *args):
        echelon_rows = list(echelon_rows)
        handed["rows"] += len(echelon_rows)
        return exact(echelon_rows, *args)

    monkeypatch.setattr(linalg, "_echelon", counting)
    assert linalg.rank(rows) == 100
    assert linalg.kernel_of_map(range(100), rows.__getitem__) == []
    assert handed == {"rows": 0}


def test_rref_divides_out_the_content_once_per_reduction(monkeypatch):
    # rref on the 100 x 300 system makes each input row primitive once and
    # each reduced row once, when its reduction ends: 100 reductions as rows
    # enter the echelon and 100 in back-substitution.  Each of the 232 pivot
    # steps cancels gcd(a, b) of its two leads.  Rows enter largest lead
    # first; fed in input order, they take 379 steps.
    rows = benchmark_system(100)
    calls = Counter()
    for name in ("_primitive", "_reduce", "gcd"):
        _count_calls(monkeypatch, calls, linalg, name)
    assert len(linalg.rref(rows)) == 100
    assert calls["_primitive"] == len(rows) + calls["_reduce"]
    assert calls == {"_primitive": 300, "_reduce": 200, "gcd": 300 + 232}


# A 3-cycle with a tail leaving each of two of its vertices.
TAILS = Quiver(["c0", "c1", "c2", "t0", "t1"],
                [("x", "c0", "c1"), ("y", "c1", "c2"), ("z", "c2", "c0"), ("s", "c0", "t0"), ("t", "c1", "t1")])


@pytest.mark.parametrize(
    "argv, status, composed",
    [
        # thm33 composes only the one-arrow exits of the winding paths that
        # it re-checks, and every arrow of the 3-cycle lies on the cycle.
        (["check", "thm33", "family:cycle:3", "--codim-bound", "10"], 1, 0),
        # The counterexample is certified as the annihilator of a module:
        # it forms no product of paths.
        (["counterexample", "cycle", "family:cycle:3", "--max-len", "24"], 0, 0),
        # Window 24: each tail arrow is an exit after the 24 winding paths
        # of length <= 23 that end at its source, 8 starting at each cycle vertex,
        # and no winding path starts at a tail.
        (["check", "thm33", "TAILS", "--codim-bound", "6"], 1, 2 * 24),
    ],
    ids=["thm33-cycle3", "counterexample-cycle3", "thm33-tails"],
)
def test_cycle_certificate_composes_only_where_endpoints_meet(monkeypatch, tmp_path, capsys, argv, status, composed):
    source = tmp_path / "tails.txt"
    source.write_text(quiver_to_text(TAILS))
    calls = Counter()
    for module in (algebra, finite_dual):
        _count_calls(monkeypatch, calls, module, "compose_paths")
    # thm33 exits 1: the coordinate embedding does not recover the cycle.
    assert cli.main([str(source) if a == "TAILS" else a for a in argv] + ["--json"]) == status
    capsys.readouterr()
    assert calls["compose_paths"] == composed


def _module_sizes(monkeypatch) -> list:
    """The total dimension of each representation a ``PathAction`` is
    built on, in order."""
    sizes, exact = [], representation.PathAction.__init__

    def recording(self, rep, *args, **kwargs):
        sizes.append(rep.total_dimension())
        exact(self, rep, *args, **kwargs)

    monkeypatch.setattr(representation.PathAction, "__init__", recording)
    return sizes


@pytest.mark.parametrize("bound", [4, 10, 40])
def test_thm33_certificate_work_does_not_depend_on_the_bound(monkeypatch, capsys, bound):
    # The Krylov closure of the 3-cycle's module M1, of dimension one per
    # cycle vertex: its 9 basis paths (the winding paths of length < 3)
    # each meet the one arrow that leaves their target, so 9 arrow products
    # at every bound; no windowed ideal.
    calls, sizes = Counter(), _module_sizes(monkeypatch)
    _count_calls(monkeypatch, calls, representation, "_block_product")
    for name in ("build_cycle_counterexample", "difference_rank"):
        _count_calls(monkeypatch, calls, algebra, name)
    _count_calls(monkeypatch, calls, linalg, "difference_rank")
    assert cli.main(["check", "thm33", "family:cycle:3", "--codim-bound", str(bound), "--json"]) == 1
    assert "codimension 9)" in json.loads(capsys.readouterr().out)["explanation"]
    assert calls == {"_block_product": 9}
    assert sizes == [3]


@pytest.mark.parametrize("window", [12, 18, 24])
def test_counterexample_certificate_work_does_not_depend_on_the_window(monkeypatch, capsys, window):
    # Ann(M1) of the 3-cycle's module, of dimension 3, is the same Krylov
    # closure at every window: 9 arrow products.  Along the winding paths
    # M1 is formed once per distinct matrix, and the differences are ranked
    # once.
    calls, sizes = Counter(), _module_sizes(monkeypatch)
    _count_calls(monkeypatch, calls, representation, "_block_product")
    _count_calls(monkeypatch, calls, algebra, "difference_rank")
    assert cli.main(["counterexample", "cycle", "family:cycle:3", "--max-len", str(window), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["codimension"] == 9
    assert calls == {"_block_product": 9, "difference_rank": 1}
    assert sizes == [3]
    # The product table and its closure check are gone.
    assert not {"check_ideal", "_generator_rows", "_check_difference_ideal"} & set(vars(algebra))


@pytest.mark.parametrize("argv", [
    ["check", "thm33", "family:cycle:3", "--codim-bound", "10"],
    ["check", "thm33", "TAILS", "--codim-bound", "6"],
    ["counterexample", "cycle", "family:cycle:3", "--max-len", "24"],
    ["counterexample", "cycle", "TAILS", "--max-len", "18"],
], ids=["thm33-cycle3", "thm33-tails", "counterexample-cycle3", "counterexample-tails"])
def test_ann_certificates_convert_once_and_form_each_product_once(monkeypatch, tmp_path, capsys, argv):
    # The module is converted to integers once per call, and the kernel
    # forms each product of a distinct path matrix and an arrow once,
    # whether the certificate's walk along W or the Krylov closure asks.
    source = tmp_path / "tails.txt"
    source.write_text(quiver_to_text(TAILS))
    calls, pairs = Counter(), Counter()
    for module in (linalg, representation):
        _count_calls(monkeypatch, calls, module, "integer_matrices")
    exact = representation._block_product

    def recording(left, right, p):
        pairs[frozenset((r, c, n) for r, cols in left.items() for c, n in cols.items()), id(right)] += 1
        return exact(left, right, p)

    monkeypatch.setattr(representation, "_block_product", recording)
    cli.main([str(source) if a == "TAILS" else a for a in argv] + ["--json"])
    capsys.readouterr()
    assert calls == {"integer_matrices": 1}
    assert max(pairs.values()) == 1
    # The 3-cycle: 9 path matrices, each met by the one arrow leaving its
    # target.  The tails: 6 of them end where a tail arrow leaves as well.
    assert sum(pairs.values()) == (15 if "TAILS" in argv else 9)


def test_rep_locnilp_builds_one_kernel_for_all_basis_vectors(monkeypatch, tmp_path, capsys):
    # The 13-vertex all-ones line: one PathAction for the nilpotence chain
    # and one shared by the 13 basis vectors of the cross-check.  The
    # cycle-quotient suite check builds the same two per module, n = 1, 2, 3.
    vertices = [f"v{i}" for i in range(13)]
    line, rep = tmp_path / "line13.txt", tmp_path / "rep13.txt"
    line.write_text("\n".join(["quiver", *(f"vertex {v}" for v in vertices),
                               *(f"arrow x{i} v{i} v{i + 1}" for i in range(12))]) + "\n")
    rep.write_text("\n".join(["rep", *(f"dim {v} 1" for v in vertices), *(f"map x{i} 1" for i in range(12))]) + "\n")
    calls = Counter()
    _count_calls(monkeypatch, calls, representation.PathAction, "__init__")
    assert cli.main(["rep-locnilp", str(line), str(rep), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["annihilator_crosscheck"] == "consistent"
    assert calls == {"__init__": 2}
    calls.clear()
    assert suites.check_cycle_quotient()
    assert calls == {"__init__": 6}


def test_counterexample_builds_each_winding_path_once(monkeypatch, capsys):
    # W is read by arrow word.  The |W| = 3(w + 1) winding paths are built
    # once each; besides them, the vertex and arrow paths (6) for the module
    # check and again for the monomial generators, and the 9 Krylov basis
    # paths.  No path equality is asked more often at a wider window.
    equalities = set()
    for window in (12, 18, 24):
        calls = Counter()
        with monkeypatch.context() as patched:
            for name in ("__new__", "__eq__"):
                _count_calls(patched, calls, quiver.Path, name)
            assert cli.main(["counterexample", "cycle", "family:cycle:3", "--max-len", str(window), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["codimension"] == 9
        assert calls["__new__"] <= 3 * (window + 1) + 21
        equalities.add(calls["__eq__"])
    assert len(equalities) == 1


def test_incidence_recovery_transposes_the_algebra_once(monkeypatch):
    # The law check that builds the FIA and the recovery check read one
    # transposed table, StructuredAlgebra.dual().
    calls = Counter()
    _count_calls(monkeypatch, calls, finite_dual.DualCoalgebra, "__init__")
    assert incidence.incidence_dual_recovery_check(named_poset("chain4"))
    assert calls == {"__init__": 1}


def test_maximal_ideal_reads_its_span_in_one_pass(monkeypatch):
    # The closure's span is transposed into columns over its entries: no
    # coefficient is looked up per (label, span vector) pair.
    chain = named_poset("chain5")
    fia = incidence.fia_structured_algebra(chain)
    f = linalg.SparseVector({b: QQ.one for b in [(x, x) for x in chain.elements] + chain.covers()})
    calls = Counter()
    _count_calls(monkeypatch, calls, linalg.SparseVector, "coeff")
    assert len(finite_dual.maximal_ideal_in_kernel(fia, f)) == 6
    assert calls == {}

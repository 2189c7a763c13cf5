"""Work counts of the acceptance checks and of the ``paths`` verb, taken by
wrapping library functions during one call: a regression that rebuilds per
row what a check builds once per call shows up as a count, without timing
anything."""

import json
from collections import Counter

from quivercoalg import cli, dual, incidence, products, quiver, suites
from quivercoalg.corpus import named_quiver
from quivercoalg.textio import quiver_to_text


def _count_calls(monkeypatch, calls, owner, name):
    """Count the calls of ``owner.name`` (a module function or a method)
    under its name in ``calls``."""
    exact = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return exact(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_rational_part_convolves_nothing(monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, calls, dual, "convolve")
    _count_calls(monkeypatch, calls, dual.RationalCertificate, "verify")
    # The dimension guard compares path counts; it ranks nothing.
    _count_calls(monkeypatch, calls, suites, "rank")
    assert suites.check_rational_part()
    assert calls == {"verify": 53}


def test_unique_path_embedding_enumerates_each_hasse_window_once(monkeypatch):
    calls = Counter()
    for module in (suites, incidence):
        _count_calls(monkeypatch, calls, module, "enumerate_paths")
    assert suites.check_unique_path_embedding().details == {"posets": 87}
    assert calls == {"enumerate_paths": 87}


def test_paths_verb_builds_no_path(monkeypatch, tmp_path, capsys):
    source = tmp_path / "two_loops.txt"
    source.write_text(quiver_to_text(named_quiver("two_loops")))
    calls = Counter()
    for module in (cli, quiver):
        _count_calls(monkeypatch, calls, module, "enumerate_paths")
    _count_calls(monkeypatch, calls, quiver.Path, "__init__")
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

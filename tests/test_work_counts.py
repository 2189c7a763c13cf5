"""Work counts of the acceptance checks, taken by wrapping library functions
during one call of a check: a regression that rebuilds per row what the
check builds once per call shows up as a count, without timing anything."""

from collections import Counter

from quivercoalg import dual, products, suites


def test_rational_part_convolves_nothing(monkeypatch):
    calls = Counter()
    convolve, verify = dual.convolve, dual.RationalCertificate.verify

    def counting_convolve(*args):
        calls["convolve"] += 1
        return convolve(*args)

    def counting_verify(self, *args):
        calls["verify"] += 1
        return verify(self, *args)

    monkeypatch.setattr(dual, "convolve", counting_convolve)
    monkeypatch.setattr(dual.RationalCertificate, "verify", counting_verify)
    assert suites.check_rational_part()
    assert calls == {"verify": 53}


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

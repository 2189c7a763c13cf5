"""Acceptance gate: every criterion below must pass exactly (exact
arithmetic, zero tolerance).  One printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import pytest

from quivercoalg import suites

# Criterion -> the checks that implement it.
CRITERIA = (
    ("01-coalgebra-axioms", (suites.check_coalgebra_axioms,)),
    ("02-bialgebra-criterion", (suites.check_bialgebra_criterion,)),
    ("03-finite-dual-recovery", (suites.check_theta_image, suites.check_recovery_clauses, suites.check_theta_recovery)),
    ("04-counterexample-ideals", (suites.check_counterexample_ideals,)),
    ("05-rational-part", (suites.check_rational_part,)),
    ("06-unique-path-embedding", (suites.check_unique_path_embedding,)),
    ("07-incidence-duality", (suites.check_incidence_recovery, suites.check_incidence_rational_part)),
    ("08-walk-embedding", (suites.check_walk_embedding,)),
    ("09-perp-factorization", (suites.check_perp_factorization,)),
    ("10-star-factorization", (suites.check_star_factorization,)),
    ("11-cycle-quotient", (suites.check_cycle_quotient,)),
    ("12-dual-coalgebra-axioms", (suites.check_dual_coalgebra_axioms,)),
    ("13-reflexivity-closure", (suites.check_reflexivity_closure,)),
)

SEED = 0


@pytest.mark.parametrize("criterion,checks", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(criterion, checks):
    reports = []
    for check in checks:
        if "seed" in check.__code__.co_varnames:
            reports.append(check(SEED))
        else:
            reports.append(check())
    passed = all(r.passed for r in reports)
    status = "PASS" if passed else "FAIL"
    detail = "; ".join(r.summary_line() for r in reports)
    print(f"[{status}] criterion {criterion}: {detail}")
    assert passed, detail


def test_every_acceptance_check_has_a_suite_name():
    # ``quivercoalg suite <name>`` can run each check the gate runs.
    named = {check for checks in suites.SUITES.values() for check in checks}
    assert [check.__name__ for check in suites.ALL_CHECKS if check not in named] == []

"""The benchmark workloads.

A workload turns a seed into one *pass*: a fixed list of operations that
the runner repeats in a closed loop with one caller.  Every operation has a
kind, a size parameter (codimension bound, window, chain length, system
size, ...), a call that does the work and a check that validates the
answer.  The runner times only the call; checks run outside the timed
region.

The seed changes values (labels, signs, operation order) but never the
shape, size, sparsity pattern or magnitudes of an input, so the cost of a
pass does not depend on the seed and runs with different seeds can be
compared (see ``acceptance`` for why its checks keep one seed).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from quivercoalg import (
    cli,
    corpus,
    finite_dual,
    incidence,
    linalg,
    representation,
    suites,
    textio,
)
from quivercoalg.linalg import SparseVector
from quivercoalg.quiver import Quiver
from quivercoalg.scalars import QQ

import helpers  # tests/helpers.py: independent dense-elimination oracle


@dataclass
class Op:
    kind: str
    size: int
    call: Callable[[], object]
    # Returns None when the answer is right, else a one-line reason.
    check: Callable[[object], Optional[str]]


def first_then_equal(verify):
    """A check that runs the full (possibly slow) verification on the first
    answer and requires every later answer to equal that verified one."""
    state = {}

    def check(result):
        if "answer" not in state:
            reason = verify(result)
            if reason is not None:
                return reason
            state["answer"] = result
            return None
        if result != state["answer"]:
            return "answer differs from the verified first answer"
        return None

    return check


# ---------------------------------------------------------------------------
# cycle-recovery: the cyclic counterexample through the CLI.
# ---------------------------------------------------------------------------


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def _cli_op(kind, size, argv, verify):
    def check(result):
        status, text = result
        try:
            payload = json.loads(text)
        except ValueError:
            return f"exit {status}, output is not JSON"
        return verify(status, payload)

    return Op(kind, size, lambda: _run_cli(argv), check)


def _thm33_verify(s, witness):
    """Non-recovery on a quiver whose cycle has s arrows."""

    def verify(status, payload):
        if status != 1:
            return f"exit code {status}, expected 1 for non-recovery"
        if payload.get("recovered") is not False:
            return "reported recovery on a cyclic quiver"
        if payload.get("witness_monomial_verdict") != "no_up_to_bound":
            return f"monomial verdict {payload.get('witness_monomial_verdict')!r}"
        if payload.get("witness") != witness:
            return f"witness {payload.get('witness')!r}, expected {witness!r}"
        if f"codimension {s * s})" not in payload.get("explanation", ""):
            return f"counterexample codimension is not {s * s}"
        return None

    return verify


def _difference_count(s, window):
    """|{(n, k, i) : k >= 1, k*s + i <= window}| over the s cycle vertices."""
    return s * sum((window - i) // s for i in range(window + 1))


def _counterexample_verify(s, window):
    def verify(status, payload):
        if status != 0:
            return f"exit code {status}"
        if payload.get("codimension") != s * s:
            return f"codimension {payload.get('codimension')}, expected {s * s}"
        if payload.get("difference_generators") != _difference_count(s, window):
            return "wrong number of difference generators"
        if payload.get("details", {}).get("cycle_length") != str(s):
            return "wrong cycle length"
        return None

    return verify


def _paths_verify(window):
    expected = 2 ** (window + 1) - 1  # one vertex, two loops

    def verify(status, payload):
        if status != 0:
            return f"exit code {status}"
        if payload.get("count") != expected or len(set(payload.get("paths", []))) != expected:
            return f"{payload.get('count')} paths, expected {expected}"
        if payload.get("exhaustive") is not False:
            return "cyclic enumeration claimed to be exhaustive"
        return None

    return verify


def _cyclic_quiver(rng) -> Quiver:
    """A 3-cycle with two tails leaving it; the seed picks labels and order."""
    names = rng.sample([f"{c}{i}" for c in "pqrstuvw" for i in range(10)], 10)
    cyc, tails, arrows = names[:3], names[3:5], names[5:10]
    edges = [(cyc[0], cyc[1]), (cyc[1], cyc[2]), (cyc[2], cyc[0]), (cyc[0], tails[0]), (cyc[1], tails[1])]
    specs = [(label, s, t) for label, (s, t) in zip(arrows, edges)]
    rng.shuffle(specs)
    vertices = cyc + tails
    rng.shuffle(vertices)
    return Quiver(vertices, specs, name="generated-cycle")


def cycle_recovery(seed: int, scratch: Path) -> list[Op]:
    rng = random.Random(seed)
    cyclic_file = scratch / "generated-cycle.txt"
    cyclic_file.write_text(textio.quiver_to_text(_cyclic_quiver(rng)))
    loops_file = scratch / "two-loops.txt"
    loops_file.write_text(textio.quiver_to_text(corpus.named_quiver("two_loops")))

    ops = []
    thm33 = [("family:loop", 1, (4, 8, 12)), ("family:cycle:2", 2, (4, 6, 8)),
             ("family:cycle:3", 3, (4, 6, 10)), ("family:cycle:4", 4, (2, 3, 4)),
             (str(cyclic_file), 3, (2, 4, 6))]
    for target, s, bounds in thm33:
        kind = "thm33 " + (target if target.startswith("family:") else "generated")
        witness = "rule:eval(1)" if target == "family:loop" else "rule:winding-multiple"
        for bound in bounds:
            argv = ["check", "thm33", target, "--codim-bound", str(bound), "--json"]
            ops.append(_cli_op(kind, bound, argv, _thm33_verify(s, witness)))
    for target, kind, windows in (("family:cycle:3", "counterexample cycle:3", (12, 18, 24)),
                                  (str(cyclic_file), "counterexample generated", (12, 18))):
        for window in windows:
            argv = ["counterexample", "cycle", target, "--max-len", str(window), "--json"]
            ops.append(_cli_op(kind, window, argv, _counterexample_verify(3, window)))
    for window in (8, 10, 11, 12):
        argv = ["paths", str(loops_file), "--max-len", str(window), "--json"]
        ops.append(_cli_op("paths two_loops", window, argv, _paths_verify(window)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# finite-dual: finite duals and exact elimination, no path labels.
# ---------------------------------------------------------------------------


def _sign(rng):
    return rng.choice((-1, 1))


def _sparse_system(rng, n):
    """n rows with 6 nonzeros each over 3n columns.  The sparsity pattern
    and the entries' magnitudes (1 to 3) depend on n only; the seed picks
    the sign of each row.  Negating a row negates every row elimination
    derives from it, so fill-in and fraction sizes, and with them the
    cost, are the same for every seed."""
    shape = random.Random(n)
    rows = []
    for _ in range(n):
        columns = shape.sample(range(3 * n), 6)
        sign = _sign(rng)
        rows.append(SparseVector({c: QQ.of(sign * shape.randint(1, 3)) for c in columns}))
    return rows


def _oracle_rank(vectors, columns):
    """Dense-elimination rank of the system, computed once on first use."""
    cache = []

    def rank():
        if not cache:
            cache.append(helpers.dense_rank(helpers.sparse_rows_to_dense(vectors, columns)))
        return cache[0]

    return rank


def _rref_verify(vectors, oracle_rank):
    """A reduced basis (lead 1, zero at the other leads) is independent; with
    the oracle's rank and every input reducing to zero, it spans the input."""

    def verify(basis):
        if len(basis) != oracle_rank():
            return f"rref has {len(basis)} rows, oracle rank {oracle_rank()}"
        leads = [min(b.labels()) for b in basis]
        for b, lead in zip(basis, leads):
            if b.coeff(lead) != 1 or any(b.coeff(other) for other in leads if other != lead):
                return "rref basis is not reduced"
        for v in vectors:
            residue = {label: Fraction(c) for label, c in v.items()}
            for b, lead in zip(basis, leads):
                factor = residue.get(lead, 0)
                if factor:
                    for label, c in b.items():
                        residue[label] = residue.get(label, 0) - factor * Fraction(c)
            if any(residue.values()):
                return "an input row is not in the span of the rref basis"
        return None

    return verify


def _rank_verify(oracle_rank):
    def verify(value):
        return None if value == oracle_rank() else f"rank {value}, oracle {oracle_rank()}"

    return verify


def _kernel_verify(vectors, oracle_rank):
    def verify(kernel):
        if len(kernel) != len(vectors) - oracle_rank():
            return f"kernel dimension {len(kernel)}, expected {len(vectors) - oracle_rank()}"
        for k in kernel:
            image = {}
            for index, coeff in k.items():
                for label, c in vectors[index].items():
                    image[label] = image.get(label, 0) + Fraction(coeff) * Fraction(c)
            if any(image.values()):
                return "kernel vector does not map to zero"
        if kernel and helpers.dense_rank(helpers.sparse_rows_to_dense(kernel, range(len(vectors)))) != len(kernel):
            return "kernel basis is dependent"
        return None

    return verify


def _membership_verify(algebra, functional, n):
    def verify(verdict):
        if len(algebra.basis) != n * (n + 1) // 2:
            return f"chain{n} incidence algebra has {len(algebra.basis)} basis elements"
        if verdict.status != "yes":
            return f"verdict {verdict.status!r} on a finite-dimensional algebra"
        ideal = verdict.witness["ideal_basis"]
        if verdict.witness["codimension"] != len(algebra.basis) - len(ideal):
            return "witness codimension does not match the ideal"
        if any(sum(functional.coeff(b) * c for b, c in w.items()) for w in ideal):
            return "functional does not vanish on the witness ideal"
        labels = list(algebra.basis)
        products = {}
        for b in labels:
            unit = SparseVector({b: algebra.field.one})
            for w in ideal:
                for product in (algebra.product(unit, w), algebra.product(w, unit)):
                    if not product.is_zero():
                        products[frozenset(product.items())] = product
        closed = helpers.dense_rank(helpers.sparse_rows_to_dense(ideal + list(products.values()), labels))
        if closed != helpers.dense_rank(helpers.sparse_rows_to_dense(ideal, labels)):
            return "witness is not a two-sided ideal"
        return None

    return verify


def _dual_verify(algebra):
    def verify(dual):
        for b in algebra.basis:
            expected = {pair: vec.coeff(b) for pair, vec in algebra.mult.items() if vec.coeff(b)}
            if dict(dual.delta_table[b].items()) != expected:
                return f"comultiplication of {b!r} is not the transposed product"
            if dual.counit_table[b] != (1 if b in algebra.idempotents else 0):
                return f"counit of {b!r} is wrong"
        return None

    return verify


def _roundtrip(module):
    coaction = representation.comodule_from_module(module)
    return representation.module_from_comodule(coaction)


def _roundtrip_check(module):
    def check(back):
        if back.dimension != module.dimension or back.action != module.action:
            return "module -> comodule -> module changed the action"
        return None

    return check


def _incidence_check(poset):
    def check(report):
        dim = len(poset.intervals())
        if not report.isomorphism or report.dimension != dim:
            return f"incidence recovery failed on {poset.name}: {report.explanation}"
        if poset.name.startswith("chain"):
            n = int(poset.name[5:])
            if dim != n * (n + 1) // 2:
                return f"{poset.name} has {dim} intervals"
        return None

    return check


# (name prefix, basis size) of the random structured algebras; each is
# drawn until the regular module cut keeps every idempotent, so the module
# dimension is the basis size as well.
ALGEBRA_SHAPES = (("poly", 6), ("cyclic", 6), ("mat2", 4), ("FIA", 6))


def _shaped_algebra(prefix, size):
    """The algebra and a module conjugated by a random base change, both
    drawn from a fixed stream, so their density is the same on every run."""
    rng = random.Random(f"{prefix}{size}")
    while True:
        algebra = corpus.random_structured_algebra(rng)
        if not (algebra.name.startswith(prefix) and len(algebra.basis) == size):
            continue
        module = corpus.random_left_module(rng, algebra)
        if module.dimension == size:
            return algebra, module


def _signed_module(rng, module):
    """The module conjugated by a seeded diagonal sign matrix D (D = D^-1):
    entry (r, c) of every action matrix times sign r * sign c.  An
    isomorphic module with the same entries up to sign, so the same cost."""
    signs = [_sign(rng) for _ in range(module.dimension)]
    action = {b: tuple(tuple(signs[r] * signs[c] * x for c, x in enumerate(row)) for r, row in enumerate(m))
              for b, m in module.action.items()}
    return representation.LeftModule(module.algebra, module.dimension, action)


def finite_dual_workload(seed: int, scratch: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for n in (3, 4, 5, 6, 7):
        chain = corpus.named_poset(f"chain{n}")
        algebra = incidence.fia_structured_algebra(chain)
        # Nonzero values on the intervals of length at most one: the maximal
        # ideal in the kernel is then the span of the longer intervals.  The
        # magnitudes depend on n only and the seed picks the signs.
        short = [(x, x) for x in chain.elements] + chain.covers()
        shape = random.Random(n)
        functional = SparseVector({b: _sign(rng) * (corpus.random_scalar(shape) or QQ.one) for b in short})
        ops.append(Op("is_in_finite_dual chain", n,
                      lambda a=algebra, f=functional: finite_dual.is_in_finite_dual(f, a),
                      first_then_equal(_membership_verify(algebra, functional, n))))
    for prefix, size in ALGEBRA_SHAPES:
        algebra, module = _shaped_algebra(prefix, size)
        module = _signed_module(rng, module)
        ops.append(Op(f"dual_coalgebra {prefix}", size,
                      lambda a=algebra: finite_dual.dual_coalgebra(a), _dual_verify(algebra)))
        ops.append(Op(f"module roundtrip {prefix}", size,
                      lambda m=module: _roundtrip(m), _roundtrip_check(module)))
    for name in corpus.POSET_CORPUS:
        poset = corpus.named_poset(name)
        ops.append(Op(f"incidence_dual_recovery_check {name}", len(poset.elements),
                      lambda p=poset: incidence.incidence_dual_recovery_check(p), _incidence_check(poset)))
    for n in (25, 50, 100):
        vectors = _sparse_system(rng, n)
        columns = range(3 * n)
        oracle_rank = _oracle_rank(vectors, columns)
        ops.append(Op("rref", n, lambda v=vectors: linalg.rref(v),
                      first_then_equal(_rref_verify(vectors, oracle_rank))))
        ops.append(Op("rank", n, lambda v=vectors: linalg.rank(v), first_then_equal(_rank_verify(oracle_rank))))
        ops.append(Op("kernel_of_map", n,
                      lambda v=vectors: linalg.kernel_of_map(range(len(v)), v.__getitem__),
                      first_then_equal(_kernel_verify(vectors, oracle_rank))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# acceptance: the 16 checks behind the 13 acceptance criteria.
# ---------------------------------------------------------------------------


GATE_SEED = 0  # the seed of tests/test_acceptance.py and of `quivercoalg suite`


def acceptance(seed: int, scratch: Path) -> list[Op]:
    """The checks run on the gate's own seed: their cost depends strongly
    on the check seed (check_dual_coalgebra_axioms takes 0.5-1.7 s across
    seeds), so the workload seed only sets the order of the checks."""
    ops = []
    for check in suites.ALL_CHECKS:
        name = check.__name__
        seeded = "seed" in check.__code__.co_varnames

        def call(name=name, seeded=seeded):
            fn = getattr(suites, name)  # looked up per call so tracing sees it
            return fn(GATE_SEED) if seeded else fn()

        def verify(report, name=name):
            if not isinstance(report, suites.CheckReport) or not report.passed:
                return f"{name} did not pass: {getattr(report, 'details', report)}"
            return None

        ops.append(Op(name, 0, call, verify))
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "cycle-recovery": cycle_recovery,
    "finite-dual": finite_dual_workload,
    "acceptance": acceptance,
}

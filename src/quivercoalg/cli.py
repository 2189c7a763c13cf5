"""Command-line front end.

Exit codes: 0 on success, 1 when a requested check fails (or a verdict is
negative/unknown), 2 on input errors with line diagnostics.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from dataclasses import replace
from typing import NamedTuple, Optional

from . import suites
from .algebra import (
    bialgebra_check,
    build_cycle_counterexample,
    build_multiarrow_counterexample,
    multiply,
)
from .coalgebra import CoalgElement, comultiply, subcoalgebra_closure
from .dual import Functional, convolve, gamma_membership, reflexivity_verdict
from .finite_dual import theta_recovery_check
from .incidence import (
    hasse_quiver,
    incidence_dual_recovery_check,
    incidence_semiperfect_check,
    phi_embed,
    phi_image_check,
)
from .linalg import SparseVector
from .products import (
    TensorProduct,
    alpha_embed,
    coreflexivity_verdict,
    factor_perp_element,
    product_quiver,
    saturate_subcoalgebra,
)
from .quiver import (
    FAMILIES,
    Family,
    Verdict,
    check_recovery_clause_equivalence,
    check_semiperfect_condition,
    enumerate_paths,
    family_from_token,
    is_acyclic,
    path_labels,
)
from .representation import PathAction, is_locally_nilpotent
from .scalars import QQ, FieldError, field_from_spec
from .textio import (
    ParseError,
    ParsedInput,
    parse_element,
    parse_functional,
    parse_input_text,
    parse_poset_text,
    parse_quiver_text,
    parse_rep_text,
    quiver_to_text,
)


class InputFailure(Exception):
    pass


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputFailure(f"cannot read {path}: {exc}") from exc


def _resolve(token: str, kind=None) -> ParsedInput:
    """A path to an input file, or family:<token>, of kind "quiver", "poset"
    or None (either: the file header, or the carrier of the family kind in
    ``FAMILIES``, decides).  Its ``materialize`` truncates a family at the
    file's ``truncate N`` level when the file gives one, else at the level
    passed (``--max-len``).
    """
    if not token.startswith("family:"):
        # Built per call, so wrappers installed after import are used.
        parse = {"quiver": parse_quiver_text, "poset": parse_poset_text, None: parse_input_text}[kind]
        return parse(_read_file(token))
    token = token[len("family:") :]
    try:
        return ParsedInput(family=family_from_token(token, kind))
    except ValueError as exc:
        raise InputFailure(str(exc)) from exc


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, default=str))
        return
    for key, value in report.items():
        if isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print(f"  {item}")
        else:
            print(f"{key}: {value}")


def cmd_paths(args, field) -> tuple[dict, int]:
    quiver = _resolve(args.input, "quiver").materialize(args.max_len)
    enum = path_labels(quiver, args.max_len)
    report = {"command": "paths", "count": len(enum.paths), "exhaustive": enum.exhaustive, "paths": enum.paths}
    return report, 0


def cmd_delta(args, field) -> tuple[dict, int]:
    quiver = _resolve(args.input, "quiver").materialize(args.max_len)
    element = parse_element(args.element, quiver, field)
    terms = [f"{coeff} * [{a}] (x) [{b}]" for (a, b), coeff in comultiply(element).sorted_items()]
    return {"command": "delta", "element": str(element), "terms": terms}, 0


def cmd_mul(args, field) -> tuple[dict, int]:
    quiver = _resolve(args.input, "quiver").materialize(args.max_len)
    left = parse_element(args.left, quiver, field)
    right = parse_element(args.right, quiver, field)
    product = multiply(left, right)
    return {"command": "mul", "left": str(left), "right": str(right), "product": str(product)}, 0


def cmd_conv(args, field) -> tuple[dict, int]:
    parsed = _resolve(args.input, "quiver")
    concrete = parsed.materialize(args.max_len)
    carrier = parsed.target
    f = parse_functional(args.left, carrier, concrete, field)
    g = parse_functional(args.right, carrier, concrete, field)
    enum = enumerate_paths(concrete, args.max_len)
    result = convolve(f, g, enum.paths)
    values = [f"[{p}] -> {coeff}" for p, coeff in result.support.sorted_items()]
    return {
        "command": "conv",
        "left": f.describe(),
        "right": g.describe(),
        "window": args.max_len,
        "values": values,
    }, 0


def _product(args) -> tuple:
    """The two quiver inputs of a product verb and their product quiver."""
    left = _resolve(args.left, "quiver").materialize(args.max_len)
    right = _resolve(args.right, "quiver").materialize(args.max_len)
    try:
        return left, right, product_quiver(left, right)
    except ValueError as exc:
        raise InputFailure(str(exc)) from exc


def cmd_product(args, field) -> tuple[dict, int]:
    product = _product(args)[2]
    return {
        "command": "product",
        "vertices": len(product.vertices),
        "arrows": len(product.arrows),
        "text": quiver_to_text(product).splitlines(),
    }, 0


def cmd_alpha(args, field) -> tuple[dict, int]:
    left, right, product = _product(args)
    el = parse_element(args.left_element, left, field)
    er = parse_element(args.right_element, right, field)
    tensor = SparseVector(
        ((p, q), cp * cq) for p, cp in el.combo.items() for q, cq in er.combo.items()
    )
    image = alpha_embed(tensor, product)
    return {
        "command": "alpha",
        "tensor_terms": len(tensor.entries),
        "image": str(image),
    }, 0


def cmd_phi(args, field) -> tuple[dict, int]:
    poset = _resolve(args.input, "poset").materialize(args.max_len)
    if (args.lower, args.upper) not in poset.leq:
        raise InputFailure(f"({args.lower},{args.upper}) is not an interval of the poset")
    element = CoalgElement.unit(poset, (args.lower, args.upper), field)
    image = phi_embed(element)
    return {
        "command": "phi",
        "interval": f"({args.lower},{args.upper})",
        "hasse_arrows": len(hasse_quiver(poset).arrows),
        "image": str(image),
    }, 0


def cmd_factor_perp(args, field) -> tuple[dict, int]:
    quiver = _resolve(args.input, "quiver").materialize(args.max_len)
    if not is_acyclic(quiver):
        raise InputFailure("perp factorization needs an acyclic quiver")
    element = parse_element(args.element, quiver, field)
    closure = subcoalgebra_closure([element])
    saturation = saturate_subcoalgebra(closure, quiver)
    paths = quiver.basis()
    rng = random.Random(args.seed)
    values = {}
    for p in paths:
        if not saturation.contains_path(p):
            values[p] = field.of(rng.randint(-5, 5), rng.randint(1, 3))
    eta = Functional(quiver, support=SparseVector(values), field=field)
    # The window of the longest path holds every path.
    witness = factor_perp_element(eta, saturation, paths[-1].length, field)
    return {
        "command": "factor-perp",
        "seed_vertices": [str(v) for v in saturation.seed_vertices],
        "saturated_vertices": [str(v) for v in saturation.vertex_set],
        "subcoalgebra_dimension": len(saturation.basis),
        "eta": eta.describe(),
        "identity_checked_on_paths": witness.checked_paths,
        "verified": True,
    }, 0


def cmd_rep_locnilp(args, field) -> tuple[dict, int]:
    quiver = _resolve(args.quiver, "quiver").materialize(args.max_len)
    rep = parse_rep_text(_read_file(args.rep), quiver, field)
    verdict = is_locally_nilpotent(rep, field)
    report = {"command": "rep-locnilp", **verdict.data}
    total, action = rep.total_dimension(), PathAction(rep)
    # Exact on both sides: M is locally nilpotent exactly when a cofinite
    # monomial ideal kills every basis vector; one kernel serves them all.
    unkilled = any(not action.monomial_check(tuple(field.one if j == i else field.zero for j in range(total)))
                   for i in range(total))
    consistent = unkilled == (not verdict)
    report["annihilator_crosscheck"] = "consistent" if consistent else "inconsistent"
    return report, 0 if consistent else 1


def cmd_counterexample(args, field) -> tuple[dict, int]:
    # Infinitely many parallel arrows: the ideal lives on the family itself.
    # Otherwise (an oriented cycle) it lives on a quiver input.
    if not FAMILIES[args.kind].finite_arrows:
        ce = build_multiarrow_counterexample(Family(args.kind), args.max_len, field)
    else:
        if args.input is None:
            raise InputFailure("counterexample cycle needs a quiver input")
        quiver = _resolve(args.input, "quiver").materialize(args.max_len)
        try:
            ce = build_cycle_counterexample(quiver, args.max_len, field)
        except ValueError as exc:
            raise InputFailure(str(exc)) from exc
    return {
        "command": f"counterexample-{ce.kind}",
        "codimension": ce.codimension,
        "difference_generators": len(ce.difference_pairs),
        "identities_checked": ce.identities_checked,
        "details": {str(k): str(v) for k, v in ce.details.items()},
    }, 0


def _thm57_verdict(target) -> Verdict:
    """Thm 5.7's reflexivity verdict, printed beside the γ-membership answer."""
    verdict = reflexivity_verdict(target)
    return replace(verdict, data={
        "status": verdict.status,
        "explanation": verdict.explanation,
        "gamma_in_image": bool(gamma_membership(target)),
    })


class Check(NamedTuple):
    """A ``check`` verb: the input kind for ``_resolve`` (None reads either
    carrier, and a second input makes the target a tensor product), whether
    a family is truncated at --max-len, the name of the verdict function in
    this module (looked up at call time, so wrappers installed after import
    are used), the keyword arguments it takes from the command line, and
    whether the verb exits 0 whatever the verdict."""

    kind: Optional[str]
    truncate: bool
    verdict: str
    options: tuple = ()
    always_passes: bool = False


CHECKS = {
    "thm33": Check("quiver", False, "theta_recovery_check", ("codim_bound", "window")),
    "semiperfect": Check("quiver", False, "check_semiperfect_condition"),
    "bialgebra": Check("quiver", True, "bialgebra_check"),
    "prop41": Check("poset", True, "phi_image_check"),
    "thm42": Check("poset", True, "incidence_dual_recovery_check"),
    "thm43": Check("poset", False, "incidence_semiperfect_check"),
    "coreflexive": Check(None, False, "coreflexivity_verdict"),
    "prop32": Check("quiver", False, "check_recovery_clause_equivalence", always_passes=True),
    "thm57": Check("quiver", False, "_thm57_verdict"),
}


def cmd_check(args, field) -> tuple[dict, int]:
    if field is not QQ:
        raise InputFailure(f"check verdicts are certified over q only, not {field.name}")
    check = CHECKS[args.name]
    if check.kind is not None and args.second is not None:
        raise InputFailure(f"check {args.name} takes one input, got a second: {args.second}")
    parsed = _resolve(args.input, check.kind)
    target = parsed.materialize(args.max_len) if check.truncate else parsed.target
    if args.second is not None:
        target = TensorProduct(target, _resolve(args.second).target)
    given = {"codim_bound": args.codim_bound, "window": args.max_len}
    verdict = globals()[check.verdict](target, **{name: given[name] for name in check.options})
    return {"command": f"check-{args.name}", **verdict.data}, 0 if check.always_passes or verdict else 1


def cmd_suite(args, field) -> tuple[dict, int]:
    try:
        reports = suites.run_suite(args.name, args.seed)
    except ValueError as exc:
        raise InputFailure(str(exc)) from exc
    lines = [r.summary_line() for r in sorted(reports, key=lambda r: r.name)]
    passed = all(r.passed for r in reports)
    return (
        {"command": f"suite-{args.name}", "passed": passed, "seed": args.seed, "reports": lines},
        0 if passed else 1,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivercoalg",
        description="Exact computations with quiver algebras, path coalgebras, "
        "incidence (co)algebras, and their duals.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-len", type=int, default=6, help="path-length window / truncation stage")
    common.add_argument("--field", default="q", help="q (rationals) or fp:<prime>")
    common.add_argument("--codim-bound", type=int, default=10, help="codimension bound of the thm33 witness; only check thm33 reads it")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("paths", help="enumerate paths")
    p.add_argument("input")

    p = sub.add_parser("delta", help="comultiply an element")
    p.add_argument("input")
    p.add_argument("element")

    p = sub.add_parser("mul", help="multiply two elements in the quiver algebra")
    p.add_argument("input")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("conv", help="convolve two functionals on the window")
    p.add_argument("input")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("product", help="product of two quivers")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("alpha", help="shuffle-embed a tensor of two elements")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("left_element")
    p.add_argument("right_element")

    p = sub.add_parser("phi", help="embed a poset interval into the Hasse path coalgebra")
    p.add_argument("input")
    p.add_argument("lower")
    p.add_argument("upper")

    p = sub.add_parser("factor-perp", help="saturate and factor a perp functional")
    p.add_argument("input")
    p.add_argument("element")

    p = sub.add_parser("rep-locnilp", help="local nilpotence of a representation")
    p.add_argument("quiver")
    p.add_argument("rep")

    p = sub.add_parser("counterexample", help="cofinite ideals without monomial subideals")
    p.add_argument("kind", choices=("cycle", "multiarrow"))
    p.add_argument("input", nargs="?", help="quiver input (cycle kind only)")

    p = sub.add_parser("check", help="run a named criterion on one input")
    p.add_argument("name", choices=tuple(CHECKS))
    p.add_argument("input")
    p.add_argument("second", nargs="?", help="second input for tensor-product coreflexivity")

    p = sub.add_parser("suite", help="run a named verification suite")
    p.add_argument("name")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    for flag, value in (("--max-len", args.max_len), ("--codim-bound", args.codim_bound)):
        if value < 0:
            print(f"error: {flag} must be nonnegative, got {value}", file=sys.stderr)
            return 2
    try:
        field = field_from_spec(args.field)
    except FieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Looked up at call time, so wrappers installed after import are used.
    command = globals()["cmd_" + args.verb.replace("-", "_")]
    try:
        report, status = command(args, field)
    except (InputFailure, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.json)
    return status


if __name__ == "__main__":
    sys.exit(main())

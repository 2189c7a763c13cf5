"""Line-oriented text formats and expression parsers.

One file format per object kind; comments start with ``#``.  A header line
is followed by records (a keyword and its fields), all read by one record
reader; no two records may name the same thing.  Parse errors carry line
numbers for CLI diagnostics.

Quiver file::

    quiver
    vertex a
    vertex b
    arrow x a b

Family file::

    family cycle:3
    truncate 9

Poset file::

    poset
    element p
    element q
    cover p q

Representation file (matrix rows ``;``-separated, entries rational)::

    rep
    dim a 2
    dim b 1
    map x 1/2 0 ; 3 1

Structured-algebra file (absent products are zero; a product ``= 0`` is
the basis element ``0`` when there is one)::

    algebra
    basis u v x
    idempotents u v
    mul u u = u
    mul u x = x
    mul x v = x

Element expressions: ``3*[x.y] - 1/2*[a]`` where ``[a]`` is a vertex and
``[x.y]`` a path given by dot-joined arrow labels; they and the bare-label
combinations of ``mul`` lines share one signed-term reader.  Functional
expressions: ``dual{[p]:3, [q]:-1}``, or a rule kind of ``dual.RULES``
that takes an argument from text: ``rule:gamma``, ``rule:eval(2)``,
``rule:starts-at(v)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .coalgebra import CoalgElement
from .dual import RULES, Functional
from .finite_dual import StructuredAlgebra
from .incidence import Poset
from .linalg import SparseVector
from .quiver import Quiver, family_from_token, family_kinds
from .representation import Representation, shape_problem
from .scalars import QQ, ParseError


def _meaningful_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


@dataclass
class ParsedInput:
    """Either a concrete quiver or poset, or a family plus its truncation level."""

    concrete: object = None
    family: object = None
    truncation: Optional[int] = None

    @property
    def target(self):
        """The family when one is given, else the concrete object."""
        return self.concrete if self.family is None else self.family

    def materialize(self, default_level: int):
        if self.family is None:
            return self.concrete
        return self.family.truncate(self.truncation if self.truncation is not None else default_level)


# A label names a vertex, an arrow or a poset element.  It has no
# whitespace, no brackets, which enclose a path in an element expression,
# and no dot, which separates the arrows of a path; parentheses and commas
# stay, as product quivers write their pairs with them.
_LABEL = re.compile(r"[^\s\[\].]+")


def _records(lines, table: dict, unexpected: Optional[str] = None):
    """Yield ``(line number, keyword, fields)`` for each record after the
    header.  ``table`` maps each keyword to ``(field count, usage)``: the
    record has exactly that many whitespace-separated fields, each a label
    (``_LABEL``) unless its usage is a number, or, for a count of None,
    the nonempty rest of the line as its one field.  Any other line raises
    ``unexpected`` followed by the line, by default ``expected '<keyword>
    <usage>' or ..., got ``."""
    if unexpected is None:
        unexpected = "expected " + " or ".join(f"'{kw} {usage}'" for kw, (_, usage) in table.items()) + ", got "
    for number, line in lines[1:]:
        keyword, *rest = line.split(None, 1)
        count, usage = table.get(keyword, (0, ""))
        fields = rest if count is None else line.split()[1:]
        if keyword not in table or len(fields) != (1 if count is None else count):
            raise ParseError(unexpected + repr(line), number)
        labels = [] if count is None else [f for f, u in zip(fields, usage.split()) if u not in ("<n>", "<level>")]
        if bad := next((f for f in labels if not _LABEL.fullmatch(f)), None):
            raise ParseError(f"bad label {bad!r}: a label has no whitespace, '[', ']' or '.'", number)
        yield number, keyword, fields


def _parse_family_file(lines, carrier: str) -> ParsedInput:
    """A ``family <token>`` header naming a family of the carrier, then
    optional ``truncate N`` with N >= 0."""
    number, header = lines[0]
    words, kinds = header.split(), family_kinds(carrier)
    if carrier == "poset" and (len(words) != 2 or words[1] not in kinds):
        raise ParseError(f"expected: family {{{'|'.join(kinds)}}}", number)
    if len(words) != 2:
        raise ParseError("expected: family <token>", number)
    try:
        family = family_from_token(words[1], carrier)
    except ValueError as exc:
        raise ParseError(str(exc), number) from exc
    truncation = None
    for number, _, (level,) in _records(lines, {"truncate": (1, "<level>")}, "unexpected line in family file: "):
        if truncation is not None:
            raise ParseError("second 'truncate' line", number)
        try:
            truncation = int(level)
        except ValueError as exc:
            raise ParseError("truncate level must be an integer", number) from exc
        if truncation < 0:
            raise ParseError("truncate level must be nonnegative", number)
    return ParsedInput(family=family, truncation=truncation)


# The records of a quiver and of a poset file, in the order of the
# constructor's arguments: one list per keyword.
_CARRIERS = {
    "quiver": (Quiver, {"vertex": (1, "<label>"), "arrow": (3, "<label> <src> <tgt>")}),
    "poset": (Poset, {"element": (1, "<label>"), "cover": (2, "<a> <b>")}),
}


def _parse_carrier_text(text: str, carrier: str) -> ParsedInput:
    """A ``family <token>`` file, or the carrier's header and its records."""
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ParseError(f"empty {carrier} file")
    number, header = lines[0]
    if header.split()[0] == "family":
        return _parse_family_file(lines, carrier)
    if header != carrier:
        raise ParseError(f"expected header '{carrier}' or 'family <token>'", number)
    build, table = _CARRIERS[carrier]
    records = {keyword: [] for keyword in table}
    for number, keyword, fields in _records(lines, table):
        records[keyword].append((number, fields[0] if len(fields) == 1 else tuple(fields)))
    labels, relations = records.values()
    try:
        return ParsedInput(build([label for _, label in labels], [fields for _, fields in relations]))
    except ValueError as exc:
        raise ParseError(str(exc), _refused_line(labels, relations)) from exc


def _first_repeat(records) -> Optional[int]:
    """The line of the first ``(line, label)`` record whose label an earlier
    record has, or None."""
    first = {}
    return next((number for number, label in records if first.setdefault(label, number) != number), None)


def _refused_line(labels, relations) -> Optional[int]:
    """The line of the record a carrier constructor refuses, given the
    ``(line, fields)`` records: a label seen before, else the first
    arrow or cover naming an undeclared label or an arrow named as a
    vertex, else the first arrow whose label an earlier arrow has, the
    order in which ``Quiver`` and ``Poset`` check them; None for any other
    refusal."""
    seen = {label for _, label in labels}
    # An arrow's endpoints and a cover's two elements are its last two
    # fields, and an arrow's own label is its first.
    return (_first_repeat(labels)
            or next((number for number, fields in relations
                     if not seen.issuperset(fields[-2:]) or seen.intersection(fields[:-2])), None)
            or _first_repeat((number, label) for number, fields in relations for label in fields[:-2]))


def parse_quiver_text(text: str) -> ParsedInput:
    return _parse_carrier_text(text, "quiver")


def parse_poset_text(text: str) -> ParsedInput:
    return _parse_carrier_text(text, "poset")


def parse_input_text(text: str) -> ParsedInput:
    """A quiver or a poset file: the poset parser for a ``poset`` header or a
    ``family <kind>`` header naming a poset family, the quiver parser
    otherwise."""
    words = next(_meaningful_lines(text), (None, ""))[1].split()
    poset_family = len(words) == 2 and words[0] == "family" and words[1] in family_kinds("poset")
    return _parse_carrier_text(text, "poset" if words[:1] == ["poset"] or poset_family else "quiver")


def _header_lines(text: str, header: str) -> list:
    lines = list(_meaningful_lines(text))
    if not lines or lines[0][1] != header:
        raise ParseError(f"expected header '{header}'", lines[0][0] if lines else None)
    return lines


def parse_rep_text(text: str, quiver: Quiver, field=QQ) -> Representation:
    """A vertex without a ``dim`` line has dimension 0 and an arrow without
    a ``map`` line the zero matrix; none has two lines."""
    dims, maps, map_lines = {}, {}, {}
    for number, keyword, fields in _records(
        _header_lines(text, "rep"), {"dim": (2, "<vertex> <n>"), "map": (None, "<arrow> <rows>")}
    ):
        name, *body = fields if keyword == "dim" else fields[0].split(None, 1)
        known, seen, what = (quiver._out, dims, "vertex") if keyword == "dim" else (quiver.arrow_by_label, maps, "arrow")
        if name not in known:
            raise ParseError(f"unknown {what} {name!r}", number)
        if name in seen:
            raise ParseError(f"second '{keyword}' line for {what} {name!r}", number)
        if keyword == "dim":
            try:
                dims[name] = int(body[0])
            except ValueError as exc:
                raise ParseError("dimension must be an integer", number) from exc
            if dims[name] < 0:
                raise ParseError("dimensions must be nonnegative", number)
            continue
        rows = []
        for chunk in "".join(body).split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                rows.append(tuple(field.parse(tok) for tok in chunk.split()))
            except ValueError as exc:
                raise ParseError(f"bad matrix entry in {chunk!r}", number) from exc
        maps[name], map_lines[name] = tuple(rows), number
    dims = {v: dims.get(v, 0) for v in quiver.vertices}
    for a in quiver.arrows:
        if a.label not in maps:
            maps[a.label] = tuple(tuple(field.zero for _ in range(dims[a.target])) for _ in range(dims[a.source]))
        elif problem := shape_problem(a.label, maps[a.label], dims[a.source], dims[a.target]):
            raise ParseError(problem, map_lines[a.label])
    return Representation(quiver, dims, maps)


def parse_algebra_text(text: str, field=QQ) -> StructuredAlgebra:
    table = {"basis": (None, "<labels>"), "idempotents": (None, "<labels>"), "mul": (None, "<a> <b> = <combination>")}
    found, mult, zero_pairs = {}, {}, []
    for number, keyword, (rest,) in _records(_header_lines(text, "algebra"), table, "unexpected line "):
        if keyword in found:
            raise ParseError(f"second '{keyword}' line", number)
        if keyword != "mul":
            found[keyword] = rest.split()
            continue
        match = re.match(r"(\S+)\s+(\S+)\s*=\s*(.*)$", rest)
        if not match:
            raise ParseError("expected 'mul <a> <b> = <combination>'", number)
        if match.group(1, 2) in mult:
            raise ParseError(f"second 'mul' line for {match.group(1)} {match.group(2)}", number)
        try:
            mult[match.group(1, 2)] = parse_plain_combination(match.group(3), field)
        except ParseError as exc:
            raise ParseError(str(exc), number) from exc
        if match.group(3).strip() == "0":
            zero_pairs.append(match.group(1, 2))
    for keyword in ("basis", "idempotents"):
        if keyword not in found:
            raise ParseError(f"missing '{keyword}' line")
    if "0" in found["basis"]:
        # A right-hand side ``0`` names the basis label 0, not the zero product.
        mult.update((pair, SparseVector({"0": field.one})) for pair in zero_pairs)
    try:
        return StructuredAlgebra(found["basis"], mult, found["idempotents"], field)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


_TERM = r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+(?:/\d+)?)\s*\*\s*)?{}\s*"
_BARE_TERM = re.compile(_TERM.format(r"(?P<body>[A-Za-z0-9_.()]+)"))
# A bracketed path: dot-joined labels, none of which holds a bracket
# (``_LABEL``), so the first ']' closes it and a comma inside is a label's.
_BRACKET = r"\[(?P<body>[^\[\]]*)\]"
_BRACKET_TERM = re.compile(_TERM.format(_BRACKET))
# One ``[path]:coeff`` entry of ``dual{...}`` and the comma before the next.
_DUAL_ENTRY = re.compile(r"\s*" + _BRACKET + r"\s*:(?P<coeff>[^,\[\]]*)(?:,(?!\Z)|\Z)")


def _signed_terms(text: str, term, what: str, spelled: str, field):
    """Yield ``(body, coefficient)`` for each term of a signed sum such as
    ``2*u - 1/3*v``; ``0`` and the empty text have no terms.  ``term``
    matches one term with its ``body``; ``what`` names the sum and
    ``spelled`` formats a body in the error messages.  A generator, so a
    caller's error on an early term comes before a syntax error later on."""
    text = text.strip()
    if text == "0":
        return
    pos = 0
    while pos < len(text):
        match = term.match(text, pos)
        if not match:
            raise ParseError(f"cannot parse {what} near {text[pos:]!r}")
        sign, coeff, body = match.group("sign", "coeff", "body")
        if pos and sign is None:
            raise ParseError("missing +/- before " + spelled.format(body))
        coeff = field.parse(coeff) if coeff else field.one
        yield body, -coeff if sign == "-" else coeff
        pos = match.end()


def parse_plain_combination(text: str, field=QQ) -> SparseVector:
    """Linear combination over bare labels: ``2*u + 1/3*v - w`` or ``0``."""
    return SparseVector(_signed_terms(text, _BARE_TERM, "combination", "{!r}", field))


def _path_from_bracket(body: str, quiver: Quiver):
    body = body.strip()
    if not body:
        raise ParseError("empty path brackets []")
    if "." in body:
        try:
            return quiver.path_from_labels(body.split("."))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    if body in quiver._out:
        return quiver.vertex_path(body)
    if body in quiver.arrow_by_label:
        return quiver.arrow_path(body)
    raise ParseError(f"unknown vertex or arrow {body!r}")


def parse_element(text: str, quiver: Quiver, field=QQ) -> CoalgElement:
    """Element expression: ``3*[x.y] - 1/2*[a]``."""
    terms = _signed_terms(text, _BRACKET_TERM, "element", "[{}]", field)
    return CoalgElement(quiver, SparseVector((_path_from_bracket(body, quiver), c) for body, c in terms))


_RULE_RE = re.compile(r"rule:(?P<kind>[a-z-]+)(?:\((?P<arg>[^)]*)\))?$")


def parse_functional(text: str, carrier, quiver_for_paths: Optional[Quiver] = None, field=QQ) -> Functional:
    """Functional expression: finite support, or a rule kind of
    ``dual.RULES`` that a ``rule:`` argument can name."""
    text = text.strip()
    if text.startswith("dual{") and text.endswith("}"):
        body = text[len("dual{") : -1].strip()
        if quiver_for_paths is None:
            raise ParseError("finite-support functionals need a concrete quiver")
        entries: dict = {}
        pos = 0
        while pos < len(body):
            if not (match := _DUAL_ENTRY.match(body, pos)):
                raise ParseError(f"expected '[path]:coeff', got {body[pos:]!r}")
            path, coeff = _path_from_bracket(match.group("body"), quiver_for_paths), match.group("coeff")
            try:
                entries[path] = field.parse(coeff)
            except ValueError as exc:
                raise ParseError(f"bad coefficient {coeff!r}") from exc
            pos = match.end()
        return Functional(carrier, support=SparseVector(entries), field=field)
    match = _RULE_RE.match(text)
    if not match:
        raise ParseError(f"cannot parse functional {text!r}")
    name, arg = match.group("kind"), (match.group("arg") or "").strip()
    kind = next((kind for kind, spec in RULES.items() if spec.read and spec.spelling.split("(")[0] == name), None)
    if kind is None:
        raise ParseError(f"unknown rule kind {name!r}")
    if RULES[kind].argument and not arg:
        raise ParseError(f"rule:{name} needs {RULES[kind].argument} argument")
    return Functional.from_rule(carrier, kind, RULES[kind].read(arg, carrier, field), field=field)


def quiver_to_text(quiver: Quiver) -> str:
    lines = ["quiver"]
    lines += [f"vertex {v}" for v in quiver.vertices]
    lines += [f"arrow {a.label} {a.source} {a.target}" for a in quiver.arrows]
    return "\n".join(lines) + "\n"


def poset_to_text(poset: Poset) -> str:
    lines = ["poset"]
    lines += [f"element {e}" for e in poset.elements]
    lines += [f"cover {x} {y}" for x, y in poset.covers()]
    return "\n".join(lines) + "\n"

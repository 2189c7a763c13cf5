"""Line-oriented text formats and expression parsers.

One file format per object kind; comments start with ``#``.  Parse errors
carry line numbers for CLI diagnostics.

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

Structured-algebra file (absent products are zero)::

    algebra
    basis u v x
    idempotents u v
    mul u u = u
    mul u x = x
    mul x v = x

Element expressions: ``3*[x.y] - 1/2*[a]`` where ``[a]`` is a vertex and
``[x.y]`` a path given by dot-joined arrow labels.  Functional
expressions: ``dual{[p]:3, [q]:-1}``, ``rule:gamma``, ``rule:eval(2)``,
``rule:starts-at(v)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .coalgebra import CoalgElement
from .dual import Functional
from .finite_dual import StructuredAlgebra
from .incidence import Poset
from .linalg import SparseVector
from .quiver import Family, Quiver, family_from_token, family_kinds
from .representation import Representation
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
    for number, line in lines[1:]:
        parts = line.split()
        if parts[0] == "truncate" and len(parts) == 2:
            try:
                truncation = int(parts[1])
            except ValueError as exc:
                raise ParseError("truncate level must be an integer", number) from exc
            if truncation < 0:
                raise ParseError("truncate level must be nonnegative", number)
        else:
            raise ParseError(f"unexpected line in family file: {line!r}", number)
    return ParsedInput(family=family, truncation=truncation)


def parse_quiver_text(text: str) -> ParsedInput:
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ParseError("empty quiver file")
    number, header = lines[0]
    if header.split()[0] == "family":
        return _parse_family_file(lines, "quiver")
    if header != "quiver":
        raise ParseError("expected header 'quiver' or 'family <token>'", number)
    vertices = []
    arrows = []
    for number, line in lines[1:]:
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "arrow" and len(parts) == 4:
            arrows.append((parts[1], parts[2], parts[3]))
        else:
            raise ParseError(f"expected 'vertex <label>' or 'arrow <label> <src> <tgt>', got {line!r}", number)
    try:
        return ParsedInput(Quiver(vertices, arrows))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_poset_text(text: str) -> ParsedInput:
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ParseError("empty poset file")
    number, header = lines[0]
    if header.split()[0] == "family":
        return _parse_family_file(lines, "poset")
    if header != "poset":
        raise ParseError("expected header 'poset' or 'family <token>'", number)
    elements = []
    covers = []
    for number, line in lines[1:]:
        parts = line.split()
        if parts[0] == "element" and len(parts) == 2:
            elements.append(parts[1])
        elif parts[0] == "cover" and len(parts) == 3:
            covers.append((parts[1], parts[2]))
        else:
            raise ParseError(f"expected 'element <label>' or 'cover <a> <b>', got {line!r}", number)
    try:
        return ParsedInput(Poset(elements, covers))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_input_text(text: str) -> ParsedInput:
    """A quiver or a poset file: the poset parser for a ``poset`` header or a
    ``family <kind>`` header naming a poset family, the quiver parser
    otherwise."""
    words = next(_meaningful_lines(text), (None, ""))[1].split()
    poset_family = len(words) == 2 and words[0] == "family" and words[1] in family_kinds("poset")
    if words[:1] == ["poset"] or poset_family:
        return parse_poset_text(text)
    return parse_quiver_text(text)


def parse_rep_text(text: str, quiver: Quiver, field=QQ) -> Representation:
    lines = list(_meaningful_lines(text))
    if not lines or lines[0][1] != "rep":
        raise ParseError("expected header 'rep'", lines[0][0] if lines else None)
    dims = {}
    raw_maps = {}
    for number, line in lines[1:]:
        parts = line.split(None, 2)
        if parts[0] == "dim" and len(parts) == 3:
            if parts[1] not in quiver._out:
                raise ParseError(f"unknown vertex {parts[1]!r}", number)
            try:
                dims[parts[1]] = int(parts[2])
            except ValueError as exc:
                raise ParseError("dimension must be an integer", number) from exc
        elif parts[0] == "map" and len(parts) >= 2:
            if parts[1] not in quiver.arrow_by_label:
                raise ParseError(f"unknown arrow {parts[1]!r}", number)
            body = parts[2] if len(parts) == 3 else ""
            rows = []
            for chunk in body.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                try:
                    rows.append(tuple(field.parse(tok) for tok in chunk.split()))
                except ValueError as exc:
                    raise ParseError(f"bad matrix entry in {chunk!r}", number) from exc
            raw_maps[parts[1]] = tuple(rows)
        else:
            raise ParseError(f"expected 'dim <vertex> <n>' or 'map <arrow> <rows>', got {line!r}", number)
    for v in quiver.vertices:
        dims.setdefault(v, 0)
    maps = {}
    for a in quiver.arrows:
        if a.label in raw_maps:
            maps[a.label] = raw_maps[a.label]
        else:
            maps[a.label] = tuple(
                tuple(field.zero for _ in range(dims[a.target])) for _ in range(dims[a.source])
            )
    try:
        return Representation(quiver, dims, maps)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


_BARE_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+(?:/\d+)?)\s*\*\s*)?(?P<label>[A-Za-z0-9_.()]+)\s*"
)


def parse_plain_combination(text: str, field=QQ) -> SparseVector:
    """Linear combination over bare labels: ``2*u + 1/3*v - w`` or ``0``."""
    text = text.strip()
    if text == "0" or not text:
        return SparseVector()
    terms = []
    pos = 0
    first = True
    while pos < len(text):
        match = _BARE_TERM.match(text, pos)
        if not match or match.start() != pos:
            raise ParseError(f"cannot parse combination near {text[pos:]!r}")
        sign = match.group("sign")
        if not first and sign is None:
            raise ParseError(f"missing +/- before {match.group('label')!r}")
        coeff = field.parse(match.group("coeff")) if match.group("coeff") else field.one
        if sign == "-":
            coeff = -coeff
        terms.append((match.group("label"), coeff))
        pos = match.end()
        first = False
    return SparseVector(terms)


def parse_algebra_text(text: str, field=QQ) -> StructuredAlgebra:
    lines = list(_meaningful_lines(text))
    if not lines or lines[0][1] != "algebra":
        raise ParseError("expected header 'algebra'", lines[0][0] if lines else None)
    basis = None
    idempotents = None
    mult = {}
    for number, line in lines[1:]:
        if line.startswith("basis"):
            basis = line.split()[1:]
        elif line.startswith("idempotents"):
            idempotents = line.split()[1:]
        elif line.startswith("mul"):
            match = re.match(r"mul\s+(\S+)\s+(\S+)\s*=\s*(.*)$", line)
            if not match:
                raise ParseError("expected 'mul <a> <b> = <combination>'", number)
            try:
                combo = parse_plain_combination(match.group(3), field)
            except ParseError as exc:
                raise ParseError(str(exc), number) from exc
            mult[(match.group(1), match.group(2))] = combo
        else:
            raise ParseError(f"unexpected line {line!r}", number)
    if basis is None:
        raise ParseError("missing 'basis' line")
    if idempotents is None:
        raise ParseError("missing 'idempotents' line")
    try:
        return StructuredAlgebra(basis, mult, idempotents, field)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


_BRACKET_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+(?:/\d+)?)\s*\*\s*)?\[(?P<path>[^\]]*)\]\s*"
)


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
    text = text.strip()
    if text == "0" or not text:
        return CoalgElement.zero(quiver)
    terms = []
    pos = 0
    first = True
    while pos < len(text):
        match = _BRACKET_TERM.match(text, pos)
        if not match or match.start() != pos:
            raise ParseError(f"cannot parse element near {text[pos:]!r}")
        if not first and match.group("sign") is None:
            raise ParseError(f"missing +/- before [{match.group('path')}]")
        coeff = field.parse(match.group("coeff")) if match.group("coeff") else field.one
        if match.group("sign") == "-":
            coeff = -coeff
        terms.append((_path_from_bracket(match.group("path"), quiver), coeff))
        pos = match.end()
        first = False
    return CoalgElement(quiver, SparseVector(terms))


_RULE_RE = re.compile(r"rule:(?P<kind>[a-z-]+)(?:\((?P<arg>[^)]*)\))?$")


def parse_functional(text: str, carrier, quiver_for_paths: Optional[Quiver] = None, field=QQ) -> Functional:
    """Functional expression: finite support or a named rule."""
    text = text.strip()
    if text.startswith("dual{") and text.endswith("}"):
        body = text[len("dual{") : -1].strip()
        if quiver_for_paths is None:
            raise ParseError("finite-support functionals need a concrete quiver")
        entries: dict = {}
        if body:
            for chunk in body.split(","):
                if ":" not in chunk:
                    raise ParseError(f"expected '[path]:coeff', got {chunk!r}")
                left, right = chunk.rsplit(":", 1)
                left = left.strip()
                if not (left.startswith("[") and left.endswith("]")):
                    raise ParseError(f"expected bracketed path, got {left!r}")
                path = _path_from_bracket(left[1:-1], quiver_for_paths)
                try:
                    entries[path] = field.parse(right)
                except ValueError as exc:
                    raise ParseError(f"bad coefficient {right!r}") from exc
        return Functional(carrier, support=SparseVector(entries), field=field)
    match = _RULE_RE.match(text)
    if not match:
        raise ParseError(f"cannot parse functional {text!r}")
    kind = match.group("kind")
    arg = (match.group("arg") or "").strip()
    if kind == "gamma":
        return Functional.from_rule(carrier, "gamma", field=field)
    if kind == "eval":
        if not arg:
            raise ParseError("rule:eval needs a scalar argument")
        return Functional.from_rule(carrier, "eval", field.parse(arg), field=field)
    if kind == "starts-at":
        if not arg:
            raise ParseError("rule:starts-at needs a vertex argument")
        if (isinstance(carrier, Quiver) and arg not in carrier.vertices
                or isinstance(carrier, Family) and not carrier.has_vertex(arg)):
            raise ParseError(f"unknown vertex {arg!r}")
        return Functional.from_rule(carrier, "starts_at", arg, field=field)
    raise ParseError(f"unknown rule kind {kind!r}")


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

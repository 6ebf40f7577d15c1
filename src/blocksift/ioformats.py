"""Generator-set serialization: JSON image arrays and 1-based cycle text.

JSON format: ``{"degree": n, "generators": [[images...], ...]}`` with
0-based images. The cycle-text grammar is stated in ``parse_generators``.
"""

from __future__ import annotations

import json
import re
import sys

from .perm import GeneratorSet, Permutation, point_table

_MAX_DIGITS = len(str(sys.maxsize))
_COMMENT = re.compile(r"#[^\n]*")
# Each part of a pattern below past its first token is optional, so a
# match on malformed text ends where the text stops fitting: that offset
# is the error's position. An optional "n=<int>;" header:
_HEADER = re.compile(r"\s*(n\s*(?:=\s*(\d*)\s*(;)?)?)?")
# One generator: "(" and its juxtaposed cycles up to the last ")", which
# is group 2; whitespace ends it. Group 1 is None at the end of the input
# or where the next character cannot start a generator.
_GENERATOR = re.compile(r"\s*(?:(\((?:[\s\d,]*\)\()*[\s\d,]*)(\))?)?")
# Within a generator: a point, or the ")" that closes all but its last cycle.
_ITEM = re.compile(r"\d+|\)")


class ParseError(ValueError):
    """Malformed generator input, with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def _parse_cycles(text: str) -> GeneratorSet:
    # a comment becomes spaces of its length, so offsets stay positions
    text = _COMMENT.sub(lambda c: " " * len(c[0]), text)

    def error(message: str, pos: int) -> ParseError:
        line = text.count("\n", 0, pos) + 1
        return ParseError(message, line, pos - text.rfind("\n", 0, pos))

    def integer(digits: str, pos: int) -> int:
        # each is a degree or a point, so one above sys.maxsize (no list
        # can be that long) is an error; digit count is tested first, since
        # int() refuses over 4300 digits
        digits = digits.lstrip("0") or "0"
        if len(digits) > _MAX_DIGITS or int(digits) > sys.maxsize:
            raise error("integer larger than sys.maxsize", pos)
        return int(digits)

    m = _HEADER.match(text)
    declared = None
    if m[1]:
        if m[2] is None:
            raise error("expected '=' after 'n'", m.end())
        if not m[2]:
            raise error("expected an integer", m.start(2))
        declared = integer(m[2], m.start(2))
        if declared < 1:
            raise error("degree must be at least 1", m.end(2))
        if m[3] is None:
            raise error("expected ';' after degree header", m.end())
    raw_gens: list[list[list[int]]] = []
    named: set[int] = set()
    while True:
        m = _GENERATOR.match(text, m.end())
        if m[1] is None:
            if m.end() == len(text):
                break
            raise error(f"expected '(' but found {text[m.end()]!r}", m.end())
        cycles: list[list[int]] = [[]]
        used: set[int] = set()
        for item in _ITEM.finditer(text, m.start(1), m.end(1)):
            if item[0] == ")":
                cycles.append([])
                continue
            p = integer(item[0], item.start())
            if p < 1:
                raise error("points are 1-based", item.start())
            if p in used:
                raise error(f"point {p} repeated within one generator", item.start())
            used.add(p)
            cycles[-1].append(p - 1)
        if m[2] is None:
            end = m.end() == len(text)
            raise error("unterminated cycle" if end else "expected an integer", m.end())
        raw_gens.append(cycles)
        named |= used
    if not raw_gens:
        raise error("no generators found", len(text))
    max_point = max(named, default=0)
    degree = declared or max_point
    if degree < 1:
        raise error("cannot infer a positive degree", len(text))
    if max_point > degree:
        raise error(f"point {max_point} exceeds declared degree {degree}", len(text))
    if degree > 1 and len(named) < degree:
        # one of the first len(named) + 1 points is named by no cycle
        k = next(p for p in range(1, degree + 1) if p not in named)
        raise error(f"point {k} is named by no cycle; a point every generator fixes"
                    f" is written ({k}) and makes the group intransitive", len(text))
    gens = []
    for cycles in raw_gens:
        images = point_table(degree)[:degree]
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        gens.append(Permutation(images))
    return GeneratorSet(degree, gens)


def _parse_json(text: str) -> GeneratorSet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply", 1, 1) from exc
    if not isinstance(data, dict) or "degree" not in data or "generators" not in data:
        raise ParseError("JSON input needs 'degree' and 'generators' keys", 1, 1)
    degree = data["degree"]
    raw = data["generators"]
    # type(), not isinstance(): JSON true is a bool, which would pass as 1
    if type(degree) is not int or not isinstance(raw, list) or not raw:
        raise ParseError("degree must be an int and generators a nonempty list", 1, 1)
    # the same trap in the images: [true, false] would pass as the
    # transposition. Only the literals true and false decode to bool, and
    # each holds a letter ('u', 'l') that the keys "degree" and
    # "generators" lack, so a one-letter search keeps the per-image scan
    # off ordinary input.
    if "u" in text or "l" in text:
        for images in raw:
            if isinstance(images, list) and any(type(v) is bool for v in images):
                raise ParseError("generator images must be ints, not booleans", 1, 1)
    try:
        gens = [Permutation(images) for images in raw]
        return GeneratorSet(degree, gens)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc), 1, 1) from exc


def parse_generators(text: str) -> GeneratorSet:
    """Parse either supported format (JSON detected by a leading '{').

    Cycle text, as the README states it: an optional ``n=<int>;`` header,
    then whitespace-separated generators, each one or more juxtaposed
    ``(...)`` cycles of 1-based points split by whitespace or commas.
    Whitespace and ``#`` comments may stand between any other two tokens.
    Cycle text of degree above 1 names every point, a fixed one as a
    1-cycle ``(k)``, so no text declares more points than it has
    characters, in either format, and a huge ``n=`` header is refused
    before any permutation or table of its size is built.
    A ``ParseError`` names the first character that cannot continue the
    input; a point that is 0, above ``sys.maxsize`` or repeated within its
    generator, at its first digit; an unterminated cycle, a point above
    the declared degree or one named by no cycle, at the end of the input;
    and JSON nested too deeply for ``json.loads``, at line 1, column 1.
    """
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_cycles(text)


def emit_generators(gens: GeneratorSet, fmt: str = "json") -> str:
    """Serialize; parse_generators(emit_generators(g)) round-trips to g."""
    if fmt == "json":
        return json.dumps(
            {"degree": gens.degree, "generators": [list(g.images) for g in gens]}
        )
    if fmt == "cycles":
        parts, moved = [], set()
        for g in gens:
            cycs = g.cycles()
            moved.update(p for c in cycs for p in c)
            parts.append("".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs))
        # cycle text names every point: those every generator fixes as 1-cycles
        if gens.degree > 1:
            parts[0] += "".join(f"({p + 1})" for p in range(gens.degree) if p not in moved)
        return f"n={gens.degree}; " + " ".join(part or "()" for part in parts)
    raise ValueError(f"unknown format {fmt!r}")

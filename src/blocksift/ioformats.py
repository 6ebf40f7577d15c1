"""Generator-set serialization: JSON image arrays and 1-based cycle text.

JSON format: ``{"degree": n, "generators": [[images...], ...]}`` with
0-based images. Cycle text: an optional ``n=<int>;`` header, then one
generator per parenthesized disjoint-cycle product, whitespace-separated,
1-based points, fixed points omitted; ``#`` starts a comment to end of
line. Repeating a point within one generator expression is a parse error.
"""

from __future__ import annotations

import json
import sys

from .perm import GeneratorSet, Permutation

_MAX_DIGITS = len(str(sys.maxsize))


class ParseError(ValueError):
    """Malformed generator input, with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def skip_space(self) -> None:
        while self.pos < len(self.text):
            ch = self.peek()
            if ch == "#":
                while self.pos < len(self.text) and self.peek() != "\n":
                    self.advance()
            elif ch.isspace():
                self.advance()
            else:
                break

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)

    def read_int(self) -> int:
        """A decimal integer; each is a degree or a point, so one above
        sys.maxsize (no list can be that long) is an error at its start.
        Digit count is tested first: int() refuses over 4300 digits."""
        if not self.peek().isdigit():
            raise self.error("expected an integer")
        line, col = self.line, self.col
        digits = []
        while self.peek().isdigit():
            digits.append(self.advance())
        text = "".join(digits).lstrip("0") or "0"
        if len(text) > _MAX_DIGITS or int(text) > sys.maxsize:
            raise ParseError("integer larger than sys.maxsize", line, col)
        return int(text)


def _parse_cycles(text: str, transitive: bool) -> GeneratorSet:
    sc = _Scanner(text)
    sc.skip_space()
    declared = None
    if sc.peek() == "n":
        sc.advance()
        sc.skip_space()
        if sc.peek() != "=":
            raise sc.error("expected '=' after 'n'")
        sc.advance()
        sc.skip_space()
        declared = sc.read_int()
        if declared < 1:
            raise sc.error("degree must be at least 1")
        sc.skip_space()
        if sc.peek() != ";":
            raise sc.error("expected ';' after degree header")
        sc.advance()
    raw_gens: list[list[list[int]]] = []
    named: set[int] = set()
    max_point = 0
    while True:
        sc.skip_space()
        if not sc.peek():
            break
        if sc.peek() != "(":
            raise sc.error(f"expected '(' but found {sc.peek()!r}")
        # one generator: juxtaposed cycles with no whitespace between them
        cycles: list[list[int]] = []
        used: set[int] = set()
        while sc.peek() == "(":
            sc.advance()
            cyc: list[int] = []
            while True:
                sc.skip_space()
                if sc.peek() == ")":
                    sc.advance()
                    break
                if not sc.peek():
                    raise sc.error("unterminated cycle")
                if sc.peek() == ",":
                    sc.advance()
                    continue
                p = sc.read_int()
                if p < 1:
                    raise sc.error("points are 1-based")
                if p in used:
                    raise sc.error(f"point {p} repeated within one generator")
                used.add(p)
                max_point = max(max_point, p)
                cyc.append(p)
            if cyc:
                cycles.append(cyc)
        raw_gens.append(cycles)
        named |= used
    if not raw_gens:
        raise sc.error("no generators found")
    degree = declared if declared is not None else max_point
    if degree < 1:
        raise sc.error("cannot infer a positive degree")
    if max_point > degree:
        raise sc.error(f"point {max_point} exceeds declared degree {degree}")
    if transitive and degree > 1 and len(named) < degree:
        # one of the first len(named) + 1 points is named by no cycle
        fixed = next(p for p in range(1, degree + 1) if p not in named)
        raise ValueError(f"point {fixed} is fixed by every generator, so the group is intransitive")
    gens = [
        Permutation.from_cycles(degree, [[p - 1 for p in c] for c in cycles])
        for cycles in raw_gens
    ]
    return GeneratorSet(degree, gens)


def _parse_json(text: str) -> GeneratorSet:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
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


def parse_generators(text: str, transitive: bool = False) -> GeneratorSet:
    """Parse either supported format (JSON detected by a leading '{').

    With ``transitive``, cycle text of degree above 1 that names fewer
    points than its degree (a header ``n=`` above the largest point named,
    say) is a ``ValueError`` before any permutation is built: a point no
    cycle names is fixed by every generator, so the group is intransitive,
    and a huge declared degree allocates nothing. JSON input holds every
    image, so its size is the size of the text.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_cycles(text, transitive)


def emit_generators(gens: GeneratorSet, fmt: str = "json") -> str:
    """Serialize; parse_generators(emit_generators(g)) round-trips to g."""
    if fmt == "json":
        return json.dumps(
            {"degree": gens.degree, "generators": [list(g.images) for g in gens]}
        )
    if fmt == "cycles":
        parts = []
        for g in gens:
            cycs = g.cycles()
            if not cycs:
                parts.append("()")
            else:
                parts.append(
                    "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)
                )
        return f"n={gens.degree}; " + " ".join(parts)
    raise ValueError(f"unknown format {fmt!r}")

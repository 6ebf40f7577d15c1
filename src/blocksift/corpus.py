"""Group-family constructors for tests and benchmarks.

Families are described by a :class:`GroupSpec` (also parseable from a
compact string such as ``"wreath(alternating(8),2)"``) and realized as
transitive generator sets. Each family is one row of ``_FAMILIES``: its
``GroupSpec`` parameter names in spec-string order, its constructor and
its degree and order formulas; the parser, ``describe``, ``build`` and
``spec_order`` all read that row. Point numbering conventions are pinned:
k-subsets are ranked colexicographically, product-action tuples use
mixed-radix encoding with digit 0 least significant, and imprimitive
wreath actions use blocks of m consecutive points.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations
from typing import Callable

from .perm import GeneratorSet, Permutation, is_transitive

M24_ORDER = 244823040


@dataclass
class GroupSpec:
    family: str
    n: int | None = None
    m: int | None = None
    k: int | None = None
    d: int | None = None
    inner: "GroupSpec | None" = None

    def describe(self) -> str:
        args = [a.describe() if isinstance(a, GroupSpec) else str(a) for a in _args(self)]
        return f"{self.family}({','.join(args)})" if args else self.family


# A nested spec is the inner group of a wreath, the only family that
# nests, and each wreath level has d >= 2, so it at least doubles the
# degree. A spec nested deeper than this has at least 2**63 >
# sys.maxsize points and could never be built.
_MAX_NESTING = 62


def parse_spec(text: str) -> GroupSpec:
    """Parse a compact spec string like ``"subsets(5,2)"``."""
    spec, rest = _parse_spec(text, 0)
    if rest.strip():
        raise ValueError(f"trailing text in group spec: {rest!r}")
    return spec


def _parse_spec(text: str, depth: int) -> tuple[GroupSpec, str]:
    text = text.lstrip()
    m = re.match(r"([a-zA-Z_][a-zA-Z0-9_-]*)", text)
    if not m:
        raise ValueError(f"malformed group spec: {text!r}")
    name = m.group(1).lower().replace("-", "_")
    rest = text[m.end():].lstrip()
    args: list = []
    if rest.startswith("("):
        rest = rest[1:]
        while True:
            rest = rest.lstrip()
            num = re.match(r"\d+", rest)
            if num:
                args.append(int(num.group()))
                rest = rest[num.end():]
            elif depth == _MAX_NESTING:
                raise ValueError("group spec nested too deeply")
            else:
                sub, rest = _parse_spec(rest, depth + 1)
                args.append(sub)
            rest = rest.lstrip()
            if rest.startswith(","):
                rest = rest[1:]
                continue
            if rest.startswith(")"):
                rest = rest[1:]
                break
            raise ValueError(f"malformed group spec near {rest!r}")
    return _spec_from_args(name, args), rest


def _spec_from_args(family: str, args: list) -> GroupSpec:
    if family not in _FAMILIES:
        raise ValueError(f"unknown group family {family!r}")
    params = _FAMILIES[family].params
    if len(args) == len(params) and all(
        isinstance(a, GroupSpec) == (p == "inner") for p, a in zip(params, args)
    ):
        return GroupSpec(family, **dict(zip(params, args)))
    if not params:
        raise ValueError(f"{family} takes no arguments")
    if "inner" in params:
        shown = ", ".join("inner-spec" if p == "inner" else p for p in params)
        raise ValueError(f"{family} expects ({shown})")
    raise ValueError(f"family {family!r} expects {len(params)} integer argument(s)")


def _cycle(n: int) -> Permutation:
    return Permutation([(p + 1) % n for p in range(n)])


def cyclic(n: int) -> GeneratorSet:
    if n < 1:
        raise ValueError("cyclic requires n >= 1")
    return GeneratorSet(n, [_cycle(n)])


def dihedral(n: int) -> GeneratorSet:
    if n < 3:
        raise ValueError("dihedral requires n >= 3")
    reflection = Permutation([(n - p) % n for p in range(n)])
    return GeneratorSet(n, [_cycle(n), reflection])


def symmetric(m: int) -> GeneratorSet:
    if m < 1:
        raise ValueError("symmetric requires m >= 1")
    if m == 1:
        return GeneratorSet(1, [Permutation.identity(1)])
    if m == 2:
        return GeneratorSet(2, [Permutation([1, 0])])
    return GeneratorSet(m, [Permutation.from_cycles(m, [(0, 1)]), _cycle(m)])


def alternating(m: int) -> GeneratorSet:
    if m < 3:
        raise ValueError("alternating requires m >= 3")
    three = Permutation.from_cycles(m, [(0, 1, 2)])
    if m == 3:
        return GeneratorSet(3, [three])
    if m % 2 == 1:
        big = _cycle(m)
    else:
        big = Permutation.from_cycles(m, [tuple(range(1, m))])
    return GeneratorSet(m, [three, big])


def _colex_rank(subset: tuple[int, ...]) -> int:
    return sum(math.comb(c, i + 1) for i, c in enumerate(subset))


def on_k_subsets(m: int, k: int) -> GeneratorSet:
    """Natural S_m generators acting on colex-ranked k-subsets."""
    if not 1 <= k < m:
        raise ValueError("subsets requires 1 <= k < m")
    degree = math.comb(m, k)
    subsets = [None] * degree
    for c in combinations(range(m), k):
        subsets[_colex_rank(c)] = c
    gens = []
    for g in symmetric(m).generators:
        images = [0] * degree
        for r, sub in enumerate(subsets):
            images[r] = _colex_rank(tuple(sorted(g.images[p] for p in sub)))
        gens.append(Permutation(images))
    return GeneratorSet(degree, gens)


def wreath_imprimitive(inner: GeneratorSet, d: int) -> GeneratorSet:
    """inner wr Sym(d) on m*d points, in d blocks of m consecutive points."""
    if d < 2:
        raise ValueError("wreath requires d >= 2")
    if not is_transitive(inner):
        raise ValueError("wreath requires a transitive inner group")
    m = inner.degree
    n = m * d
    gens = []
    for x in inner.generators:
        gens.append(Permutation([x.images[p] if p < m else p for p in range(n)]))
    gens.append(Permutation([((p // m + 1) % d) * m + p % m for p in range(n)]))
    if d > 2:
        swap = list(range(n))
        for r in range(m):
            swap[r], swap[m + r] = m + r, r
        gens.append(Permutation(swap))
    return GeneratorSet(n, gens)


def product_action(m: int, d: int) -> GeneratorSet:
    """Sym(m) wr Sym(d) on m^d mixed-radix tuples, digit 0 least significant."""
    if m < 2 or d < 2:
        raise ValueError("product action requires m >= 2 and d >= 2")
    n = m**d
    def digits(p):
        out = []
        for _ in range(d):
            out.append(p % m)
            p //= m
        return out
    def encode(ds):
        p = 0
        for v in reversed(ds):
            p = p * m + v
        return p
    def act(move):
        """The permutation p -> encode(move(digits(p)))."""
        return Permutation([encode(move(digits(p))) for p in range(n)])
    gens = [act(lambda ds, x=x: [x.images[ds[0]]] + ds[1:]) for x in symmetric(m).generators]
    gens.append(act(lambda ds: ds[1:] + ds[:1]))
    if d > 2:
        gens.append(act(lambda ds: [ds[1], ds[0]] + ds[2:]))
    return GeneratorSet(n, gens)


def mathieu24() -> GeneratorSet:
    """The degree-24 Mathieu group, loaded from the checked-in data file."""
    from .ioformats import parse_generators

    text = resources.files("blocksift.data").joinpath("m24.txt").read_text()
    return parse_generators(text)


@dataclass(frozen=True)
class _Family:
    """One group family. ``params`` are its ``GroupSpec`` field names in
    spec-string order, where ``inner`` holds a nested spec. ``make``,
    ``degree`` and ``order`` take the params' values, the nested spec as
    built, as its degree or as its order. ``degree`` is quick for any
    params: past ``sys.maxsize`` it may return any larger number."""

    params: tuple[str, ...]
    make: Callable[..., GeneratorSet]
    degree: Callable[..., int]
    order: Callable[..., int | None]


_FAMILIES = {
    "cyclic": _Family(("n",), cyclic, lambda n: n, lambda n: n),
    "dihedral": _Family(("n",), dihedral, lambda n: n, lambda n: 2 * n),
    "symmetric": _Family(("m",), symmetric, lambda m: m, math.factorial),
    "alternating": _Family(("m",), alternating, lambda m: m, lambda m: math.factorial(m) // 2),
    # C(m,k) = C(m,j) for j = min(k, m-k), and C(m,j) grows with j up to
    # m/2, so once j passes 64, C(m,64) alone passes sys.maxsize; a k outside
    # 1..m-1 counts as C(m,0) = 1 and is left to the constructor's message
    "subsets": _Family(
        ("m", "k"), on_k_subsets,
        lambda m, k: math.comb(m, max(0, min(k, m - k, 64))),
        lambda m, k: math.factorial(m) if m >= 3 else None,
    ),
    "wreath": _Family(
        ("inner", "d"), wreath_imprimitive, lambda inner, d: inner * d,
        lambda inner, d: inner**d * math.factorial(d),
    ),
    # m**d > sys.maxsize for m >= 2 and d >= 64; m or d below 2 is left to
    # the constructor's message
    "product": _Family(
        ("m", "d"), product_action,
        lambda m, d: 1 if min(m, d) < 2 else m**d if d < 64 else sys.maxsize + 1,
        lambda m, d: math.factorial(m) ** d * math.factorial(d),
    ),
    "m24": _Family((), mathieu24, lambda: 24, lambda: M24_ORDER),
}


def _args(spec: GroupSpec) -> list:
    """The spec's parameter values in spec-string order."""
    if spec.family not in _FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    return [getattr(spec, p) for p in _FAMILIES[spec.family].params]


def spec_degree(spec: GroupSpec) -> int:
    """The spec's number of points; ``ValueError`` when it, or a spec
    nested in it, has more than ``sys.maxsize``."""
    args = [spec_degree(a) if isinstance(a, GroupSpec) else a for a in _args(spec)]
    degree = _FAMILIES[spec.family].degree(*args)
    if degree > sys.maxsize:
        raise ValueError(f"{spec.describe()} has more than sys.maxsize points")
    return degree


def build(spec: GroupSpec) -> GeneratorSet:
    """Realize a group spec; the result is always transitive. A spec of
    more than ``sys.maxsize`` points, like cycle text naming such a point,
    is refused before any constructor runs."""
    spec_degree(spec)
    args = [build(a) if isinstance(a, GroupSpec) else a for a in _args(spec)]
    gens = _FAMILIES[spec.family].make(*args)
    if not is_transitive(gens):
        raise ValueError(f"{spec.describe()} is not transitive")
    return gens


def spec_order(spec: GroupSpec) -> int | None:
    """Known group order for the family, or None."""
    if spec.family not in _FAMILIES:
        return None
    args = [spec_order(a) if isinstance(a, GroupSpec) else a for a in _args(spec)]
    return None if None in args else _FAMILIES[spec.family].order(*args)


@dataclass
class CorpusEntry:
    name: str
    spec: GroupSpec
    order: int | None
    gens: GeneratorSet = field(repr=False)


def standard_corpus() -> list[CorpusEntry]:
    """The fixed cross-validation corpus of transitive groups (2 <= n <= 512)."""
    specs = [
        *(f"cyclic({n})" for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 60, 127, 128, 255, 256, 512)),
        *(f"dihedral({n})" for n in (3, 4, 5, 6, 8, 10, 12, 16, 64, 256)),
        *(f"symmetric({m})" for m in (2, 3, 4, 5, 6, 7, 8)),
        *(f"alternating({m})" for m in (3, 4, 5, 6, 7, 8)),
        *(f"subsets({m},2)" for m in (5, 6, 7, 10, 12)),
        "wreath(cyclic(2),2)",
        "wreath(cyclic(3),2)",
        "wreath(cyclic(5),2)",
        "wreath(cyclic(2),8)",
        "wreath(symmetric(3),3)",
        "wreath(symmetric(4),2)",
        "wreath(dihedral(4),4)",
        "wreath(alternating(8),2)",
        "wreath(alternating(64),2)",
        "wreath(cyclic(256),2)",
        "product(3,2)",
        "m24",
    ]
    out = []
    for text in specs:
        spec = parse_spec(text)
        out.append(CorpusEntry(spec.describe(), spec, spec_order(spec), build(spec)))
    return out

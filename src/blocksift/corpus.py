"""Group-family constructors for tests and benchmarks.

Families are described by a :class:`GroupSpec` (also parseable from a
compact string such as ``"wreath(alternating(8),2)"``) and realized as
transitive generator sets. Point numbering conventions are pinned:
k-subsets are ranked colexicographically, product-action tuples use
mixed-radix encoding with digit 0 least significant, and imprimitive
wreath actions use blocks of m consecutive points.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations

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
        if self.family == "cyclic":
            return f"cyclic({self.n})"
        if self.family == "dihedral":
            return f"dihedral({self.n})"
        if self.family == "symmetric":
            return f"symmetric({self.m})"
        if self.family == "alternating":
            return f"alternating({self.m})"
        if self.family == "subsets":
            return f"subsets({self.m},{self.k})"
        if self.family == "wreath":
            return f"wreath({self.inner.describe()},{self.d})"
        if self.family == "product":
            return f"product({self.m},{self.d})"
        if self.family == "m24":
            return "m24"
        raise ValueError(f"unknown family {self.family!r}")


def parse_spec(text: str) -> GroupSpec:
    """Parse a compact spec string like ``"subsets(5,2)"``."""
    spec, rest = _parse_spec(text)
    if rest.strip():
        raise ValueError(f"trailing text in group spec: {rest!r}")
    return spec


def _parse_spec(text: str) -> tuple[GroupSpec, str]:
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
            else:
                sub, rest = _parse_spec(rest)
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


def _spec_from_args(name: str, args: list) -> GroupSpec:
    def ints(count):
        if len(args) != count or not all(isinstance(a, int) for a in args):
            raise ValueError(f"family {name!r} expects {count} integer argument(s)")
        return args

    if name == "cyclic":
        return GroupSpec("cyclic", n=ints(1)[0])
    if name == "dihedral":
        return GroupSpec("dihedral", n=ints(1)[0])
    if name == "symmetric":
        return GroupSpec("symmetric", m=ints(1)[0])
    if name == "alternating":
        return GroupSpec("alternating", m=ints(1)[0])
    if name == "subsets":
        m, k = ints(2)
        return GroupSpec("subsets", m=m, k=k)
    if name == "product":
        m, d = ints(2)
        return GroupSpec("product", m=m, d=d)
    if name == "wreath" or name == "wreath_imprimitive":
        if (
            len(args) != 2
            or not isinstance(args[0], GroupSpec)
            or not isinstance(args[1], int)
        ):
            raise ValueError("wreath expects (inner-spec, d)")
        return GroupSpec("wreath", inner=args[0], d=args[1])
    if name == "m24":
        if args:
            raise ValueError("m24 takes no arguments")
        return GroupSpec("m24")
    raise ValueError(f"unknown group family {name!r}")


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


def wreath_canonical_blocks(inner_degree: int, d: int) -> list[list[int]]:
    m = inner_degree
    return [list(range(j * m, (j + 1) * m)) for j in range(d)]


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
    gens = []
    for x in symmetric(m).generators:
        images = [0] * n
        for p in range(n):
            ds = digits(p)
            ds[0] = x.images[ds[0]]
            images[p] = encode(ds)
        gens.append(Permutation(images))
    rot = [0] * n
    for p in range(n):
        ds = digits(p)
        rot[p] = encode(ds[1:] + ds[:1])
    gens.append(Permutation(rot))
    if d > 2:
        swap = [0] * n
        for p in range(n):
            ds = digits(p)
            ds[0], ds[1] = ds[1], ds[0]
            swap[p] = encode(ds)
        gens.append(Permutation(swap))
    return GeneratorSet(n, gens)


def mathieu24() -> GeneratorSet:
    """The degree-24 Mathieu group, loaded from the checked-in data file."""
    from .ioformats import parse_generators

    text = resources.files("blocksift.data").joinpath("m24.txt").read_text()
    return parse_generators(text)


def build(spec: GroupSpec) -> GeneratorSet:
    """Realize a group spec; the result is always transitive."""
    if spec.family == "cyclic":
        gens = cyclic(spec.n)
    elif spec.family == "dihedral":
        gens = dihedral(spec.n)
    elif spec.family == "symmetric":
        gens = symmetric(spec.m)
    elif spec.family == "alternating":
        gens = alternating(spec.m)
    elif spec.family == "subsets":
        gens = on_k_subsets(spec.m, spec.k)
    elif spec.family == "wreath":
        gens = wreath_imprimitive(build(spec.inner), spec.d)
    elif spec.family == "product":
        gens = product_action(spec.m, spec.d)
    elif spec.family == "m24":
        gens = mathieu24()
    else:
        raise ValueError(f"unknown family {spec.family!r}")
    if not is_transitive(gens):
        raise ValueError(f"{spec.describe()} is not transitive")
    return gens


def spec_order(spec: GroupSpec) -> int | None:
    """Known group order for the family, or None."""
    if spec.family == "cyclic":
        return spec.n
    if spec.family == "dihedral":
        return 2 * spec.n
    if spec.family == "symmetric":
        return math.factorial(spec.m)
    if spec.family == "alternating":
        return math.factorial(spec.m) // 2
    if spec.family == "subsets":
        return math.factorial(spec.m) if spec.m >= 3 else None
    if spec.family == "wreath":
        inner = spec_order(spec.inner)
        return None if inner is None else inner**spec.d * math.factorial(spec.d)
    if spec.family == "product":
        return math.factorial(spec.m) ** spec.d * math.factorial(spec.d)
    if spec.family == "m24":
        return M24_ORDER
    return None


@dataclass
class CorpusEntry:
    name: str
    spec: GroupSpec
    order: int | None
    gens: GeneratorSet = field(repr=False)


def standard_corpus(max_degree: int = 512) -> list[CorpusEntry]:
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
        gens = build(spec)
        if not 2 <= gens.degree <= max_degree:
            continue
        out.append(CorpusEntry(spec.describe(), spec, spec_order(spec), gens))
    return out

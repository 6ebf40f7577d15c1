"""Workload definitions and the seeded input generator.

A workload is a short list of group specs from one regime. For a given
seed the generator draws several variants of that list. In each variant
every instance is relabelled by its own random point permutation, and
every second instance gets two extra generators, each a random word in the
family's (relabelled) generators. The program under test only ever sees
the serialized text of an instance; the expected verdict comes from the
family, never from running the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

@dataclass(frozen=True)
class Workload:
    variants: int  # relabelled copies of the spec list per seed
    specs: list[str]


# A relabelling can change the work of one instance several-fold, so every
# run cycles through several relabelled variants of the spec list. Each
# workload gets as many as its one pass of all three entry points fits in
# about 30 s; the baseline is what limits primitive_large_stab.
WORKLOADS: dict[str, Workload] = {
    # The first candidate block is already a block; the transversal build
    # (sifts and cube expansions) dominates, and large n makes GC and
    # memory visible.
    "imprimitive_pow2": Workload(12, [
        "cyclic(8192)",
        "dihedral(8192)",
        "cyclic(16384)",
        "dihedral(16384)",
        "wreath(symmetric(20),20)",
        "wreath(symmetric(30),30)",
    ]),
    # Blockness tests fail, H-updates and scoped transversals run; the
    # baseline is far slower than primitivity_main here.
    "primitive_large_stab": Workload(40, [
        "subsets(20,2)",
        "subsets(30,2)",
        "product(6,3)",
        "symmetric(128)",
        "m24",
    ]),
    # H is trivial, so every one of the n-1 candidate orbits is driven
    # through Word.apply: the quadratic candidate scan.
    "primitive_prime": Workload(8, [
        "cyclic(257)",
        "dihedral(263)",
        "cyclic(383)",
        "dihedral(389)",
    ]),
}

EXTRA_GENERATORS = 2
WORD_LENGTH = (8, 16)


@dataclass(frozen=True)
class Instance:
    spec: str
    text: str  # serialized generators, the only thing the program parses
    expected: str  # "primitive" or "blocks"


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def expected_verdict(spec) -> str:
    """Known answer for the families the workloads use.

    Prime-degree cyclic/dihedral groups, S_m on 2-subsets (m >= 5), the
    product action of S_m wr S_3 (m >= 5), symmetric groups and M24 are
    primitive; cyclic/dihedral groups of degree 2^k (k >= 2) and
    imprimitive wreath products are not.
    """
    fam = spec.family
    if fam in ("cyclic", "dihedral"):
        if _is_prime(spec.n):
            return "primitive"
        if spec.n >= 4 and spec.n & (spec.n - 1) == 0:
            return "blocks"
    elif fam == "subsets" and spec.k == 2 and spec.m >= 5:
        return "primitive"
    elif fam == "product" and spec.d == 3 and spec.m >= 5:
        return "primitive"
    elif fam in ("symmetric", "m24"):
        return "primitive"
    elif fam == "wreath":
        return "blocks"
    raise ValueError(f"no known verdict for {spec.describe()}")


def _relabelled(images: list[tuple[int, ...]], pi: list[int]) -> list[list[int]]:
    """Conjugate each generator by the point map p -> pi[p]."""
    out = []
    for img in images:
        new = [0] * len(pi)
        for p, v in enumerate(img):
            new[pi[p]] = pi[v]
        out.append(new)
    return out


def _random_word(gens: list[list[int]], rng: random.Random) -> list[int]:
    n = len(gens[0])
    inverses = []
    for g in gens:
        inv = [0] * n
        for p, v in enumerate(g):
            inv[v] = p
        inverses.append(inv)
    cur = list(range(n))
    for _ in range(rng.randint(*WORD_LENGTH)):
        i = rng.randrange(len(gens))
        letter = inverses[i] if rng.random() < 0.5 else gens[i]
        cur = [letter[v] for v in cur]
    return cur


def generate(bs, workload: str, seed: int, specs=None) -> list[list[Instance]]:
    """Seeded inputs of one workload: its relabelled variants, each a list
    of instances. ``bs`` is the imported package; ``specs`` replaces the
    spec list (for the self-test)."""
    variants = WORKLOADS[workload].variants
    specs = WORKLOADS[workload].specs if specs is None else specs
    rng = random.Random(f"{workload}/{seed}")
    parsed = [bs.corpus.parse_spec(text) for text in specs]
    families = [bs.corpus.build(spec) for spec in parsed]
    expected = [expected_verdict(spec) for spec in parsed]
    pool = []
    for _ in range(variants):
        row = []
        for i, (text, family) in enumerate(zip(specs, families)):
            n = family.degree
            pi = list(range(n))
            rng.shuffle(pi)
            gens = _relabelled([g.images for g in family.generators], pi)
            if i % 2 == 1:
                base = list(gens)
                gens += [_random_word(base, rng) for _ in range(EXTRA_GENERATORS)]
            gset = bs.GeneratorSet(n, [bs.Permutation(g) for g in gens])
            row.append(Instance(text, bs.ioformats.emit_generators(gset), expected[i]))
        pool.append(row)
    return pool
